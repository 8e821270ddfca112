"""Natural limit assignments over finite discrete probe spaces.

For a fixed ground Z and point set X, a candidate assigns to every probe
space D a map from functions Z -> D to functions X -> D.  The candidates
that are natural in D correspond exactly to pointwise-ultrafilter kernels
on Z.  Small configurations are settled by raw table enumeration; larger
ones use the kernel-indexed enumeration, which the raw oracle validates
wherever both are feasible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import product
from operator import itemgetter

from .filter_calculus import (Filter, direct_image, is_ultrafilter,
                              limit_along, principal_ultrafilter)
from .verdict import CapacityError, InternalCheckError, Verdict

RAW_CAP = 500_000


@lru_cache(maxsize=None)
def all_functions(source_size: int, target_size: int) -> tuple[tuple[int, ...], ...]:
    """Every function between two index sets, as tuples, lexicographic."""
    return tuple(product(range(target_size), repeat=source_size))


def compose(phi: tuple[int, ...], f: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(phi[v] for v in f)


@lru_cache(maxsize=None)
def composite_indices(n: int, s: int, t: int) -> tuple[tuple[int, ...], ...]:
    """Per phi in ``all_functions(s, t)``, the index of phi∘g in
    ``all_functions(n, t)`` for each g in ``all_functions(n, s)``, in order.

    The index of a function is its values read as a base-``t`` numeral,
    first value most significant, so each row is built one digit at a time.
    """
    out = []
    for phi in all_functions(s, t):
        row = [0]
        for _ in range(n):
            row = [i * t + v for i in row for v in phi]
        out.append(tuple(row))
    return tuple(out)


@dataclass(frozen=True)
class ProbeFamily:
    """Discrete probe spaces by size; all functions between them count as
    morphisms, so the family is closed under composition for free."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        if 1 not in self.sizes:
            raise ValueError("probe family must contain a one-point space")
        if len(set(self.sizes)) != len(self.sizes) or any(s < 1 for s in self.sizes):
            raise ValueError("sizes must be distinct positive integers")


def default_probes(z_size: int) -> ProbeFamily:
    """Sizes 1..max(2, |Z|): includes the one-point space and the
    ultrafilter probe of Z."""
    return ProbeFamily(tuple(range(1, max(2, z_size) + 1)))


@dataclass(frozen=True)
class TauCandidate:
    """Per probe size, a row of output indices: ``rows[s][i]`` is the index
    in ``all_functions(x_count, s)`` of the output at the i-th input of
    ``all_functions(|Z|, s)``.

    The shape of the rows is checked at construction; naturality is
    checked, not baked into the representation.
    """

    z_ground: tuple
    x_count: int
    probes: ProbeFamily
    rows: dict  # size -> tuple of output indices

    def __post_init__(self):
        if set(self.rows) != set(self.probes.sizes):
            raise ValueError("rows must cover exactly the probe sizes")
        z_len = len(self.z_ground)
        for s in self.probes.sizes:
            row = self.rows[s]
            if len(row) != s ** z_len:
                raise ValueError(f"the row of size {s} needs {s ** z_len} entries")
            if min(row) < 0 or max(row) >= s ** self.x_count:
                raise ValueError(f"the row of size {s} has an entry out of range")

    def value(self, size: int, fn: tuple[int, ...]) -> tuple[int, ...]:
        """The output at the input ``fn``, as a function X -> size."""
        i = 0
        for v in fn:
            i = i * size + v
        return all_functions(self.x_count, size)[self.rows[size][i]]


def is_natural(tau: TauCandidate) -> Verdict:
    """Exhaustive naturality over every probe morphism and every input.

    For each morphism phi: s -> t the squares tau_t(phi∘fn) ==
    phi∘tau_s(fn), one per fn, are decided by one comparison of two index
    sequences: ``rows[t]`` gathered at ``composite_indices(|Z|, s, t)[phi]``,
    and ``composite_indices(x_count, s, t)[phi]`` gathered at ``rows[s]``.
    No square is skipped; on failure the witness is the first
    (s, t, phi, fn) in lexicographic order.
    """
    z_len = len(tau.z_ground)
    sizes = tau.probes.sizes
    rows = tau.rows
    for s in sizes:
        row_s = rows[s]
        # a one-entry row gathers a bare item, on both sides alike
        through_s = itemgetter(*row_s)
        for t in sizes:
            row_t = rows[t]
            z_side = composite_indices(z_len, s, t)
            x_side = composite_indices(tau.x_count, s, t)
            for p, (on_z, on_x) in enumerate(zip(z_side, x_side)):
                if itemgetter(*on_z)(row_t) != through_s(on_x):
                    k = next(k for k, (j, o) in enumerate(zip(on_z, row_s))
                             if row_t[j] != on_x[o])
                    return Verdict.fail((s, t, all_functions(s, t)[p],
                                         all_functions(z_len, s)[k]),
                                        "naturality square broken")
    return Verdict.ok()


def tau_from_kernel(filters, probes: ProbeFamily) -> TauCandidate:
    """The assignment taking limits along a pointwise-ultrafilter kernel.

    The limit of an input along the principal ultrafilter at z is the
    input's value at z, so output digit j copies the input digit at the
    point of the j-th filter.  The construction is natural, and that is
    re-checked here.
    """
    filters = tuple(filters)
    if not filters:
        raise ValueError("kernel must cover at least one point")
    ground = filters[0].ground
    for f in filters:
        if f.ground != ground:
            raise ValueError("kernel filters must share one ground")
        if not is_ultrafilter(f):
            raise ValueError("kernel entry is not an ultrafilter")
    # an ultrafilter's kernel is one bit: the index of its point
    points = [f.kernel.bit_length() - 1 for f in filters]
    x_count = len(filters)
    rows = {}
    for s in probes.sizes:
        # output digit j, worth s ** (x_count - 1 - j), copies input digit
        # points[j]; rows grow one input digit at a time, like the inputs
        row = [0]
        for z in range(len(ground)):
            weight = sum(s ** (x_count - 1 - j) for j, p in enumerate(points) if p == z)
            row = [i + v * weight for i in row for v in range(s)]
        rows[s] = tuple(row)
    tau = TauCandidate(ground, x_count, probes, rows)
    if not is_natural(tau):
        raise InternalCheckError("kernel-induced assignment is not natural")
    return tau


def kernel_from_tau(tau: TauCandidate) -> tuple[Filter, ...]:
    """Extract the kernel: evaluate at the tautological input of the
    ultrafilter probe (the probe of size |Z|, indexed like Z itself).

    Extraction does not require naturality; on a non-natural candidate the
    round trip simply fails.
    """
    z_len = len(tau.z_ground)
    if z_len not in tau.probes.sizes:
        raise ValueError("probe family lacks the ultrafilter probe of Z")
    tautological = tuple(range(z_len))
    assignment = tau.value(z_len, tautological)
    return tuple(principal_ultrafilter(tau.z_ground, tau.z_ground[i])
                 for i in assignment)


def raw_table_space(z_len: int, x_count: int, probes: ProbeFamily) -> int:
    total = 1
    for s in probes.sizes:
        total *= (s ** x_count) ** (s ** z_len)
    return total


def enumerate_natural_raw(z_ground, x_count: int,
                          probes: ProbeFamily) -> list[TauCandidate]:
    """Brute force: every raw table in lexicographic order, filtered by
    naturality."""
    z_ground = tuple(z_ground)
    z_len = len(z_ground)
    if raw_table_space(z_len, x_count, probes) > RAW_CAP:
        raise CapacityError("raw table space exceeds the enumeration cap")
    sizes = probes.sizes
    out = []
    for combo in product(*(product(range(s ** x_count), repeat=s ** z_len)
                           for s in sizes)):
        tau = TauCandidate(z_ground, x_count, probes, dict(zip(sizes, combo)))
        if is_natural(tau):
            out.append(tau)
    return out


def enumerate_natural(z_ground, x_count: int, probes: ProbeFamily,
                      induced=None) -> tuple[list[TauCandidate], str]:
    """All natural candidates, by raw enumeration when feasible, else by
    the kernel-indexed construction (distinctness re-checked).

    ``induced`` maps a kernel to its candidate; it defaults to
    ``tau_from_kernel`` over ``probes``.
    """
    z_ground = tuple(z_ground)
    z_len = len(z_ground)
    if raw_table_space(z_len, x_count, probes) <= RAW_CAP:
        return enumerate_natural_raw(z_ground, x_count, probes), "raw"
    if induced is None:
        def induced(filters):
            return tau_from_kernel(filters, probes)
    out = []
    for assignment in product(range(z_len), repeat=x_count):
        filters = tuple(principal_ultrafilter(z_ground, z_ground[i])
                        for i in assignment)
        out.append(induced(filters))
    for i, a in enumerate(out):
        for b in out[i + 1:]:
            if a.rows == b.rows:
                raise InternalCheckError("distinct kernels induced equal candidates")
    return out, "structured"


@dataclass(frozen=True)
class YonedaReport:
    z_size: int
    x_size: int
    probe_sizes: tuple[int, ...]
    mode: str
    candidate_count: int
    expected_count: int
    bijection_ok: bool
    roundtrip_candidates_ok: bool
    roundtrip_kernels_ok: bool

    @property
    def all_pass(self) -> bool:
        return (self.candidate_count == self.expected_count
                and self.bijection_ok and self.roundtrip_candidates_ok
                and self.roundtrip_kernels_ok)

    def to_dict(self) -> dict:
        return {
            "z_size": self.z_size, "x_size": self.x_size,
            "probe_sizes": list(self.probe_sizes), "mode": self.mode,
            "candidate_count": self.candidate_count,
            "expected_count": self.expected_count,
            "bijection_ok": self.bijection_ok,
            "roundtrip_candidates_ok": self.roundtrip_candidates_ok,
            "roundtrip_kernels_ok": self.roundtrip_kernels_ok,
            "all_pass": self.all_pass,
        }


def yoneda_roundtrip(z_size: int, x_size: int) -> YonedaReport:
    """Count the natural candidates and verify both round trips.

    The candidate count must be |Z|^|X|; extraction must biject onto the
    pointwise-ultrafilter kernels; and the two composites must be
    identities.  Each kernel's candidate is built once per call and shared
    by the enumeration and both round trips.

    In structured mode the candidates are built from every kernel, so the
    count is |Z|^|X| by construction, and ``bijection_ok`` and
    ``roundtrip_candidates_ok`` follow from ``roundtrip_kernels_ok``
    (the construction is deterministic): only ``roundtrip_kernels_ok`` can
    fail on its own there.  In raw mode all four are independent.
    """
    z_ground = tuple(range(z_size))
    probes = default_probes(z_size)
    induced = cache(lambda filters: tau_from_kernel(filters, probes))
    candidates, mode = enumerate_natural(z_ground, x_size, probes, induced)
    expected = z_size ** x_size

    extracted = []
    for tau in candidates:
        kernel = kernel_from_tau(tau)
        extracted.append(tuple(f.kernel_elements()[0] for f in kernel))
    every_kernel = sorted(product(z_ground, repeat=x_size))
    bijection_ok = sorted(extracted) == every_kernel

    roundtrip_candidates_ok = all(
        induced(kernel_from_tau(tau)).rows == tau.rows for tau in candidates)
    roundtrip_kernels_ok = True
    for points in every_kernel:
        filters = tuple(principal_ultrafilter(z_ground, p) for p in points)
        if kernel_from_tau(induced(filters)) != filters:
            roundtrip_kernels_ok = False
            break

    return YonedaReport(z_size, x_size, probes.sizes, mode, len(candidates),
                        expected, bijection_ok, roundtrip_candidates_ok,
                        roundtrip_kernels_ok)


# ---------------------------------------------------------------------------
# The ultrafilter space and the underlying-set adjunction.
# ---------------------------------------------------------------------------

def beta_space(ground) -> tuple[Filter, ...]:
    """The points of the ultrafilter space of a finite ground set: its
    principal ultrafilters, in ground order.  The space is discrete."""
    ground = tuple(ground)
    if not ground:
        raise ValueError("empty ground has no ultrafilters")
    return tuple(principal_ultrafilter(ground, q) for q in ground)


@dataclass(frozen=True)
class AdjunctionReport:
    x_size: int
    d_size: int
    set_side: int
    top_side: int
    bijection_ok: bool
    roundtrips_ok: bool
    naturality_ok: bool

    @property
    def all_pass(self) -> bool:
        return self.bijection_ok and self.roundtrips_ok and self.naturality_ok

    def to_dict(self) -> dict:
        return {"x_size": self.x_size, "d_size": self.d_size,
                "set_side": self.set_side, "top_side": self.top_side,
                "bijection_ok": self.bijection_ok,
                "roundtrips_ok": self.roundtrips_ok,
                "naturality_ok": self.naturality_ok, "all_pass": self.all_pass}


def adjunction_bijection(x_size: int, d_size: int) -> AdjunctionReport:
    """Functions X -> D versus maps from the ultrafilter space of X to D.

    Forward: push an ultrafilter along the function and take the limit.
    Backward: precompose with the principal-ultrafilter injection.  Both
    composites are checked pointwise, and naturality in D is spot-checked
    against the codomain sizes 1, 2 and 3.
    """
    x_points = tuple(range(x_size))
    bx = beta_space(x_points)
    delta_index = {pt: i for i, pt in enumerate(bx)}

    def forward(g: tuple[int, ...], codomain_size: int) -> tuple[int, ...]:
        out = []
        for u in bx:
            image = direct_image(lambda x: g[x], u, tuple(range(codomain_size)))
            val = limit_along(image, lambda p: p)
            if val is None:
                raise InternalCheckError("ultrafilter image has no limit")
            out.append(val)
        return tuple(out)

    def backward(h: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(h[delta_index[principal_ultrafilter(x_points, x)]]
                     for x in x_points)

    set_side = all_functions(x_size, d_size)
    top_side = all_functions(len(bx), d_size)

    forwards = {g: forward(g, d_size) for g in set_side}
    bijection_ok = sorted(forwards.values()) == sorted(top_side)
    roundtrips_ok = (all(backward(forwards[g]) == g for g in set_side)
                     and all(forward(backward(h), d_size) == h for h in top_side))

    naturality_ok = True
    for t in (1, 2, 3):
        for psi in all_functions(d_size, t):
            for g in set_side:
                if forward(compose(psi, g), t) != compose(psi, forward(g, d_size)):
                    naturality_ok = False
    return AdjunctionReport(x_size, d_size, len(set_side), len(top_side),
                            bijection_ok, roundtrips_ok, naturality_ok)
