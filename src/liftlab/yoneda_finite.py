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
from functools import lru_cache
from itertools import product

from .filter_calculus import (Filter, FiniteTopSpace, direct_image,
                              is_ultrafilter, limit_along,
                              principal_ultrafilter)
from .verdict import CapacityError, InternalCheckError, Verdict

RAW_CAP = 500_000


@lru_cache(maxsize=None)
def all_functions(source_size: int, target_size: int) -> tuple[tuple[int, ...], ...]:
    """Every function between two index sets, as tuples, lexicographic."""
    return tuple(product(range(target_size), repeat=source_size))


def compose(phi: tuple[int, ...], f: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(phi[v] for v in f)


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
    """Per probe size, a table from Z-valued inputs to X-valued outputs.

    Nothing is assumed at construction; naturality is checked, not baked
    into the representation.
    """

    z_ground: tuple
    x_count: int
    probes: ProbeFamily
    tables: dict  # size -> { input tuple -> output tuple }

    def value(self, size: int, fn: tuple[int, ...]) -> tuple[int, ...]:
        return self.tables[size][fn]


def is_natural(tau: TauCandidate) -> Verdict:
    """Exhaustive naturality over every probe morphism and every input."""
    z_len = len(tau.z_ground)
    sizes = tau.probes.sizes
    for s in sizes:
        for t in sizes:
            for phi in all_functions(s, t):
                for fn in all_functions(z_len, s):
                    if tau.value(t, compose(phi, fn)) != compose(phi, tau.value(s, fn)):
                        return Verdict.fail((s, t, phi, fn), "naturality square broken")
    return Verdict.ok()


def tau_from_kernel(filters, probes: ProbeFamily) -> TauCandidate:
    """The assignment taking limits along a pointwise-ultrafilter kernel.

    Always defined because the probes are finite discrete and the filters
    principal; the construction is natural, and that is re-checked here.
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
    z_index = {e: i for i, e in enumerate(ground)}
    z_len = len(ground)
    tables: dict[int, dict] = {}
    for s in probes.sizes:
        table = {}
        for fn in all_functions(z_len, s):
            out = []
            for f in filters:
                val = limit_along(f, lambda e: fn[z_index[e]])
                if val is None:
                    raise InternalCheckError("principal limit failed to exist")
                out.append(val)
            table[fn] = tuple(out)
        tables[s] = table
    tau = TauCandidate(ground, len(filters), probes, tables)
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


def enumerate_natural_raw(z_ground, x_count: int, probes: ProbeFamily,
                          cap: int = RAW_CAP) -> list[TauCandidate]:
    """Brute force: every raw table, filtered by naturality."""
    z_ground = tuple(z_ground)
    z_len = len(z_ground)
    if raw_table_space(z_len, x_count, probes) > cap:
        raise CapacityError("raw table space exceeds the enumeration cap")
    keys = [(s, fn) for s in probes.sizes for fn in all_functions(z_len, s)]
    choices = [all_functions(x_count, s) for s, _ in keys]
    out = []
    for combo in product(*choices):
        tables: dict[int, dict] = {s: {} for s in probes.sizes}
        for (s, fn), val in zip(keys, combo):
            tables[s][fn] = val
        tau = TauCandidate(z_ground, x_count, probes, tables)
        if is_natural(tau):
            out.append(tau)
    return out


def enumerate_natural(z_ground, x_count: int, probes: ProbeFamily,
                      raw_cap: int = RAW_CAP) -> tuple[list[TauCandidate], str]:
    """All natural candidates, by raw enumeration when feasible, else by
    the kernel-indexed construction (distinctness re-checked)."""
    z_ground = tuple(z_ground)
    z_len = len(z_ground)
    if raw_table_space(z_len, x_count, probes) <= raw_cap:
        return enumerate_natural_raw(z_ground, x_count, probes, raw_cap), "raw"
    out = []
    for assignment in product(range(z_len), repeat=x_count):
        filters = tuple(principal_ultrafilter(z_ground, z_ground[i])
                        for i in assignment)
        out.append(tau_from_kernel(filters, probes))
    for i, a in enumerate(out):
        for b in out[i + 1:]:
            if a.tables == b.tables:
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


def yoneda_roundtrip(z_size: int, x_size: int,
                     probe_sizes: tuple[int, ...] | None = None,
                     raw_cap: int = RAW_CAP) -> YonedaReport:
    """Count the natural candidates and verify both round trips.

    The candidate count must be |Z|^|X|; extraction must biject onto the
    pointwise-ultrafilter kernels; and the two composites must be
    identities.
    """
    z_ground = tuple(range(z_size))
    probes = (ProbeFamily(tuple(probe_sizes)) if probe_sizes
              else default_probes(z_size))
    if z_size not in probes.sizes:
        raise ValueError("probe family must contain the ultrafilter probe of Z")
    candidates, mode = enumerate_natural(z_ground, x_size, probes, raw_cap)
    expected = z_size ** x_size

    extracted = []
    for tau in candidates:
        kernel = kernel_from_tau(tau)
        extracted.append(tuple(f.kernel_elements()[0] for f in kernel))
    every_kernel = sorted(product(z_ground, repeat=x_size))
    bijection_ok = sorted(extracted) == every_kernel

    roundtrip_candidates_ok = all(
        tau_from_kernel(kernel_from_tau(tau), probes).tables == tau.tables
        for tau in candidates)
    roundtrip_kernels_ok = True
    for points in every_kernel:
        filters = tuple(principal_ultrafilter(z_ground, p) for p in points)
        if kernel_from_tau(tau_from_kernel(filters, probes)) != filters:
            roundtrip_kernels_ok = False
            break

    return YonedaReport(z_size, x_size, probes.sizes, mode, len(candidates),
                        expected, bijection_ok, roundtrip_candidates_ok,
                        roundtrip_kernels_ok)


# ---------------------------------------------------------------------------
# The ultrafilter space and the underlying-set adjunction.
# ---------------------------------------------------------------------------

def beta_space(ground) -> FiniteTopSpace:
    """The discrete space of ultrafilters on a finite ground set."""
    ground = tuple(ground)
    if not ground:
        raise ValueError("empty ground has no ultrafilters")
    return FiniteTopSpace.discrete(
        tuple(principal_ultrafilter(ground, q) for q in ground))


def beta_map(fmap, source_ground, target_ground):
    """The action of the ultrafilter space on a function: push each
    ultrafilter forward along it."""
    source_ground = tuple(source_ground)
    target_ground = tuple(target_ground)

    def mapped(u: Filter) -> Filter:
        if u.ground != source_ground or not is_ultrafilter(u):
            raise ValueError("expected an ultrafilter on the source ground")
        return direct_image(fmap, u, target_ground)

    return mapped


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


def adjunction_bijection(x_size: int, d_size: int,
                         naturality_sizes: tuple[int, ...] = (1, 2, 3)) -> AdjunctionReport:
    """Functions X -> D versus maps from the ultrafilter space of X to D.

    Forward: push an ultrafilter along the function and take the limit.
    Backward: precompose with the principal-ultrafilter injection.  Both
    composites are checked pointwise, and naturality in D is spot-checked
    against the given codomain sizes.
    """
    x_points = tuple(range(x_size))
    bx = beta_space(x_points)
    delta_index = {pt: i for i, pt in enumerate(bx.points)}

    def forward(g: tuple[int, ...], codomain_size: int) -> tuple[int, ...]:
        out = []
        for u in bx.points:
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
    top_side = all_functions(len(bx.points), d_size)

    forwards = {g: forward(g, d_size) for g in set_side}
    bijection_ok = sorted(forwards.values()) == sorted(top_side)
    roundtrips_ok = (all(backward(forwards[g]) == g for g in set_side)
                     and all(forward(backward(h), d_size) == h for h in top_side))

    naturality_ok = True
    for t in naturality_sizes:
        for psi in all_functions(d_size, t):
            for g in set_side:
                if forward(compose(psi, g), t) != compose(psi, forward(g, d_size)):
                    naturality_ok = False
    return AdjunctionReport(x_size, d_size, len(set_side), len(top_side),
                            bijection_ok, roundtrips_ok, naturality_ok)
