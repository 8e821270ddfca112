"""Natural limit assignments over finite discrete probe spaces.

For a fixed ground Z and point set X, a candidate assigns to every probe
space D a map from functions Z -> D to functions X -> D.  The candidates
that are natural in D correspond exactly to pointwise-ultrafilter kernels
on Z.  ``partial_magma.search`` finds the natural candidates from the
naturality squares alone: each entry it sets forces the entries its
probe maps reach, and ``is_natural`` confirms every complete assignment.

Naturality is decided by a generator lemma.  The squares of a composite
follow from those of its factors, so a candidate is natural for every map
between the probe sizes 1..k iff it is natural for maps that generate them
all under composition: per size s >= 2 a transposition, from 3 on a cycle
(together they generate the bijections of s), and the merge of its last
two points; per size s < k its inclusion into s + 1.  Every map factors as
a bijection, merges onto its image's size, inclusions and a bijection.  At
|Z| = 4 that is 11 of the 494 probe maps.  The lemma decides; only when a
generator fails does the square-by-square loop run, to find the same first
witness as always.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cache, lru_cache
from itertools import accumulate, product
from operator import itemgetter

from .filter_calculus import (Filter, direct_image, is_ultrafilter,
                              limit_along, principal_ultrafilter)
from .measure_space import bits
from .partial_magma import search
from .verdict import InternalCheckError, Verdict


@lru_cache(maxsize=None)
def all_functions(source_size: int, target_size: int) -> tuple[tuple[int, ...], ...]:
    """Every function between two index sets, as tuples, lexicographic."""
    return tuple(product(range(target_size), repeat=source_size))


def compose(phi: tuple[int, ...], f: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(phi[v] for v in f)


def _composites(n: int, t: int, phi: tuple[int, ...]) -> tuple[int, ...]:
    """The index of phi∘g in ``all_functions(n, t)`` for each g in
    ``all_functions(n, len(phi))``, in order.

    The index of a function is its values read as a base-``t`` numeral,
    first value most significant, so the row is built one digit at a time.
    """
    row = [0]
    for _ in range(n):
        row = [i * t + v for i in row for v in phi]
    return tuple(row)


@lru_cache(maxsize=None)
def composite_indices(n: int, s: int, t: int) -> tuple[tuple[int, ...], ...]:
    """Per phi in ``all_functions(s, t)``, its ``_composites`` row."""
    return tuple(_composites(n, t, phi) for phi in all_functions(s, t))


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


def _generating_maps(k: int) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """Maps (s, t, phi) that generate every map between the sizes 1..k
    under composition: per size s >= 2 the transposition of its first two
    points, from 3 on the cycle i -> i + 1, and the merge of its last two
    points into s - 1; per size s < k the inclusion into s + 1."""
    transpositions = [(s, s, (1, 0) + tuple(range(2, s))) for s in range(2, k + 1)]
    cycles = [(s, s, tuple(range(1, s)) + (0,)) for s in range(3, k + 1)]
    merges = [(s, s - 1, tuple(range(s - 1)) + (s - 2,)) for s in range(2, k + 1)]
    inclusions = [(s, s + 1, tuple(range(s))) for s in range(1, k)]
    return tuple(transpositions + cycles + merges + inclusions)


@lru_cache(maxsize=None)
def _generator_squares(z_len: int, x_count: int, k: int) -> tuple:
    """Per generating map phi: s -> t, (s, t, the gather of ``rows[t]`` at
    phi's composites on Z, phi's composites on X)."""
    return tuple((s, t, itemgetter(*_composites(z_len, t, phi)),
                  _composites(x_count, t, phi))
                 for s, t, phi in _generating_maps(k))


def is_natural(tau: TauCandidate) -> Verdict:
    """Naturality over every probe morphism and every input.

    For each morphism phi: s -> t the squares tau_t(phi∘fn) ==
    phi∘tau_s(fn), one per fn, are decided by one comparison of two index
    sequences: ``rows[t]`` gathered at phi's composites on Z, and phi's
    composites on X gathered at ``rows[s]``.

    The squares of a composite follow from those of its factors, so when
    the probe sizes are 1..k the squares of ``_generating_maps(k)`` decide
    all of them (the generator lemma of the module docstring).  Only when
    a generator fails, or for other families, does the loop over every
    morphism run; on failure the witness is the first (s, t, phi, fn) of
    that loop in lexicographic order.
    """
    sizes = tau.probes.sizes
    k = len(sizes)
    if max(sizes) == k:  # distinct positive sizes, so exactly 1..k
        rows = tau.rows
        if all(on_z(rows[t]) == itemgetter(*rows[s])(on_x)
               for s, t, on_z, on_x in _generator_squares(len(tau.z_ground),
                                                          tau.x_count, k)):
            return Verdict.ok()
        verdict = _first_broken_square(tau)
        if verdict:
            raise InternalCheckError("a generating map's square failed where no "
                                     "square does")
        return verdict
    return _first_broken_square(tau)


def _first_broken_square(tau: TauCandidate) -> Verdict:
    """The square-by-square loop over every morphism phi: s -> t."""
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
    point of the j-th filter.  Z is range(n) for the highest element n - 1
    of the filters' ground, so a ground ``(1 << n) - 1`` is all of Z.
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
    z_ground = tuple(range(ground.bit_length()))
    # an ultrafilter's kernel is one bit: the index of its point
    points = [f.kernel.bit_length() - 1 for f in filters]
    x_count = len(filters)
    rows = {}
    for s in probes.sizes:
        # output digit j, worth s ** (x_count - 1 - j), copies input digit
        # points[j]; rows grow one input digit at a time, like the inputs
        row = [0]
        for z in z_ground:
            weight = sum(s ** (x_count - 1 - j) for j, p in enumerate(points) if p == z)
            row = [i + v * weight for i in row for v in range(s)]
        rows[s] = tuple(row)
    return TauCandidate(z_ground, x_count, probes, rows)


def kernel_from_tau(tau: TauCandidate) -> tuple[Filter, ...]:
    """Extract the kernel: evaluate at the tautological input of the
    ultrafilter probe (the probe of size |Z|, indexed like Z itself).  The
    i-th point of Z is element i of the ground mask ``(1 << |Z|) - 1``.

    Extraction does not require naturality; on a non-natural candidate the
    round trip simply fails.
    """
    z_len = len(tau.z_ground)
    if z_len not in tau.probes.sizes:
        raise ValueError("probe family lacks the ultrafilter probe of Z")
    tautological = tuple(range(z_len))
    assignment = tau.value(z_len, tautological)
    return tuple(principal_ultrafilter((1 << z_len) - 1, i) for i in assignment)


def _search_order(z_len: int, sizes) -> list[tuple[int, int]]:
    """The entries (s, i) in the order the search branches on them: most
    distinct values in the input i first, ties by (s, i)."""
    return sorted(((s, i) for s in sizes for i in range(s ** z_len)),
                  key=lambda e: (-len(set(all_functions(z_len, e[0])[e[1]])), e))


def _forcings(z_len: int, x_count: int, sizes) -> dict:
    """Per size s, one (t, on_z, on_x) per probe map phi: s -> t: setting
    ``rows[s][i]`` to v forces ``rows[t][on_z[i]]`` to ``on_x[v]``."""
    return {s: [(t, on_z, on_x) for t in sizes
                for on_z, on_x in zip(composite_indices(z_len, s, t),
                                      composite_indices(x_count, s, t))]
            for s in sizes}


def enumerate_natural(z_ground, x_count: int,
                      probes: ProbeFamily) -> tuple[list[TauCandidate], int]:
    """All natural candidates, and the number of search nodes visited.

    One ``search`` over the entries ``rows[s][i]``, end to end by size, in
    ``_search_order``.  Setting an entry forces, through each probe map
    phi: s -> t, the entry at phi∘(input i) to phi∘(the value).  The maps
    are closed under composition, so one pass is the fixed point, and a
    complete assignment that fails ``is_natural`` is an internal error.
    """
    z_ground = tuple(z_ground)
    z_len = len(z_ground)
    sizes = probes.sizes
    maps = _forcings(z_len, x_count, sizes)
    start = dict(zip(sizes, accumulate((s ** z_len for s in sizes), initial=0)))
    entries = [(s, i) for s in sizes for i in range(s ** z_len)]
    solutions, nodes = search(
        [range(s ** x_count) for s, _ in entries],
        lambda values, k: [(start[t] + on_z[entries[k][1]], on_x[values[k]])
                           for t, on_z, on_x in maps[entries[k][0]]],
        [start[s] + i for s, i in _search_order(z_len, sizes)])
    candidates = [TauCandidate(z_ground, x_count, probes,
                               {s: flat[start[s]:start[s] + s ** z_len] for s in sizes})
                  for flat in solutions]
    if not all(map(is_natural, candidates)):
        raise InternalCheckError("the search kept a candidate that is not natural")
    return candidates, nodes


@dataclass(frozen=True)
class YonedaReport:
    z_size: int
    x_size: int
    probe_sizes: tuple[int, ...]
    search_nodes: int
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
        return {**asdict(self), "probe_sizes": list(self.probe_sizes),
                "all_pass": self.all_pass}


def yoneda_roundtrip(z_size: int, x_size: int) -> YonedaReport:
    """Count the natural candidates and verify both round trips.

    The candidate count must be |Z|^|X|; extraction must biject onto the
    pointwise-ultrafilter kernels; and the two composites must be
    identities.  The candidates come from ``enumerate_natural``, which
    knows nothing of kernels, so each check can fail on its own.  Each
    kernel's candidate is built once per call and shared by both round
    trips; ``roundtrip_candidates_ok`` compares it with a search candidate
    that passed ``is_natural``, so it also catches a kernel construction
    that is not natural.
    """
    z_ground = tuple(range(z_size))
    probes = default_probes(z_size)
    induced = cache(lambda filters: tau_from_kernel(filters, probes))
    candidates, search_nodes = enumerate_natural(z_ground, x_size, probes)
    expected = z_size ** x_size

    extracted = sorted(tuple(f.kernel.bit_length() - 1 for f in kernel_from_tau(tau))
                       for tau in candidates)
    every_kernel = sorted(product(z_ground, repeat=x_size))
    bijection_ok = extracted == every_kernel
    roundtrip_candidates_ok = all(
        induced(kernel_from_tau(tau)).rows == tau.rows for tau in candidates)
    kernels = (tuple(principal_ultrafilter((1 << z_size) - 1, p) for p in points)
               for points in every_kernel)
    roundtrip_kernels_ok = all(kernel_from_tau(induced(filters)) == filters
                               for filters in kernels)
    return YonedaReport(z_size, x_size, probes.sizes, search_nodes, len(candidates),
                        expected, bijection_ok, roundtrip_candidates_ok,
                        roundtrip_kernels_ok)


# ---------------------------------------------------------------------------
# The ultrafilter space and the underlying-set adjunction.
# ---------------------------------------------------------------------------

def beta_space(ground: int) -> tuple[Filter, ...]:
    """The points of the ultrafilter space of a finite ground mask: its
    principal ultrafilters, in element order.  The space is discrete."""
    if not ground:
        raise ValueError("empty ground has no ultrafilters")
    return tuple(principal_ultrafilter(ground, q) for q in bits(ground))


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
    x_ground = (1 << x_size) - 1
    bx = beta_space(x_ground)
    delta_index = {pt: i for i, pt in enumerate(bx)}

    def forward(g: tuple[int, ...], codomain_size: int) -> tuple[int, ...]:
        out = []
        for u in bx:
            image = direct_image(lambda x: g[x], u, (1 << codomain_size) - 1)
            val = limit_along(image, lambda p: p)
            if val is None:
                raise InternalCheckError("ultrafilter image has no limit")
            out.append(val)
        return tuple(out)

    def backward(h: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(h[delta_index[principal_ultrafilter(x_ground, x)]]
                     for x in range(x_size))

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
