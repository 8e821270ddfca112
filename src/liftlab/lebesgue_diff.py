"""Mean-value transforms, filter-kernel limit operators, and the two-way
bridge between differentiating kernels and liftings.

The mean-value transform of an integrable function records its average
over every set of positive measure.  A filter kernel (one filter on those
sets per point) turns such a transform back into a partial function by
taking limits; a kernel "differentiates" when this recovers every
function almost everywhere.  Both directions of the equivalence with
liftings are implemented and re-checked on concrete spaces.

Each stage reads the measure space from the object it is given (a
function, a transform, a kernel, a lifting).  Two objects meet only in
``limiting_operator``, which refuses a kernel and mean values on two spaces.

Mean values are computed on demand.  A transform's ``values`` is a
read-only mapping over the averageable sets that computes and caches one
mean when it is first read, so a limit along a kernel costs one mean per
member of the kernel, not one per averageable set.  Its length and its
keys come from ``averageable_sets`` and cost no arithmetic.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
import random

from .filter_calculus import (Filter, direct_image, is_directed, limit_along,
                              tail_filter)
from .measure_space import (MeasureSpace, PartialFn, averageable_code,
                            averageable_sets, bits, indicator,
                            on_common_denominator, total_fn)
from .measure_algebra import (SetTransform, enumerate_liftings, is_lifting,
                              is_boolean_homomorphism, is_lower_density,
                              is_right_inverse, lifting_retraction,
                              lifting_to_right_inverse, lower_density_to_lifting,
                              refuse_lifting_entries_over)
from .verdict import THEOREM1_BUDGET, InternalCheckError, Verdict


class MeanValues(Mapping):
    """The mean values of one function, keyed by the averageable sets and
    computed on first read; any other key raises ``KeyError``.

    The weights stay `Fraction`s, but a mean is summed on integers: each
    atom's mass is f's value times the lcm ``den`` of f's denominators
    times the atom's ``units``, so the mean over q is the one `Fraction`
    Σ mass / (den · Σ units), both sums over the atoms of q."""

    def __init__(self, f: PartialFn):
        space = self._space = f.space
        # 0 off the domain, which is null
        scaled, self._den = on_common_denominator(f.values)
        self._mass = tuple(v * u for v, u in zip(scaled, space.units))
        self._means: dict[int, Fraction] = {}

    def __getitem__(self, q: int) -> Fraction:
        mean = self._means.get(q)
        if mean is None:
            space = self._space
            if not (isinstance(q, int) and 0 <= q <= space.full_mask
                    and q & space.pos_mask):
                raise KeyError(q)
            mass = self._mass
            units = space.units
            total = weight = 0
            for i in bits(q):
                total += mass[i]
                weight += units[i]
            mean = self._means[q] = Fraction(total, self._den * weight)
        return mean

    def __iter__(self):
        return iter(averageable_sets(self._space))

    def __len__(self) -> int:
        return len(averageable_sets(self._space))


@dataclass(frozen=True)
class LebesgueTransform:
    """All mean values of one function, indexed by the averageable sets."""

    space: MeasureSpace
    values: Mapping  # averageable set mask -> Fraction, computed on demand

    def __call__(self, q: int) -> Fraction:
        return self.values[q]


@dataclass(frozen=True)
class FilterKernel:
    """One filter on the averageable sets per atom of the space."""

    space: MeasureSpace
    filters: tuple[Filter, ...]

    def __post_init__(self):
        if len(self.filters) != self.space.n:
            raise ValueError("need one filter per atom")
        ground = averageable_code(self.space)
        for f in self.filters:
            if f.ground != ground:
                raise ValueError("kernel filters must live on the averageable sets")


def lebesgue_transform(f: PartialFn) -> LebesgueTransform:
    """Mean values of an a.e.-defined function over every averageable set,
    each computed when it is first read.

    Undefined atoms are null, so they carry no mass: the transform only
    sees the a.e. class of ``f``.
    """
    if not f.defined_ae():
        raise ValueError("function must be defined almost everywhere")
    return LebesgueTransform(f.space, MeanValues(f))


def limiting_operator(kernel: FilterKernel, lam: LebesgueTransform) -> PartialFn:
    """Pointwise limits of ``lam`` along the kernel's filters.

    The domain is exactly the set of points where the limit exists; an
    empty domain is legal.  Means on another space raise ``ValueError``.
    """
    if lam.space != kernel.space:
        raise ValueError("kernel and mean values live on different spaces")
    return PartialFn(kernel.space, tuple(limit_along(f, lam) for f in kernel.filters))


def recovers(kernel: FilterKernel, f: PartialFn) -> Verdict:
    """Exact a.e. recovery of one function from its mean values."""
    g = limiting_operator(kernel, lebesgue_transform(f))
    for x in bits(kernel.space.pos_mask):
        if not g.defined_at(x):
            return Verdict.fail(x, "limit undefined at a positive atom")
        if g(x) != f(x):
            return Verdict.fail(x, f"recovered {g(x)} instead of {f(x)}")
    return Verdict.ok()


def differentiates(kernel: FilterKernel) -> Verdict:
    """Does the kernel's limit operator invert the mean-value map?

    Checked on the indicator of each positive atom, in ascending order.
    Every function is almost everywhere a combination of those indicators,
    and means and limits along a filter are linear, so recovering them
    recovers every function; the reduction is validated against all
    indicators and randomized functions in the tests.
    """
    for x in bits(kernel.space.pos_mask):
        q = 1 << x
        v = recovers(kernel, indicator(kernel.space, q))
        if not v:
            return Verdict.fail((q, v.witness), f"indicator of {q:#b}: {v.reason}")
    return Verdict.ok()


def lower_density_from_kernel(kernel: FilterKernel) -> SetTransform:
    """The set transform picking the points where a set's indicator
    averages to 1 in the limit.  The kernel must differentiate, which
    ``verify_theorem1`` decides just before."""
    space = kernel.space
    table = []
    for q in range(space.full_mask + 1):
        g = limiting_operator(kernel, lebesgue_transform(indicator(space, q)))
        table.append(sum(1 << x for x in bits(g.domain) if g(x) == 1))
    return SetTransform(space, tuple(table))


def basis_from_lifting(lifting: SetTransform) -> tuple[tuple[int, ...], ...]:
    """Averageable fixed points of a lifting, as one family per atom (the
    members that contain it), each verified to be directed.

    The support needs no check: an a.e. identity puts each positive atom x
    in ρ({x}), and ρ(ρ({x})) = ρ({x}) as the two arguments are a.e. equal,
    so some fixed averageable set holds x."""
    v = is_lifting(lifting)
    if not v:
        raise ValueError(f"not a lifting: {v.reason} (witness {v.witness})")
    space = lifting.space
    fixed = tuple(q for q in averageable_sets(space) if lifting.table[q] == q)
    families = []
    for x in range(space.n):
        fam = tuple(q for q in fixed if (q >> x) & 1)
        families.append(fam)
        if fam:
            ok, witness = is_directed(fam)
            if not ok:
                raise InternalCheckError(
                    f"family at point {x} is not directed: {witness}")
    return tuple(families)


def kernel_from_lifting(lifting: SetTransform) -> FilterKernel:
    """Tail filters of the lifting's basis, pushed onto the averageable
    sets.  A lifting fixes the whole space, which is averageable, so every
    point's family holds it and has a tail filter."""
    space = lifting.space
    ground = averageable_code(space)
    return FilterKernel(space, tuple(direct_image(lambda q: q, tail_filter(fam), ground)
                                     for fam in basis_from_lifting(lifting)))


#: The theorem-1 statements of one lifting, in the order they are decided.
STATEMENTS = ("differentiates", "lower_density", "lifting",
              "boolean_homomorphism", "right_inverse")


@dataclass(frozen=True)
class TheoremOneEntry:
    retraction: tuple[int, ...]
    verdicts: tuple[Verdict, ...]  # one per STATEMENTS entry
    round_trip_identity: bool

    @property
    def passed(self) -> bool:
        return all(self.verdicts) and self.round_trip_identity

    def to_dict(self) -> dict:
        return {"retraction": list(self.retraction),
                **{name: v.to_dict() for name, v in zip(STATEMENTS, self.verdicts)},
                "round_trip_identity": self.round_trip_identity}


@dataclass(frozen=True)
class TheoremOneReport:
    space: MeasureSpace
    entries: tuple[TheoremOneEntry, ...]

    @property
    def all_pass(self) -> bool:
        return all(e.passed for e in self.entries)

    @property
    def round_trips_identical(self) -> bool:
        return all(e.round_trip_identity for e in self.entries)

    def to_dict(self) -> dict:
        return {
            "weights": [str(w) for w in self.space.weights],
            "lifting_count": len(self.entries),
            "entries": [e.to_dict() for e in self.entries],
            "all_pass": self.all_pass,
            "round_trips_identical": self.round_trips_identical,
        }


#: The verdict of a statement left undecided because an earlier one failed.
NOT_REACHED = Verdict.fail(None, "not reached: an earlier statement failed")


def _theorem1_stages(lifting: SetTransform, facts: dict):
    """Yield the statements' verdicts for one lifting, in STATEMENTS order;
    each stage consumes the one before, so the caller stops at a failure.
    Whether the rebuilt lifting is the starting one goes into ``facts``."""
    kernel = kernel_from_lifting(lifting)
    yield differentiates(kernel)
    density = lower_density_from_kernel(kernel)
    yield is_lower_density(density)
    rebuilt = lower_density_to_lifting(density)
    facts["round_trip"] = rebuilt.table == lifting.table
    yield is_lifting(rebuilt)
    rho = lifting_to_right_inverse(rebuilt)
    yield is_boolean_homomorphism(rho)
    yield is_right_inverse(rho)


def verify_theorem1(space: MeasureSpace) -> TheoremOneReport:
    """Both directions of the lifting/limit-operator equivalence.

    For every lifting: its kernel differentiates (one direction); from
    that kernel, rebuild a density, extend it to a lifting, and read off a
    Boolean-algebra section of the projection (the other direction).  Also
    records whether the round trip lands on the starting lifting.

    Each statement is evaluated here, once per lifting; no stage evaluates
    one again, as its precondition is the statement decided just before.
    A failing statement is reported with its witness, not raised; the later
    ones read ``NOT_REACHED``, and ``all_pass`` is false, as it is when a
    round trip lands elsewhere.

    Past ``THEOREM1_BUDGET`` entries in all the liftings' tables this
    raises ``CapacityError`` before it enumerates anything.
    """
    refuse_lifting_entries_over(space, THEOREM1_BUDGET, "theorem-1 budget")
    entries = []
    for lifting in enumerate_liftings(space):
        facts: dict = {}
        verdicts = []
        for verdict in _theorem1_stages(lifting, facts):
            verdicts.append(verdict)
            if not verdict:
                break
        verdicts += [NOT_REACHED] * (len(STATEMENTS) - len(verdicts))
        entries.append(TheoremOneEntry(lifting_retraction(lifting), tuple(verdicts),
                                       facts.get("round_trip", False)))
    return TheoremOneReport(space, tuple(entries))


def random_total_fn(space: MeasureSpace, rng: random.Random) -> PartialFn:
    """Numerators in [-50, 50] over denominators in [1, 12], one per atom."""
    vals = [Fraction(rng.randint(-50, 50), rng.randint(1, 12))
            for _ in range(space.n)]
    return total_fn(space, vals)
