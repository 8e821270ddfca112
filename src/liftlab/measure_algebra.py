"""The quotient algebra of a finite measure space and its set transforms.

A set transform is a total table over all 2^n subsets.  Nine checkable
properties classify transforms, each decided at most once per transform;
the bundles "lower density" and "lifting" are conjunctions of them, and
they and the two implications read the verdicts decided.  The passage
from a lower density to a lifting swaps the transform for a point-indexed
family of set systems, refines each to an ultrafilter, and swaps back.

The lattice predicates are decided by structure lemmas on finite
powersets, in O(2^n) steps instead of the O(4^n) pair loops: a map that
preserves binary unions is determined by the images of the singletons
(dually for intersections, over the complements of singletons), and an
image depends only on the a.e. class iff every set has the image of its
positive part.  The lemma decides; only when it says "fails" does the
exhaustive pair loop run, to find the same first witness as always.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import reduce
from itertools import product
from operator import and_
import random

from .filter_calculus import filter_from_base, ultrafilter_refine
from .measure_space import MeasureSpace, bits
from .verdict import ENUMERATION_CAP, CapacityError, InternalCheckError, Verdict


class TransformProperty(Enum):
    PRESERVES_MEASURABLE_SETS = "preserves_measurable_sets"
    PRESERVES_AMBIENT_SPACE = "preserves_ambient_space"
    PRESERVES_INTERSECTIONS = "preserves_intersections"
    AE_IDENTITY = "ae_identity"
    PRESERVES_EMPTY_SET = "preserves_empty_set"
    CLASS_DETERMINED = "class_determined"
    COMMUTES_WITH_COMPLEMENT = "commutes_with_complement"
    PRESERVES_UNIONS = "preserves_unions"
    NULL_CLASS_DETERMINED = "null_class_determined"


#: A lower density preserves the space, the empty set, and intersections,
#: is an a.e. identity, and depends only on a.e. classes.
LOWER_DENSITY_PROPERTIES = (
    TransformProperty.PRESERVES_AMBIENT_SPACE,
    TransformProperty.PRESERVES_EMPTY_SET,
    TransformProperty.PRESERVES_INTERSECTIONS,
    TransformProperty.AE_IDENTITY,
    TransformProperty.CLASS_DETERMINED,
)

#: A lifting is a lower density that also preserves unions.
LIFTING_PROPERTIES = LOWER_DENSITY_PROPERTIES + (TransformProperty.PRESERVES_UNIONS,)


@dataclass(frozen=True)
class SetTransform:
    """A total map set -> set over one space, stored as a 2^n table, with
    the verdict of each property ``check_property`` has decided on it."""

    space: MeasureSpace
    table: tuple[int, ...]
    verdicts: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        if len(self.table) != self.space.full_mask + 1:
            raise ValueError("transform table must have one entry per subset")
        for q, v in enumerate(self.table):
            if not 0 <= v <= self.space.full_mask:
                raise ValueError(f"entry {v} at input {q} is not a valid set")

    def __call__(self, q: int) -> int:
        return self.table[self.space.check_set(q)]


def _check_pms(t: SetTransform) -> Verdict:
    # Every subset is measurable here; the table validation is the check.
    return Verdict.ok("powerset sigma-algebra: images are measurable by construction")


def _check_pas(t: SetTransform) -> Verdict:
    full = t.space.full_mask
    if t.table[full] != full:
        return Verdict.fail(full, "image of the ambient space is not the ambient space")
    return Verdict.ok()


def _check_pes(t: SetTransform) -> Verdict:
    if t.table[0] != 0:
        return Verdict.fail(0, "image of the empty set is not empty")
    return Verdict.ok()


def _first(failures) -> Verdict:
    """The first failure of an exhaustive loop, run once a lemma has
    refuted the property; a loop that finds none means the lemma is wrong."""
    v = next(failures, None)
    if v is None:
        raise InternalCheckError("a structure lemma refuted what its loop confirms")
    return v


def _check_pfi(t: SetTransform) -> Verdict:
    # Lemma (dual of _check_pfu's): meets are preserved iff, for every set
    # q but the ambient one, with z the lowest atom outside q,
    # tab[q] == tab[q | z] & tab[full ^ z].
    tab = t.table
    full = len(tab) - 1
    if all(tab[q] == tab[q | (z := ~q & (q + 1))] & tab[full ^ z] for q in range(full)):
        return Verdict.ok()
    return _first(Verdict.fail((q, r), "intersection not preserved")
                  for q in range(len(tab)) for r in range(len(tab))
                  if tab[q & r] != tab[q] & tab[r])


def _check_pfu(t: SetTransform) -> Verdict:
    # Lemma: unions are preserved iff, for every nonempty q with lowest
    # atom low, tab[q] == tab[q ^ low] | tab[low].  On singletons this says
    # tab[0] lies in every singleton's image; on the rest, by induction,
    # that every image is the union of its singletons' images.
    tab = t.table
    if all(tab[q] == tab[q ^ (low := q & -q)] | tab[low] for q in range(1, len(tab))):
        return Verdict.ok()
    return _first(Verdict.fail((q, r), "union not preserved")
                  for q in range(len(tab)) for r in range(len(tab))
                  if tab[q | r] != tab[q] | tab[r])


def _check_aei(t: SetTransform) -> Verdict:
    # a.e. equal: the symmetric difference misses every positive atom
    pos = t.space.pos_mask
    for q, v in enumerate(t.table):
        if (q ^ v) & pos:
            return Verdict.fail(q, "image differs from input on a non-null set")
    return Verdict.ok()


def _check_spmc(t: SetTransform) -> Verdict:
    # Image must depend only on the a.e. class of the input.  Lemma: it
    # does iff every set has the image of its positive part, the one
    # member of its class the two share.
    tab = t.table
    pos = t.space.pos_mask
    if all(tab[q] == tab[q & pos] for q in range(len(tab))):
        return Verdict.ok()
    return _first(Verdict.fail((q, r), "a.e.-equal inputs have different images")
                  for q in range(len(tab)) for r in range(q + 1, len(tab))
                  if (q ^ r) & pos == 0 and tab[q] != tab[r])


def _check_cwtc(t: SetTransform) -> Verdict:
    full = t.space.full_mask
    for q, v in enumerate(t.table):
        if t.table[full ^ q] != full ^ v:
            return Verdict.fail(q, "complement not preserved")
    return Verdict.ok()


def _check_spmcns(t: SetTransform) -> Verdict:
    # null: disjoint from the positive atoms
    tab = t.table
    pos = t.space.pos_mask
    for q, v in enumerate(tab):
        if not q & pos and v != tab[0]:
            return Verdict.fail(q, "null input does not share the empty set's image")
    return Verdict.ok()


_CHECKERS = {
    TransformProperty.PRESERVES_MEASURABLE_SETS: _check_pms,
    TransformProperty.PRESERVES_AMBIENT_SPACE: _check_pas,
    TransformProperty.PRESERVES_INTERSECTIONS: _check_pfi,
    TransformProperty.AE_IDENTITY: _check_aei,
    TransformProperty.PRESERVES_EMPTY_SET: _check_pes,
    TransformProperty.CLASS_DETERMINED: _check_spmc,
    TransformProperty.COMMUTES_WITH_COMPLEMENT: _check_cwtc,
    TransformProperty.PRESERVES_UNIONS: _check_pfu,
    TransformProperty.NULL_CLASS_DETERMINED: _check_spmcns,
}


def check_property(transform: SetTransform, prop: TransformProperty) -> Verdict:
    """Exhaustively check one property, once per transform: the bundles
    and implications below read the verdicts already decided.  Failures
    carry a concrete witness."""
    v = transform.verdicts.get(prop)
    if v is None:
        v = transform.verdicts[prop] = _CHECKERS[prop](transform)
    return v


def _check_bundle(transform: SetTransform, props) -> Verdict:
    for prop in props:
        v = check_property(transform, prop)
        if not v:
            return Verdict.fail(v.witness, f"{prop.value}: {v.reason}")
    return Verdict.ok()


def is_lower_density(transform: SetTransform) -> Verdict:
    return _check_bundle(transform, LOWER_DENSITY_PROPERTIES)


def is_lifting(transform: SetTransform) -> Verdict:
    """Lower density + union preservation.

    On success this also asserts two consequences that are theorems for
    liftings: commutation with the complement, and idempotence of the
    table.  Their failure would mean the checkers are broken.
    """
    v = _check_bundle(transform, LIFTING_PROPERTIES)
    if not v:
        return v
    if not check_property(transform, TransformProperty.COMMUTES_WITH_COMPLEMENT):
        raise InternalCheckError("lifting does not commute with complement")
    for q, image in enumerate(transform.table):
        if transform.table[image] != image:
            raise InternalCheckError(f"lifting is not idempotent at input {q}")
    return Verdict.ok()


@dataclass(frozen=True)
class ImplicationResult:
    premises: tuple[str, ...]
    conclusion: str
    status: str  # vacuous | satisfied | violated

    def to_dict(self) -> dict:
        return {"premises": list(self.premises), "conclusion": self.conclusion,
                "status": self.status}


def _run_implication(transform, premises, conclusion) -> ImplicationResult:
    names = tuple(p.value for p in premises)
    if not all(check_property(transform, p) for p in premises):
        return ImplicationResult(names, conclusion.value, "vacuous")
    status = "satisfied" if check_property(transform, conclusion) else "violated"
    return ImplicationResult(names, conclusion.value, status)


def implication_suite(transform: SetTransform) -> tuple[ImplicationResult, ...]:
    """Confirm the two property implications on a concrete transform.

    Both are theorems, so a "violated" status signals an internal error in
    the checkers rather than a fact about the input.
    """
    first = _run_implication(
        transform,
        (TransformProperty.NULL_CLASS_DETERMINED,
         TransformProperty.COMMUTES_WITH_COMPLEMENT,
         TransformProperty.PRESERVES_INTERSECTIONS,
         TransformProperty.PRESERVES_EMPTY_SET,
         TransformProperty.PRESERVES_UNIONS),
        TransformProperty.CLASS_DETERMINED,
    )
    second = _run_implication(
        transform,
        (TransformProperty.COMMUTES_WITH_COMPLEMENT,
         TransformProperty.PRESERVES_INTERSECTIONS),
        TransformProperty.PRESERVES_UNIONS,
    )
    return first, second


# ---------------------------------------------------------------------------
# The quotient algebra.
# ---------------------------------------------------------------------------

def project(space: MeasureSpace, q: int) -> int:
    """Class of a set in the quotient: its trace on the positive atoms."""
    return space.check_set(q) & space.pos_mask


def algebra_classes(space: MeasureSpace) -> tuple[int, ...]:
    """All quotient classes, as subsets of the positive atoms, ascending."""
    return tuple(c for c in range(space.full_mask + 1) if c & space.null_mask == 0)


def class_complement(space: MeasureSpace, c: int) -> int:
    return space.pos_mask ^ c


@dataclass(frozen=True)
class BooleanHom:
    """A total table from quotient classes back to sets."""

    space: MeasureSpace
    table: dict  # class mask -> set mask

    def __post_init__(self):
        expected = set(algebra_classes(self.space))
        if set(self.table) != expected:
            raise ValueError("table must cover exactly the quotient classes")
        for c, v in self.table.items():
            self.space.check_set(v)

    def __call__(self, c: int) -> int:
        return self.table[c]


def _hom_failures(rho: BooleanHom, classes):
    for c in classes:
        for d in classes:
            if rho(c | d) != rho(c) | rho(d):
                yield Verdict.fail((c, d), "join not preserved")
            if rho(c & d) != rho(c) & rho(d):
                yield Verdict.fail((c, d), "meet not preserved")


def is_boolean_homomorphism(rho: BooleanHom) -> Verdict:
    """Preservation of bottom, top, join, meet, and complement.

    Lemma: with bottom and complements preserved, joins are preserved iff
    every class is the join of its atoms' images (as in ``_check_pfu``),
    and meets then follow by De Morgan.  The pair loop over all classes
    runs only to find the first witness once the lemma fails.
    """
    space = rho.space
    classes = algebra_classes(space)
    if rho(0) != 0:
        return Verdict.fail(0, "bottom class not sent to the empty set")
    if rho(space.pos_mask) != space.full_mask:
        return Verdict.fail(space.pos_mask, "top class not sent to the ambient space")
    for c in classes:
        if rho(class_complement(space, c)) != space.full_mask ^ rho(c):
            return Verdict.fail(c, "complement not preserved")
    if all(rho(c) == rho(c ^ (low := c & -c)) | rho(low) for c in classes[1:]):
        return Verdict.ok()
    return _first(_hom_failures(rho, classes))


def is_right_inverse(rho: BooleanHom) -> Verdict:
    """Projecting back must be the identity on every class."""
    for c in algebra_classes(rho.space):
        if project(rho.space, rho(c)) != c:
            return Verdict.fail(c, "projection of the section is not the identity")
    return Verdict.ok()


def lifting_to_right_inverse(lifting: SetTransform) -> BooleanHom:
    """The hom induced on classes: well defined because the lifting is
    class-determined, and a section because it is an a.e. identity.  The
    input must be a lifting, which ``verify_theorem1`` decides just before."""
    space = lifting.space
    return BooleanHom(space, {c: lifting.table[c] for c in algebra_classes(space)})


# ---------------------------------------------------------------------------
# Liftings as retractions onto the positive atoms.
# ---------------------------------------------------------------------------

def lifting_from_retraction(space: MeasureSpace, g) -> SetTransform:
    """The transform Q |-> preimage of Q's positive part under ``g``.

    ``g`` must fix every positive atom and send every null atom to a
    positive one.  That such tables are exactly the liftings is an
    implementation theorem, validated against brute force in the tests.
    """
    g = tuple(g)
    if len(g) != space.n:
        raise ValueError("retraction must be defined on every atom")
    for x, gx in enumerate(g):
        if not (space.pos_mask >> gx) & 1:
            raise ValueError(f"retraction sends atom {x} to a null atom")
        if (space.pos_mask >> x) & 1 and gx != x:
            raise ValueError(f"retraction moves the positive atom {x}")
    return _preimage_transform(space, g)


def _preimage_transform(space: MeasureSpace, g) -> SetTransform:
    """The transform Q |-> {x : g(x) in Q}, built by lowest bit: the
    preimage of Q is that of Q without its lowest atom p, joined with
    pre[p] = {x : g(x) = p}."""
    pre = [0] * space.n
    for x, gx in enumerate(g):
        pre[gx] |= 1 << x
    table = [0] * (space.full_mask + 1)
    for q in range(1, space.full_mask + 1):
        low = q & -q
        table[q] = table[q ^ low] | pre[low.bit_length() - 1]
    return SetTransform(space, tuple(table))


def lifting_retraction(lifting: SetTransform) -> tuple[int, ...]:
    """Recover the retraction: g(x) is the positive atom whose singleton
    image contains x."""
    space = lifting.space
    g = []
    for x in range(space.n):
        hits = [p for p in bits(space.pos_mask) if (lifting.table[1 << p] >> x) & 1]
        if len(hits) != 1:
            raise ValueError("transform is not induced by a retraction")
        g.append(hits[0])
    return tuple(g)


def refuse_lifting_entries_over(space: MeasureSpace, cap: int,
                                name: str = "cap") -> None:
    """p positive and m null atoms give p^m liftings of 2^n entries each;
    past ``cap`` entries in all, raise ``CapacityError``, naming the cap."""
    p, m = space.pos_mask.bit_count(), space.null_mask.bit_count()
    entries = p ** m * (space.full_mask + 1)
    if entries > cap:
        raise CapacityError(f"{p}^{m} liftings of 2^{space.n} entries each are "
                            f"{entries} entries, over the {name} of {cap}")


def enumerate_liftings(space: MeasureSpace) -> list[SetTransform]:
    """All liftings, via the retraction characterization, in the
    lexicographic order of the null atoms' images.

    Past ``ENUMERATION_CAP`` entries in all the liftings' tables this
    raises ``CapacityError`` before it builds any table."""
    refuse_lifting_entries_over(space, ENUMERATION_CAP)
    pos = list(bits(space.pos_mask))
    nulls = list(bits(space.null_mask))
    out = []
    for choice in product(pos, repeat=len(nulls)):
        g = list(range(space.n))
        for atom, target in zip(nulls, choice):
            g[atom] = target
        out.append(lifting_from_retraction(space, g))
    return out


def brute_force_liftings(space: MeasureSpace) -> list[SetTransform]:
    """Independent oracle: enumerate every total set transform and keep the
    liftings.

    Of the ``(2^n)^(2^n)`` tables only those that meet the entrywise parts
    of the lifting definition are generated: the empty set and the ambient
    space are fixed, and every other set maps to its positive part plus any
    set of null atoms (a.e. identity).  Each candidate then gets the full
    predicate, so the result equals filtering every table by ``is_lifting``.
    """
    size = space.full_mask + 1
    if size ** size > 1 << 24:
        raise CapacityError(f"(2^{space.n})^(2^{space.n}) tables is too many "
                            "for full enumeration")
    nulls = [m for m in range(size) if not m & space.pos_mask]
    choices = [[(q & space.pos_mask) | m for m in nulls] for q in range(size)]
    choices[0], choices[-1] = [0], [space.full_mask]
    found = [t for t in (SetTransform(space, table) for table in product(*choices))
             if is_lifting(t)]
    found.sort(key=lambda t: t.table)
    return found


def sampled_lifting_oracle(space: MeasureSpace, liftings: list[SetTransform],
                           samples: int, seed: int = 0) -> Verdict:
    """Spot-check the retraction characterization on a large space.

    ``liftings`` is the caller's ``enumerate_liftings(space)``.  Each must
    pass the lifting predicate; then random tables drawn from the entrywise
    a.e.-identity family (the only candidates that can possibly be
    liftings) must pass it exactly when they are among ``liftings``.
    """
    rng = random.Random(seed)
    enumerated = {t.table for t in liftings}
    for t in liftings:
        if not is_lifting(t):
            return Verdict.fail(t.table, "enumerated transform fails the predicate")
    null_bits = list(bits(space.null_mask))
    for _ in range(samples):
        table = []
        for q in range(space.full_mask + 1):
            extra = sum(1 << b for b in null_bits if rng.random() < 0.5)
            table.append((q & space.pos_mask) | extra)
        t = SetTransform(space, tuple(table))
        if bool(is_lifting(t)) != (t.table in enumerated):
            return Verdict.fail(t.table, "predicate disagrees with enumeration")
    return Verdict.ok(f"{samples} sampled tables agree with the enumeration")


def lower_density_to_lifting(density: SetTransform) -> SetTransform:
    """Extend a lower density to a lifting.

    Point by point, the sets whose image contains the point form a
    nonempty intersection-closed family; refine the filter it generates to
    an ultrafilter (deterministically) and read the result back as a set
    transform.  The output is sandwiched between the input and the
    complement-dual of the input; that it is a lifting is left to the
    caller (``verify_theorem1`` reports it).  The input must be a lower
    density, which ``verify_theorem1`` decides just before; on another table
    a broken point family or sandwich raises ``InternalCheckError``.
    """
    space, tab = density.space, density.table
    # Lemma: a family that is up-closed and holds its meet is closed under
    # intersections.  Every point's family is up-closed iff the table is
    # monotone; the pair loop runs only where this does not settle it.
    monotone = all(tab[q] & ~tab[q | 1 << i] == 0
                   for q in range(space.full_mask + 1) for i in range(space.n))
    target = []
    for x in range(space.n):
        family = [q for q in range(space.full_mask + 1) if (tab[q] >> x) & 1]
        if not family:
            raise InternalCheckError(f"point {x} has an empty set family")
        meet = reduce(and_, family)
        if not (monotone and (tab[meet] >> x) & 1):
            fam_set = set(family)
            if any(a & b not in fam_set for a in family for b in family):
                raise InternalCheckError("set family is not intersection-closed")
        if not meet:
            raise InternalCheckError(f"point {x} has an improper filter: empty meet")
        refined = ultrafilter_refine(filter_from_base(space.full_mask, family))
        target.append(refined.kernel.bit_length() - 1)
    lifted = _preimage_transform(space, target)
    full = space.full_mask
    for q in range(full + 1):
        if density.table[q] & ~lifted.table[q]:
            raise InternalCheckError("output not above the input density")
        if lifted.table[q] & density.table[full ^ q]:
            raise InternalCheckError("output not below the input's complement dual")
    return lifted
