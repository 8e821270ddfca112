"""Finite categories as regular partial magmas, arrows only.

A category is stored as its arrow magma; ``classify`` decides its objects
(the units) and each arrow's dom and cod (its pins).  Twin arrows
(commuting squares) make the arrows of one category the objects of
another, and a transformation between two functors can be encoded either
arrow-indexed (a homomorphism into twin arrows under horizontal
multiplication) or object-indexed (classical components).  Both encodings
are kept as distinct types with explicit converters, because their
equivalence is one of the statements under test.  Functors and
arrow-indexed transformations are homomorphisms, found by
``partial_magma.search`` with a check that forces nothing; components
come from their literal definition.  The twin squares between two arrows
are searched once per category (``twin_hom_cases``), and derived
categories are tabulated by ``partial_magma.product_pm``."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import product

from .partial_magma import (PartialMagma, classify, hmul, matrix_magma,
                            nat_subtraction_magma, product_pm, search, vmul)
from .verdict import ENUMERATION_CAP, CapacityError, InternalCheckError, Verdict


@dataclass(frozen=True)
class FiniteCategory:
    """Arrows-only category: a regular partial magma, with objects, dom and
    cod read from its classification."""

    pm: PartialMagma
    objects: tuple[int, ...] = field(init=False, compare=False, repr=False)
    position: dict[int, int] = field(init=False, compare=False, repr=False)
    dom: tuple[int, ...] = field(init=False, compare=False, repr=False)
    cod: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        c = classify(self.pm)
        if not c.regular:
            detail = []
            if not c.unital:
                detail.append("no units")
            if not c.associative:
                detail.append(f"not associative (witness {c.assoc_witness})")
            if not c.fastened:
                detail.append(f"not fastened (witness {c.fastened_witness})")
            raise ValueError("not a category: " + "; ".join(detail))
        dom, cod = zip(*c.pins)
        object.__setattr__(self, "objects", c.units)
        object.__setattr__(self, "position", {u: i for i, u in enumerate(c.units)})
        object.__setattr__(self, "dom", dom)
        object.__setattr__(self, "cod", cod)

    @property
    def arrows(self) -> tuple[int, ...]:
        return tuple(range(self.pm.n))

    def compose(self, x: int, y: int) -> int | None:
        return self.pm.op(x, y)

    @cached_property
    def homs(self) -> dict[tuple[int, int], tuple[int, ...]]:
        """The arrows from u to v for every pair (u, v) of objects."""
        homs = {(u, v): [] for u in self.objects for v in self.objects}
        for x in self.arrows:
            homs[self.dom[x], self.cod[x]].append(x)
        return {uv: tuple(xs) for uv, xs in homs.items()}

    @cached_property
    def products(self) -> tuple[tuple[tuple[int, int, int], ...], ...]:
        """``products[m]``: every product p∘q = r whose largest member is m."""
        groups = [[] for _ in self.arrows]
        for p, row in enumerate(self.pm.table):
            for q, r in enumerate(row):
                if r is not None:
                    groups[max(p, q, r)].append((p, q, r))
        return tuple(map(tuple, groups))


def hom_set(cat: FiniteCategory, u: int, v: int) -> tuple[int, ...]:
    """Arrows from ``u`` to ``v``; hom-sets partition the arrows."""
    if (u, v) not in cat.homs:
        raise ValueError("hom-set endpoints must be objects")
    return cat.homs[u, v]


@dataclass(frozen=True)
class TwinArrow:
    """A commuting square: a pair of arrows from one arrow to another."""

    source: int
    target: int
    pair: tuple[int, int]


def is_twin_arrow(cat: FiniteCategory, x: int, y: int, pair: tuple[int, int]) -> bool:
    z1, z2 = pair
    left = cat.compose(z2, x)
    right = cat.compose(y, z1)
    return left is not None and right is not None and left == right


@lru_cache(maxsize=None)
def twin_hom_cases(cat: FiniteCategory, x: int, y: int) -> tuple[TwinArrow, ...]:
    """All twin arrows from ``x`` to ``y``, by exhaustive square search,
    run once per (category, x, y) however many callers read them."""
    return tuple(TwinArrow(x, y, pair) for pair in product(cat.arrows, repeat=2)
                 if is_twin_arrow(cat, x, y, pair))


@dataclass(frozen=True)
class TwinCategoryResult:
    category: FiniteCategory
    arrows: tuple[TwinArrow, ...]


def twin_category(cat: FiniteCategory) -> TwinCategoryResult:
    """The category whose objects are the arrows of ``cat`` and whose
    arrows are twin arrows, composed by vertical multiplication.  Its twin
    arrows are found first.  Reading the table as a category decides
    associativity by ``partial_magma``'s pin lemma, on the composable
    triples (x, y, z): source x = target y and source y = target z.  So
    their number, the sum over twin arrows y of #{x : source x = target y}
    * #{z : target z = source y}, above ``ENUMERATION_CAP`` raises
    ``CapacityError`` before anything is tabulated."""
    data = [t for x, y in product(cat.arrows, repeat=2)
            for t in twin_hom_cases(cat, x, y)]
    n = len(data)
    leaving = Counter(t.source for t in data)
    arriving = Counter(t.target for t in data)
    triples = sum(leaving[t.target] * arriving[t.source] for t in data)
    if triples > ENUMERATION_CAP:
        raise CapacityError(f"twin category too large: {n} twin arrows give {triples} "
                            f"composable triples, over the cap of {ENUMERATION_CAP}")

    def mul(a: TwinArrow, b: TwinArrow) -> TwinArrow | None:
        if b.target != a.source:
            return None
        prod = vmul(cat.pm, a.pair, b.pair)
        if prod is None:
            raise InternalCheckError("composable twin arrows failed to compose")
        return TwinArrow(b.source, a.target, prod)

    twin_cat = FiniteCategory(product_pm(data, mul))
    if len(twin_cat.objects) != cat.pm.n:
        raise InternalCheckError("twin category has the wrong object count")
    return TwinCategoryResult(twin_cat, tuple(data))


def hom_recapture(base: FiniteCategory, twin: TwinCategoryResult) -> Verdict:
    """The twin arrows that ``twin_category(base)`` found from an identity
    u to an identity v are exactly the pairs (x, x) for x in hom(u, v)."""
    for u, v in product(base.objects, repeat=2):
        found = sorted(t.pair for t in twin.arrows if (t.source, t.target) == (u, v))
        if found != [(x, x) for x in hom_set(base, u, v)]:
            return Verdict.fail((u, v), "twin arrows between identities are not the "
                                        "diagonal pairs of the hom-set")
    return Verdict.ok()


# ---------------------------------------------------------------------------
# Functors.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Functor:
    """A unital homomorphism of arrow magmas; the object action is its
    restriction to the units."""

    source: FiniteCategory
    target: FiniteCategory
    arrow_map: tuple[int, ...]

    def __call__(self, x: int) -> int:
        return self.arrow_map[x]


def _homomorphisms(c: FiniteCategory, candidates, mul) -> list[tuple]:
    """Every arrow map sending each arrow x of ``c`` into ``candidates[x]``
    and each product p∘q = r to values with mul(image p, image q) = image r,
    in the order of the product of the candidates.  ``search`` checks each
    product once its largest member has a value, and forces nothing."""
    checks = c.products
    return search(candidates, lambda image, x: () if all(
        mul(image[p], image[q]) == image[r] for p, q, r in checks[x]) else None)[0]


def enumerate_functors(c: FiniteCategory, d: FiniteCategory) -> tuple[Functor, ...]:
    """All functors c -> d, by one homomorphism search per object map.

    Each identity's one candidate is its object's image, and each other
    arrow x ranges over hom_d(F dom x, F cod x).  The functors come back
    sorted by arrow map.  ``ENUMERATION_CAP`` bounds, before any search,
    the number of object maps and the sum over object maps of the product
    of the candidate counts: the number of leaves without pruning.  Either
    one above the cap raises ``CapacityError``.
    """
    if len(d.objects) ** len(c.objects) > ENUMERATION_CAP:
        raise CapacityError("functor search space too large")

    searches, leaves = [], 0
    for images in product(d.objects, repeat=len(c.objects)):
        f = dict(zip(c.objects, images))
        pointwise = [(f[x],) if x in f else d.homs[f[c.dom[x]], f[c.cod[x]]] for x in c.arrows]
        if all(pointwise):  # an object map with an empty hom-set has no leaf
            searches.append(pointwise)
            leaves += math.prod(map(len, pointwise))
            if leaves > ENUMERATION_CAP:
                raise CapacityError("functor search space too large")
    found = [Functor(c, d, arrow_map) for pointwise in searches
             for arrow_map in _homomorphisms(c, pointwise, d.pm.op)]
    return tuple(sorted(found, key=lambda f: f.arrow_map))


# ---------------------------------------------------------------------------
# The two encodings of a transformation between functors.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NatHom:
    """Arrow-indexed encoding: each arrow is sent to a twin arrow between
    its two functor images, multiplicatively in the horizontal product."""

    source: Functor
    target: Functor
    assignment: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class NatTrans:
    """Object-indexed encoding: one component arrow per object, aligned
    with the object list of the source category."""

    source: Functor
    target: Functor
    components: tuple[int, ...]

    def component(self, u: int) -> int:
        return self.components[self.source.source.position[u]]


def _check_parallel(t: Functor, s: Functor):
    if t.source != s.source or t.target != s.target:
        raise ValueError("the two functors are not parallel")


def validate_nat_hom(alpha: NatHom) -> Verdict:
    t, s = alpha.source, alpha.target
    _check_parallel(t, s)
    c, d = t.source, t.target
    if len(alpha.assignment) != c.pm.n:
        return Verdict.fail(None, "assignment must cover every arrow")
    for x in c.arrows:
        if not is_twin_arrow(d, t(x), s(x), alpha.assignment[x]):
            return Verdict.fail(x, "value is not a twin arrow between the images")
    for x in c.arrows:
        for y in c.arrows:
            xy = c.compose(x, y)
            if xy is None:
                continue
            h = hmul(alpha.assignment[x], alpha.assignment[y])
            if h is None:
                return Verdict.fail((x, y), "horizontal product undefined")
            if h != alpha.assignment[xy]:
                return Verdict.fail((x, y), "not multiplicative")
    return Verdict.ok()


def validate_nat_trans(tau: NatTrans) -> Verdict:
    t, s = tau.source, tau.target
    _check_parallel(t, s)
    c, d = t.source, t.target
    if len(tau.components) != len(c.objects):
        return Verdict.fail(None, "need one component per object")
    for u in c.objects:
        comp = tau.component(u)
        if d.dom[comp] != t(u) or d.cod[comp] != s(u):
            return Verdict.fail(u, "component has the wrong endpoints")
    return _natural(tau)


def _natural(tau: NatTrans) -> Verdict:
    """The naturality squares alone, one per arrow of the source."""
    t, s = tau.source, tau.target
    c, d = t.source, t.target
    for x in c.arrows:
        left = d.compose(tau.component(c.cod[x]), t(x))
        right = d.compose(s(x), tau.component(c.dom[x]))
        if left is None or right is None or left != right:
            return Verdict.fail(x, "square does not commute")
    return Verdict.ok()


def nat_from_hom(alpha: NatHom) -> NatTrans:
    """Components of an arrow-indexed transformation: its value at each
    identity arrow collapses to a repeated pair.  ``alpha`` must pass
    ``validate_nat_hom``, which its caller decides; only the output is checked."""
    c = alpha.source.source
    comps = []
    for u in c.objects:
        z1, z2 = alpha.assignment[u]
        if z1 != z2:
            raise InternalCheckError("value at an identity is not diagonal")
        comps.append(z1)
    tau = NatTrans(alpha.source, alpha.target, tuple(comps))
    if not validate_nat_trans(tau):
        raise InternalCheckError("extracted components fail a square")
    return tau


def hom_from_nat(tau: NatTrans) -> NatHom:
    """Arrow-indexed encoding of components: pair the component at the
    domain with the component at the codomain.  ``tau`` must pass
    ``validate_nat_trans``, which its caller decides; only the output is checked."""
    c = tau.source.source
    assignment = tuple((tau.component(c.dom[x]), tau.component(c.cod[x]))
                       for x in c.arrows)
    alpha = NatHom(tau.source, tau.target, assignment)
    if not validate_nat_hom(alpha):
        raise InternalCheckError("encoded components fail the hom laws")
    return alpha


def identity_nat_hom(f: Functor) -> NatHom:
    c = f.source
    assignment = tuple((f(c.dom[x]), f(c.cod[x])) for x in c.arrows)
    return NatHom(f, f, assignment)


def compose_nat(beta: NatHom, alpha: NatHom) -> NatHom:
    """Vertical composition: componentwise vertical multiplication."""
    if alpha.target != beta.source:
        raise ValueError("transformations are not composable")
    d = alpha.source.target
    assignment = []
    for x in alpha.source.source.arrows:
        prod = vmul(d.pm, beta.assignment[x], alpha.assignment[x])
        if prod is None:
            raise InternalCheckError("composable transformations failed to compose")
        assignment.append(prod)
    out = NatHom(alpha.source, beta.target, tuple(assignment))
    if not validate_nat_hom(out):
        raise InternalCheckError("vertical composite is not a transformation")
    return out


def enumerate_nat_homs(t: Functor, s: Functor) -> tuple[NatHom, ...]:
    """All arrow-indexed transformations from t to s: homomorphisms under
    horizontal multiplication whose value at each arrow x is one of the
    twin arrows from t(x) to s(x).  ``ENUMERATION_CAP`` bounds the number
    of leaves without pruning, the product of the candidate counts."""
    _check_parallel(t, s)
    pointwise = [[tw.pair for tw in twin_hom_cases(t.target, t(x), s(x))]
                 for x in t.source.arrows]
    if math.prod(map(len, pointwise)) > ENUMERATION_CAP:
        raise CapacityError("transformation search space too large")
    return tuple(NatHom(t, s, assignment)
                 for assignment in _homomorphisms(t.source, pointwise, hmul))


def enumerate_nat_trans(t: Functor, s: Functor) -> tuple[NatTrans, ...]:
    """All object-indexed families in the right hom-sets that pass every
    naturality square, by the literal definition: the encoding bijection's
    side that does not go through ``_homomorphisms``."""
    _check_parallel(t, s)
    pointwise = [hom_set(t.target, t(u), s(u)) for u in t.source.objects]
    if math.prod(map(len, pointwise)) > ENUMERATION_CAP:
        raise CapacityError("component search space too large")
    return tuple(tau for tau in (NatTrans(t, s, comps) for comps in product(*pointwise))
                 if _natural(tau))


# ---------------------------------------------------------------------------
# The category of functors.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FunctorCategoryResult:
    category: FiniteCategory
    functors: tuple[Functor, ...]
    arrows: tuple[NatHom, ...]


def functor_category(c: FiniteCategory, d: FiniteCategory) -> FunctorCategoryResult:
    """Objects: functors c -> d.  Arrows: arrow-indexed transformations,
    composed vertically."""
    functors = enumerate_functors(c, d)
    rank = {f: i for i, f in enumerate(functors)}
    ordered = sorted((a for t, s in product(functors, repeat=2)
                      for a in enumerate_nat_homs(t, s)),
                     key=lambda a: (rank[a.source], rank[a.target], a.assignment))
    category = FiniteCategory(product_pm(
        ordered, lambda a, b: compose_nat(a, b) if b.target == a.source else None))
    if len(category.objects) != len(functors):
        raise InternalCheckError("functor category has the wrong object count")
    return FunctorCategoryResult(category, functors, tuple(ordered))


# ---------------------------------------------------------------------------
# The stock of small examples.
# ---------------------------------------------------------------------------

#: The arrows of each named category as 0/1 diagonal matrix shapes: a
#: (rows, cols) arrow goes from object (cols, cols) to object (rows, rows).
NAMED_SHAPES = {
    "1": ((1, 1),),
    "II": ((1, 1), (2, 2)),
    "2": ((1, 1), (2, 2), (2, 1)),
    "3": ((1, 1), (2, 2), (3, 3), (2, 1), (3, 2), (3, 1)),
    "SQ": ((1, 1), (2, 2), (3, 3), (4, 4), (2, 1), (3, 2), (3, 1), (4, 1), (3, 4)),
}


def named_magmas() -> dict[str, PartialMagma]:
    """The rectangular-identity matrix magmas and truncated subtraction."""
    out = {name: matrix_magma(NAMED_SHAPES[category])[0]
           for name, category in (("M1", "1"), ("M2", "II"), ("M3", "2"),
                                  ("M6", "3"), ("MSQ", "SQ"))}
    out["nat_sub"] = nat_subtraction_magma(3)
    return out


def named_category(name: str) -> FiniteCategory:
    """The one-object, discrete-two, single-arrow, triangle or square
    category; ``matrix_magma(NAMED_SHAPES[name])[1]`` names its arrows."""
    return FiniteCategory(matrix_magma(NAMED_SHAPES[name])[0])
