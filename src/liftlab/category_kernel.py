"""Finite categories as regular partial magmas, arrows only.

A category is stored as its arrow magma; the objects are the units.  Twin
arrows (commuting squares) make the arrows of one category the objects of
another, and a transformation between two functors can be encoded either
arrow-indexed (a homomorphism into twin arrows under horizontal
multiplication) or object-indexed (classical components).  Both encodings
are kept as distinct types with explicit converters, because their
equivalence is one of the statements under test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from .partial_magma import (PartialMagma, build_pm, classify, hmul,
                            matrix_magma, nat_subtraction_magma, units, vmul)
from .verdict import CapacityError, InternalCheckError, Verdict

ENUMERATION_CAP = 10_000_000


@dataclass(frozen=True)
class FiniteCategory:
    """Arrows-only category: a regular partial magma plus optional labels."""

    pm: PartialMagma
    labels: tuple[str, ...] | None = None
    objects: tuple[int, ...] = field(init=False, compare=False, repr=False)
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
        if self.labels is not None and len(self.labels) != self.pm.n:
            raise ValueError("need one label per arrow")
        dom = []
        cod = []
        for x in range(self.pm.n):
            dom.append(next(u for u in c.units if self.pm.defined(x, u)))
            cod.append(next(u for u in c.units if self.pm.defined(u, x)))
        object.__setattr__(self, "objects", c.units)
        object.__setattr__(self, "dom", tuple(dom))
        object.__setattr__(self, "cod", tuple(cod))

    @property
    def arrows(self) -> tuple[int, ...]:
        return tuple(range(self.pm.n))

    def compose(self, x: int, y: int) -> int | None:
        return self.pm.op(x, y)

    def label(self, x: int) -> str:
        return self.labels[x] if self.labels else str(x)


def cat_from_rpm(pm: PartialMagma, labels=None) -> FiniteCategory:
    """Read a regular partial magma as a category (objects = units)."""
    return FiniteCategory(pm, tuple(labels) if labels else None)


def rpm_from_cat(cat: FiniteCategory) -> PartialMagma:
    """Forget back down to the arrow magma."""
    return cat.pm


def hom_set(cat: FiniteCategory, u: int, v: int) -> tuple[int, ...]:
    """Arrows from ``u`` to ``v``; hom-sets partition the arrows."""
    objs = set(cat.objects)
    if u not in objs or v not in objs:
        raise ValueError("hom-set endpoints must be objects")
    return tuple(x for x in cat.arrows if cat.dom[x] == u and cat.cod[x] == v)


@dataclass(frozen=True)
class TwinArrow:
    """A commuting square: a pair of arrows from one arrow to another."""

    source: int
    target: int
    pair: tuple[int, int]

    def to_dict(self) -> dict:
        return {"source": self.source, "target": self.target, "pair": list(self.pair)}


def is_twin_arrow(cat: FiniteCategory, x: int, y: int, pair: tuple[int, int]) -> bool:
    z1, z2 = pair
    left = cat.compose(z2, x)
    right = cat.compose(y, z1)
    return left is not None and right is not None and left == right


def twin_hom_cases(cat: FiniteCategory, x: int, y: int) -> tuple[TwinArrow, ...]:
    """All twin arrows from ``x`` to ``y``, by exhaustive square search."""
    out = []
    for z1 in cat.arrows:
        for z2 in cat.arrows:
            if is_twin_arrow(cat, x, y, (z1, z2)):
                out.append(TwinArrow(x, y, (z1, z2)))
    return tuple(out)


@dataclass(frozen=True)
class TwinCategoryResult:
    category: FiniteCategory
    arrows: tuple[TwinArrow, ...]


def twin_category(cat: FiniteCategory) -> TwinCategoryResult:
    """The category whose objects are the arrows of ``cat`` and whose
    arrows are twin arrows, composed by vertical multiplication."""
    data: list[TwinArrow] = []
    for x in cat.arrows:
        for y in cat.arrows:
            data.extend(twin_hom_cases(cat, x, y))
    index = {t: i for i, t in enumerate(data)}
    n = len(data)
    table = [[None] * n for _ in range(n)]
    for i, a in enumerate(data):
        for j, b in enumerate(data):
            if b.target != a.source:
                continue
            prod = vmul(cat.pm, a.pair, b.pair)
            if prod is None:
                raise InternalCheckError("composable twin arrows failed to compose")
            result = TwinArrow(b.source, a.target, prod)
            if result not in index:
                raise InternalCheckError("twin composition left the twin arrows")
            table[i][j] = index[result]
    labels = tuple(
        f"({cat.label(t.pair[0])},{cat.label(t.pair[1])}):"
        f"{cat.label(t.source)}=>{cat.label(t.target)}"
        for t in data)
    twin_cat = cat_from_rpm(build_pm(n, table), labels)
    if len(twin_cat.objects) != cat.pm.n:
        raise InternalCheckError("twin category has the wrong object count")
    return TwinCategoryResult(twin_cat, tuple(data))


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


def validate_functor(f: Functor) -> Verdict:
    from .partial_magma import is_pm_hom

    if len(f.arrow_map) != f.source.pm.n:
        return Verdict.fail(None, "arrow map has the wrong length")
    v = is_pm_hom(f.arrow_map, f.source.pm, f.target.pm, unital=True)
    if not v:
        return v
    for x in f.source.arrows:
        if f.target.dom[f(x)] != f(f.source.dom[x]):
            return Verdict.fail(x, "domain not preserved")
        if f.target.cod[f(x)] != f(f.source.cod[x]):
            return Verdict.fail(x, "codomain not preserved")
    return Verdict.ok()


def identity_functor(cat: FiniteCategory) -> Functor:
    return Functor(cat, cat, tuple(cat.arrows))


def enumerate_functors(c: FiniteCategory, d: FiniteCategory) -> tuple[Functor, ...]:
    """Brute force over all arrow maps, filtered by the functor laws."""
    if d.pm.n ** c.pm.n > ENUMERATION_CAP:
        raise CapacityError("functor search space too large")
    out = []
    for assignment in product(range(d.pm.n), repeat=c.pm.n):
        f = Functor(c, d, assignment)
        if validate_functor(f):
            out.append(f)
    return tuple(out)


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
        return self.components[self.source.source.objects.index(u)]


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
    for x in c.arrows:
        left = d.compose(tau.component(c.cod[x]), t(x))
        right = d.compose(s(x), tau.component(c.dom[x]))
        if left is None or right is None or left != right:
            return Verdict.fail(x, "square does not commute")
    return Verdict.ok()


def nat_from_hom(alpha: NatHom) -> NatTrans:
    """Components of an arrow-indexed transformation: its value at each
    identity arrow collapses to a repeated pair."""
    v = validate_nat_hom(alpha)
    if not v:
        raise ValueError(f"invalid transformation: {v.reason} (witness {v.witness})")
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
    domain with the component at the codomain."""
    v = validate_nat_trans(tau)
    if not v:
        raise ValueError(f"not natural: {v.reason} (witness {v.witness})")
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
    """All arrow-indexed transformations from t to s.

    Candidates range over the twin-arrow hom-sets pointwise (that part is
    definitional) and are filtered by the multiplicativity law.
    """
    _check_parallel(t, s)
    c, d = t.source, t.target
    pointwise = [tuple(tw.pair for tw in twin_hom_cases(d, t(x), s(x)))
                 for x in c.arrows]
    space = 1
    for cands in pointwise:
        space *= len(cands)
        if space > ENUMERATION_CAP:
            raise CapacityError("transformation search space too large")
    out = []
    for assignment in product(*pointwise):
        alpha = NatHom(t, s, assignment)
        if validate_nat_hom(alpha):
            out.append(alpha)
    return tuple(out)


def enumerate_nat_trans(t: Functor, s: Functor) -> tuple[NatTrans, ...]:
    """All object-indexed families in the right hom-sets that pass every
    naturality square."""
    _check_parallel(t, s)
    c, d = t.source, t.target
    pointwise = [hom_set(d, t(u), s(u)) for u in c.objects]
    space = 1
    for cands in pointwise:
        space *= len(cands)
        if space > ENUMERATION_CAP:
            raise CapacityError("component search space too large")
    out = []
    for comps in product(*pointwise):
        tau = NatTrans(t, s, comps)
        if validate_nat_trans(tau):
            out.append(tau)
    return tuple(out)


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
    arrows: list[NatHom] = []
    for s in functors:          # target functor
        for t in functors:      # source functor
            arrows.extend(enumerate_nat_homs(t, s))
    ordered = sorted(
        arrows,
        key=lambda a: (functors.index(a.source), functors.index(a.target), a.assignment))
    index = {(a.source, a.target, a.assignment): i for i, a in enumerate(ordered)}
    n = len(ordered)
    table = [[None] * n for _ in range(n)]
    for i, a in enumerate(ordered):
        for j, b in enumerate(ordered):
            if b.target != a.source:
                continue
            comp = compose_nat(a, b)
            table[i][j] = index[(comp.source, comp.target, comp.assignment)]
    category = cat_from_rpm(build_pm(n, table))
    if len(category.objects) != len(functors):
        raise InternalCheckError("functor category has the wrong object count")
    return FunctorCategoryResult(category, functors, tuple(ordered))


# ---------------------------------------------------------------------------
# The stock of small examples.
# ---------------------------------------------------------------------------

def named_magmas() -> dict[str, PartialMagma]:
    """The rectangular-identity matrix magmas and truncated subtraction."""
    m1, _ = matrix_magma([(1, 1)])
    m2, _ = matrix_magma([(1, 1), (2, 2)])
    m3, _ = matrix_magma([(1, 1), (2, 2), (2, 1)])
    m6, _ = matrix_magma([(1, 1), (2, 2), (3, 3), (2, 1), (3, 2), (3, 1)])
    msq, _ = matrix_magma([(1, 1), (2, 2), (3, 3), (4, 4),
                           (2, 1), (3, 2), (3, 1), (4, 1), (3, 4)])
    return {"M1": m1, "M2": m2, "M3": m3, "M6": m6, "MSQ": msq,
            "nat_sub": nat_subtraction_magma(3)}


def named_categories() -> dict[str, FiniteCategory]:
    """The one-object, discrete-two, single-arrow, triangle, and square
    categories, with readable arrow labels."""
    out = {}
    for name, dims in {
        "1": [(1, 1)],
        "II": [(1, 1), (2, 2)],
        "2": [(1, 1), (2, 2), (2, 1)],
        "3": [(1, 1), (2, 2), (3, 3), (2, 1), (3, 2), (3, 1)],
        "SQ": [(1, 1), (2, 2), (3, 3), (4, 4),
               (2, 1), (3, 2), (3, 1), (4, 1), (3, 4)],
    }.items():
        pm, labels = matrix_magma(dims)
        out[name] = cat_from_rpm(pm, labels)
    return out


def example_library() -> dict[str, object]:
    lib: dict[str, object] = {}
    lib.update(named_categories())
    lib.update(named_magmas())
    return lib
