"""Filters on finite ground sets, stored by their kernels.

A subset of a ground tuple is an ``int`` bitmask over its positions: bit
``i`` stands for ``ground[i]``, as bit ``i`` of a set mask stands for atom
``i`` in ``measure_space``.  Filter kernels, members and the open sets of a
finite space all use this one form; ``Filter.kernel_elements`` reads a
kernel back as ground elements.

On a finite ground set every proper filter is principal: it is exactly the
family of supersets of a unique nonempty kernel.  We therefore never
materialize the member family; membership is the single subset test
``kernel & ~member == 0``.  The test suite re-derives principality by
brute force on small grounds before anything relies on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from operator import and_
from typing import Callable, Sequence

from .measure_space import bits
from .verdict import InternalCheckError, Verdict


class NotDirectedError(ValueError):
    """A family handed to tail_filter has a pair with no lower bound."""

    def __init__(self, pair):
        self.witness = pair
        super().__init__(f"family is not directed: {pair[0]!r}, {pair[1]!r} "
                         "have no common lower bound in the family")


def _subset_mask(mask: int, ground: tuple, what: str) -> int:
    """``mask`` itself, if it names a subset of ``ground``."""
    if mask < 0 or mask >> len(ground):
        raise ValueError(f"{what} is not a subset of the ground")
    return mask


def _position(ground: tuple, e) -> int:
    try:
        return ground.index(e)
    except ValueError:
        raise ValueError(f"{e!r} is not a ground element") from None


@dataclass(frozen=True)
class Filter:
    """A proper filter on ``ground``, represented by its kernel mask.

    Membership law: a subset of the ground belongs to the filter iff it
    contains the kernel.
    """

    ground: tuple
    kernel: int

    def __post_init__(self):
        if len(set(self.ground)) != len(self.ground):
            raise ValueError("ground has duplicate elements")
        if not self.kernel:
            raise ValueError("improper filter: empty kernel")
        _subset_mask(self.kernel, self.ground, "kernel")

    def contains(self, member: int) -> bool:
        _subset_mask(member, self.ground, "candidate member")
        return self.kernel & ~member == 0

    def kernel_elements(self) -> tuple:
        """The kernel's ground elements, in ground order."""
        return tuple(self.ground[i] for i in bits(self.kernel))


def trivial_filter(ground: Sequence) -> Filter:
    """The smallest filter: only the whole ground belongs to it."""
    ground = tuple(ground)
    return Filter(ground, (1 << len(ground)) - 1)


def principal_ultrafilter(ground: Sequence, q) -> Filter:
    ground = tuple(ground)
    return Filter(ground, 1 << _position(ground, q))


def filter_from_base(ground: Sequence, base: Sequence[int]) -> Filter:
    """The filter generated by a base: kernel = intersection of the base."""
    ground = tuple(ground)
    if not base:
        raise ValueError("empty base generates no filter")
    kernel = reduce(and_, (_subset_mask(m, ground, "base member") for m in base))
    if not kernel:
        raise ValueError("improper filter: base has empty intersection")
    return Filter(ground, kernel)


def is_ultrafilter(f: Filter) -> bool:
    """Maximality on a finite ground amounts to a singleton kernel."""
    return f.kernel & (f.kernel - 1) == 0


def ultrafilter_refine(f: Filter) -> Filter:
    """A deterministic ultrafilter refinement.

    Ties are broken by keeping the kernel element with the smallest ground
    index (the lowest set bit), so refinements are reproducible across runs.
    """
    return Filter(f.ground, f.kernel & -f.kernel)


def direct_image(fmap: Callable, f: Filter, target_ground: Sequence) -> Filter:
    """Image filter along a map of grounds: the kernel maps forward."""
    target = tuple(target_ground)
    image = 0
    for e in f.kernel_elements():
        image |= 1 << _position(target, fmap(e))
    return Filter(target, image)


def limit_points(f: Filter, lam: Callable, codomain: "FiniteTopSpace") -> list:
    """All points whose neighborhood filter is below the image of ``f``;
    none when a value of ``lam`` on the kernel is not a point."""
    index = {y: i for i, y in enumerate(codomain.points)}
    image = 0
    for e in f.kernel_elements():
        i = index.get(lam(e))
        if i is None:
            return []
        image |= 1 << i
    return [y for y in codomain.points if image & ~codomain.min_open(y) == 0]


def limit_along(f: Filter, lam: Callable, codomain: "FiniteTopSpace | None" = None):
    """Limit of ``lam`` along the filter, or None when there is none.

    Without a codomain the values are taken in a (virtual) discrete space:
    the limit exists iff ``lam`` is constant on the kernel, and equals that
    constant.  With a Hausdorff codomain the witness is unique; ambiguity
    can only arise in non-Hausdorff spaces and raises.
    """
    if codomain is None:
        values = {lam(e) for e in f.kernel_elements()}
        if len(values) == 1:
            return next(iter(values))
        return None
    pts = limit_points(f, lam, codomain)
    if not pts:
        return None
    if len(pts) > 1:
        raise ValueError("ambiguous limit: codomain is not Hausdorff")
    return pts[0]


def is_directed(family: Sequence[int]) -> tuple[bool, tuple | None]:
    """Downward directedness of set masks under inclusion, with a witness
    pair on failure.

    Lemma: a finite family is directed iff it holds its own meet, its
    least member (a lower bound of each pair gives one of the whole
    family).  The pair loop runs only to find the first witness.
    """
    elems = list(family)
    if not elems or reduce(and_, elems) in elems:
        return True, None
    for a, b in combinations(elems, 2):
        if not any(l & ~(a & b) == 0 for l in elems):
            return False, (a, b)
    raise InternalCheckError("a family without its meet has no undirected pair")


def tail_filter(directed: Sequence[int]) -> Filter:
    """Filter of final segments of a family of set masks directed by
    reverse inclusion.

    The ground is the family itself.  At finite scale the final segments
    shrink to the inclusion-least member, so the kernel is that singleton.
    """
    family = tuple(dict.fromkeys(directed))
    if not family:
        raise ValueError("empty family has no tail filter")
    ok, witness = is_directed(family)
    if not ok:
        raise NotDirectedError(witness)
    return Filter(family, 1 << family.index(reduce(and_, family)))


@dataclass(frozen=True)
class FiniteTopSpace:
    """A finite topological space given by its full family of open sets,
    each a mask over ``points``."""

    points: tuple
    opens: frozenset

    def __post_init__(self):
        if len(set(self.points)) != len(self.points):
            raise ValueError("duplicate points")
        opens = self.opens
        for o in opens:
            _subset_mask(o, self.points, "open set")
        if 0 not in opens or (1 << len(self.points)) - 1 not in opens:
            raise ValueError("topology must contain the empty set and the space")
        for a in opens:
            for b in opens:
                if a | b not in opens or a & b not in opens:
                    raise ValueError("opens are not closed under union/intersection")

    @classmethod
    def discrete(cls, points: Sequence) -> "FiniteTopSpace":
        pts = tuple(points)
        return cls(pts, frozenset(range(1 << len(pts))))

    def min_open(self, y) -> int:
        """The smallest open set containing ``y``."""
        bit = 1 << _position(self.points, y)
        return reduce(and_, (o for o in self.opens if o & bit))

    def neighborhood_filter(self, y) -> Filter:
        return Filter(self.points, self.min_open(y))

    def is_discrete(self) -> bool:
        return all(1 << i in self.opens for i in range(len(self.points)))

    def is_hausdorff(self) -> bool:
        for i, j in combinations(range(len(self.points)), 2):
            if not any(a >> i & 1 and b >> j & 1 and not a & b
                       for a in self.opens for b in self.opens):
                return False
        return True


def _literal_filters(size: int) -> list[tuple[frozenset, int]]:
    """All families of subsets of range(size) satisfying the filter axioms
    literally, paired with the intersection of their members.

    Subsets are bitmasks; a family is a filter when it is nonempty, all
    members are nonempty, and it is closed under pairwise intersection and
    upward inclusion.
    """
    full = (1 << size) - 1
    nonempty = list(range(1, full + 1))
    filters = []
    for code in range(1, 1 << len(nonempty)):
        members = [nonempty[i] for i in range(len(nonempty)) if (code >> i) & 1]
        mset = set(members)
        ok = True
        for a in members:
            for b in members:
                if a & b not in mset:
                    ok = False
                    break
            if not ok:
                break
            for s in nonempty:
                if s & a == a and s not in mset:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            inter = full
            for m in members:
                inter &= m
            filters.append((frozenset(mset), inter))
    return filters


def principality_oracle(max_size: int = 4) -> Verdict:
    """Brute-force the principality lemma on small grounds.

    Every literal filter must be exactly the up-set of its kernel, and the
    maximal ones must be exactly those with singleton kernels.
    """
    for size in range(1, max_size + 1):
        full = (1 << size) - 1
        filters = _literal_filters(size)
        for members, kernel in filters:
            upset = frozenset(s for s in range(1, full + 1) if s & kernel == kernel)
            if members != upset:
                return Verdict.fail((size, sorted(members)),
                                    "literal filter is not the up-set of its kernel")
            maximal = not any(members < other for other, _ in filters)
            if maximal != (bin(kernel).count("1") == 1):
                return Verdict.fail((size, sorted(members)),
                                    "maximality disagrees with singleton kernel")
    return Verdict.ok(f"all literal filters principal on grounds up to size {max_size}")


def base_generation_oracle(max_size: int = 4) -> Verdict:
    """Brute-force filter_from_base against literal closure of the base.

    For every base of nonempty subsets with nonempty total intersection,
    closing under pairwise intersections and supersets must give the same
    members as the kernel rule with kernel = the total intersection.
    """
    for size in range(1, max_size + 1):
        ground = tuple(range(size))
        full = (1 << size) - 1
        nonempty = list(range(1, full + 1))
        for code in range(1, 1 << len(nonempty)):
            base = [nonempty[i] for i in range(len(nonempty)) if (code >> i) & 1]
            inter = full
            for b in base:
                inter &= b
            if inter == 0:
                continue  # improper: filter_from_base rejects these
            closure = set(base)
            changed = True
            while changed:
                changed = False
                for a in list(closure):
                    for b in list(closure):
                        if a & b not in closure:
                            closure.add(a & b)
                            changed = True
            literal = {s for s in range(1, full + 1)
                       if any(s & m == m for m in closure)}
            generated = filter_from_base(ground, base)
            by_kernel = {s for s in range(1, full + 1) if generated.contains(s)}
            if literal != by_kernel:
                return Verdict.fail((size, base),
                                    "generated filter disagrees with literal closure")
    return Verdict.ok(f"base generation matches literal closure up to size {max_size}")


def lim_beta(space: FiniteTopSpace) -> Callable[[Filter], object]:
    """The limit map on ultrafilters over a Hausdorff (= discrete) space.

    Sends each principal ultrafilter to its generating point; naturality in
    the space is checked exhaustively by the test suite.
    """
    if not space.is_hausdorff():
        raise ValueError("lim_beta needs a Hausdorff space")

    def lim(u: Filter):
        if not is_ultrafilter(u):
            raise ValueError("lim_beta is defined on ultrafilters only")
        matches = limit_points(u, lambda e: e, space)
        if len(matches) != 1:
            raise ValueError("ultrafilter does not live on the space's points")
        return matches[0]

    return lim
