"""Filters on finite ground sets, stored by their kernels.

A ground is an ``int`` mask over non-negative int elements: bit ``e``
stands for element ``e``, as bit ``i`` of a set mask stands for atom ``i``
in ``measure_space``.  The elements may be set masks themselves, so a
family of sets of atoms is a mask with bit ``q`` for set ``q``.  A kernel
and a candidate member are masks of the same form, within the ground, and
``bits`` reads any of them back as elements.

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
from operator import and_, or_
from typing import Callable, Sequence

from .measure_space import bits
from .verdict import InternalCheckError, Verdict


def _subset_mask(mask: int, ground: int, what: str) -> int:
    """``mask`` itself, if it names a subset of ``ground``."""
    if mask & ~ground:  # a negative mask has bits beyond any ground
        raise ValueError(f"{what} is not a subset of the ground")
    return mask


@dataclass(frozen=True)
class Filter:
    """A proper filter on ``ground``, represented by its kernel mask.

    Membership law: a subset of the ground belongs to the filter iff it
    contains the kernel.
    """

    ground: int
    kernel: int

    def __post_init__(self):
        if self.ground < 0:  # it would hold every element past some point
            raise ValueError("a ground is a mask over non-negative elements")
        if not self.kernel:
            raise ValueError("improper filter: empty kernel")
        _subset_mask(self.kernel, self.ground, "kernel")

    def contains(self, member: int) -> bool:
        _subset_mask(member, self.ground, "candidate member")
        return self.kernel & ~member == 0


def principal_ultrafilter(ground: int, q: int) -> Filter:
    return Filter(ground, 1 << q)


def filter_from_base(ground: int, base: Sequence[int]) -> Filter:
    """The filter generated by a base: kernel = intersection of the base."""
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

    Ties are broken by keeping the smallest kernel element (the lowest set
    bit), so refinements are reproducible across runs.
    """
    return Filter(f.ground, f.kernel & -f.kernel)


def direct_image(fmap: Callable, f: Filter, target_ground: int) -> Filter:
    """Image filter along a map of grounds: the kernel maps forward."""
    image = 0
    for e in bits(f.kernel):
        image |= 1 << fmap(e)
    return Filter(target_ground, image)


def limit_along(f: Filter, lam: Callable):
    """Limit of ``lam`` along the filter, or None when there is none.

    The filter is principal, so its image under ``lam`` is the filter of
    supersets of ``lam``'s values on the kernel.  In a T1 space that image
    converges iff those values are a single point, which is then the limit.
    Each value is compared with the first one, so none is hashed.
    """
    elements = bits(f.kernel)
    first = lam(next(elements))
    for e in elements:
        if lam(e) != first:
            return None
    return first


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

    The ground is the family itself: bit ``q`` for member ``q``.  At finite
    scale the final segments shrink to the inclusion-least member, the
    family's meet, so the kernel is that singleton.  The caller decides
    that the family is directed (``is_directed``); a family without its
    meet raises ``ValueError``.
    """
    family = reduce(or_, (1 << q for q in directed), 0)
    if not family:
        raise ValueError("empty family has no tail filter")
    meet = reduce(and_, directed)
    if not family >> meet & 1:
        raise ValueError(f"family is not directed: its meet {meet:#b} is not a member")
    return Filter(family, 1 << meet)


# A family of subsets of range(size) is an ``int`` code of the same form as
# a kernel over a ground of sets: bit s stands for subset s.  The oracles
# below visit every code of nonempty subsets in increasing order and test
# the filter axioms on the code, listing the members only of the few
# families that pass.

def _up_codes(size: int) -> list[int]:
    """Entry a: the code of the nonempty supersets of subset a."""
    full = (1 << size) - 1
    return [sum(1 << s for s in range(1, full + 1) if s & a == a)
            for a in range(full + 1)]


def _filter_codes(size: int):
    """The codes of the families of subsets of range(size) that satisfy the
    filter axioms literally, in increasing order, each with the
    intersection of its members.

    A family is a filter when it is nonempty, all members are nonempty
    (bit 0, the empty set, is clear in every code visited), and it is
    closed under upward inclusion and pairwise intersection.
    """
    up = _up_codes(size)
    for code in range(2, 2 << ((1 << size) - 1), 2):
        rest = code
        while rest:  # upward closure, member by member
            low = rest & -rest
            if up[low.bit_length() - 1] & ~code:
                break
            rest ^= low
        else:
            members = list(bits(code))
            # an empty intersection reads bit 0, which no code visited holds
            if all(code >> (a & b) & 1 for a in members for b in members):
                yield code, reduce(and_, members)


def principality_oracle(max_size: int = 4) -> Verdict:
    """Brute-force the principality lemma on small grounds.

    Every literal filter must be exactly the up-set of its kernel, read
    through ``Filter.contains``, and the maximal ones must be exactly those
    ``is_ultrafilter`` accepts.
    """
    for size in range(1, max_size + 1):
        ground = (1 << size) - 1
        filters = list(_filter_codes(size))
        for code, kernel in filters:
            f = Filter(ground, kernel)
            upset = sum(1 << s for s in range(1, ground + 1) if f.contains(s))
            if code != upset:
                return Verdict.fail((size, list(bits(code))),
                                    "literal filter is not the up-set of its kernel")
            maximal = not any(code & ~other == 0 and code != other
                              for other, _ in filters)
            if maximal != is_ultrafilter(f):
                return Verdict.fail((size, list(bits(code))),
                                    "maximality disagrees with singleton kernel")
    return Verdict.ok(f"all literal filters principal on grounds up to size {max_size}")


def base_generation_oracle(max_size: int = 4) -> Verdict:
    """Brute-force filter_from_base against literal closure of the base.

    For every base of nonempty subsets with nonempty total intersection,
    closing under pairwise intersections and supersets must give the same
    members as the kernel rule with kernel = the total intersection.
    """
    for size in range(1, max_size + 1):
        ground = (1 << size) - 1
        up = _up_codes(size)
        # entry e: the code of the subsets that contain element e
        holding = [sum(1 << s for s in range(1, ground + 1) if s >> e & 1)
                   for e in range(size)]
        for code in range(2, 2 << ground, 2):
            for h in holding:
                if not code & ~h:
                    break
            else:
                continue  # empty intersection: filter_from_base rejects these
            closure, grown = 0, code
            while grown != closure:  # pairwise intersections, to a fixed point
                closure = grown
                members = list(bits(closure))
                for a in members:
                    for b in members:
                        # never empty: it holds the base's intersection
                        grown |= 1 << (a & b)
            literal = 0
            for m in bits(closure):
                literal |= up[m]
            base = list(bits(code))
            generated = filter_from_base(ground, base)
            by_kernel = sum(1 << s for s in range(1, ground + 1)
                            if generated.contains(s))
            if literal != by_kernel:
                return Verdict.fail((size, base),
                                    "generated filter disagrees with literal closure")
    return Verdict.ok(f"base generation matches literal closure up to size {max_size}")
