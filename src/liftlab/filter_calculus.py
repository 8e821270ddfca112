"""Filters on finite ground sets, stored by their kernels.

A subset of a ground tuple is an ``int`` bitmask over its positions: bit
``i`` stands for ``ground[i]``, as bit ``i`` of a set mask stands for atom
``i`` in ``measure_space``.  Filter kernels and members both use this one
form; ``Filter.kernel_elements`` reads a kernel back as ground elements.

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


def limit_along(f: Filter, lam: Callable):
    """Limit of ``lam`` along the filter, or None when there is none.

    The filter is principal, so its image under ``lam`` is the filter of
    supersets of ``lam``'s values on the kernel.  In a T1 space that image
    converges iff those values are a single point, which is then the limit.
    """
    values = {lam(e) for e in f.kernel_elements()}
    if len(values) == 1:
        return next(iter(values))
    return None


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
    The caller decides that the family is directed (``is_directed``).
    """
    family = tuple(dict.fromkeys(directed))
    if not family:
        raise ValueError("empty family has no tail filter")
    return Filter(family, 1 << family.index(reduce(and_, family)))


# A family of nonempty subsets of range(size) is an ``int`` code of
# 2^size - 1 bits: bit s - 1 stands for subset s.  The oracles below visit
# every code in increasing order and test the filter axioms on the code,
# listing the members only of the few families that pass.

def _members(code: int) -> list[int]:
    """The subsets of a family code, ascending."""
    return [i + 1 for i in bits(code)]


def _up_codes(size: int) -> list[int]:
    """Entry i: the code of the nonempty supersets of subset i + 1."""
    full = (1 << size) - 1
    return [sum(1 << (s - 1) for s in range(1, full + 1) if s & a == a)
            for a in range(1, full + 1)]


def _filter_codes(size: int):
    """The codes of the families of subsets of range(size) that satisfy the
    filter axioms literally, in increasing order, each with the
    intersection of its members.

    A family is a filter when it is nonempty, all members are nonempty (so
    is every subset a code can name), and it is closed under upward
    inclusion and pairwise intersection.
    """
    up = _up_codes(size)
    for code in range(1, 1 << ((1 << size) - 1)):
        rest = code
        while rest:  # upward closure, member by member
            low = rest & -rest
            if up[low.bit_length() - 1] & ~code:
                break
            rest ^= low
        else:
            members = _members(code)
            if all(a & b and code >> ((a & b) - 1) & 1
                   for a in members for b in members):
                yield code, reduce(and_, members)


def _literal_filters(size: int) -> list[tuple[frozenset, int]]:
    """All families of subsets of range(size) satisfying the filter axioms
    literally, as sets of bitmasks, paired with the intersection of their
    members."""
    return [(frozenset(_members(code)), kernel) for code, kernel in _filter_codes(size)]


def principality_oracle(max_size: int = 4) -> Verdict:
    """Brute-force the principality lemma on small grounds.

    Every literal filter must be exactly the up-set of its kernel, read
    through ``Filter.contains``, and the maximal ones must be exactly those
    ``is_ultrafilter`` accepts.
    """
    for size in range(1, max_size + 1):
        ground = tuple(range(size))
        full = (1 << size) - 1
        filters = list(_filter_codes(size))
        for code, kernel in filters:
            f = Filter(ground, kernel)
            upset = sum(1 << (s - 1) for s in range(1, full + 1) if f.contains(s))
            if code != upset:
                return Verdict.fail((size, _members(code)),
                                    "literal filter is not the up-set of its kernel")
            maximal = not any(code & ~other == 0 and code != other
                              for other, _ in filters)
            if maximal != is_ultrafilter(f):
                return Verdict.fail((size, _members(code)),
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
        up = _up_codes(size)
        # entry e: the code of the subsets that contain element e
        holding = [sum(1 << (s - 1) for s in range(1, full + 1) if s >> e & 1)
                   for e in ground]
        for code in range(1, 1 << full):
            for h in holding:
                if not code & ~h:
                    break
            else:
                continue  # empty intersection: filter_from_base rejects these
            closure, grown = 0, code
            while grown != closure:  # pairwise intersections, to a fixed point
                closure = grown
                members = _members(closure)
                for a in members:
                    for b in members:
                        # never empty: it holds the base's intersection
                        grown |= 1 << ((a & b) - 1)
            literal = 0
            for m in bits(closure):
                literal |= up[m]
            base = _members(code)
            generated = filter_from_base(ground, base)
            by_kernel = sum(1 << (s - 1) for s in range(1, full + 1)
                            if generated.contains(s))
            if literal != by_kernel:
                return Verdict.fail((size, base),
                                    "generated filter disagrees with literal closure")
    return Verdict.ok(f"base generation matches literal closure up to size {max_size}")
