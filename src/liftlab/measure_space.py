"""Finite complete measure spaces with exact rational weights.

Atoms are indexed ``0..n-1`` and a subset is a bitmask with bit ``i`` set
when atom ``i`` belongs to it.  The sigma-algebra is the full powerset, so
every subset is measurable and completeness is automatic; atoms of weight
zero populate the null ideal.  All arithmetic is exact (`Fraction`), so
almost-everywhere statements are plain equalities, never approximations.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Sequence


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending; one step per set bit."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if type(value) is str:
        # Fraction("1e999999999") would build 10**999999999: bound the digits
        # an exponent adds as Python bounds those of an integer literal.
        exponent = value.lower().partition("e")[2].strip().replace("_", "")
        limit = sys.get_int_max_str_digits()
        if (exponent.lstrip("+-").isdecimal() and limit
                and len(value) + abs(int(exponent)) > limit):
            raise ValueError(f"decimal exponent makes more than {limit} digits")
    if type(value) in (int, str):  # not bool, which JSON true would be
        return Fraction(value)
    raise TypeError(f"cannot read {value!r} as an exact rational")


@dataclass(frozen=True)
class MeasureSpace:
    """A finite complete measure space: one rational weight per atom."""

    weights: tuple[Fraction, ...]
    n: int = field(init=False, compare=False, repr=False)
    full_mask: int = field(init=False, compare=False, repr=False)
    pos_mask: int = field(init=False, compare=False, repr=False)
    null_mask: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not self.weights:
            raise ValueError("a measure space needs at least one atom")
        for i, w in enumerate(self.weights):
            if w < 0:
                raise ValueError(f"negative weight {w} at atom {i}")
        if all(w == 0 for w in self.weights):
            raise ValueError("all atoms are null; no averageable sets exist")
        n = len(self.weights)
        pos = 0
        for i, w in enumerate(self.weights):
            if w > 0:
                pos |= 1 << i
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "full_mask", (1 << n) - 1)
        object.__setattr__(self, "pos_mask", pos)
        object.__setattr__(self, "null_mask", ((1 << n) - 1) ^ pos)

    @property
    def total(self) -> Fraction:
        return sum(self.weights, Fraction(0))

    def check_set(self, q: int) -> int:
        if not 0 <= q <= self.full_mask:
            raise ValueError(f"set mask {q} out of range for {self.n} atoms")
        return q


def build_space(weights: Iterable) -> MeasureSpace:
    """Build a space from rational weights (ints, Fractions, or strings).

    Rejects negative weights and the all-zero vector; atom ids are the
    input positions 0..n-1.
    """
    return MeasureSpace(tuple(as_fraction(w) for w in weights))


def measure(space: MeasureSpace, q: int) -> Fraction:
    space.check_set(q)
    return sum((space.weights[i] for i in bits(q)), Fraction(0))


def complement(space: MeasureSpace, q: int) -> int:
    return space.full_mask ^ space.check_set(q)


def is_null(space: MeasureSpace, q: int) -> bool:
    # Positive atoms all have weight > 0, so null = disjoint from them.
    return space.check_set(q) & space.pos_mask == 0


def ae_equal(space: MeasureSpace, q: int, r: int) -> bool:
    """Almost-everywhere equality: the symmetric difference is null."""
    return is_null(space, space.check_set(q) ^ space.check_set(r))


@lru_cache(maxsize=None)
def averageable_sets(space: MeasureSpace) -> tuple[int, ...]:
    """All sets of positive measure, in ascending bitmask order."""
    return tuple(q for q in range(1, space.full_mask + 1) if q & space.pos_mask)


def conditional_prob(space: MeasureSpace, q: int, qp: int) -> Fraction:
    """Measure of ``q`` relative to an averageable set ``qp``."""
    denom = measure(space, qp)
    if denom == 0:
        raise ValueError(f"set {qp:#b} is not averageable")
    return measure(space, q & qp) / denom


@dataclass(frozen=True)
class PartialFn:
    """A rational-valued function defined on a subset of the atoms.

    ``values`` is aligned with the atom list and is None exactly off the
    domain mask.
    """

    space: MeasureSpace
    domain: int
    values: tuple[Fraction | None, ...]

    def __post_init__(self):
        self.space.check_set(self.domain)
        if len(self.values) != self.space.n:
            raise ValueError("values must align with the atom list")
        for i, v in enumerate(self.values):
            on = (self.domain >> i) & 1
            if on and v is None:
                raise ValueError(f"atom {i} in domain but has no value")
            if not on and v is not None:
                raise ValueError(f"atom {i} outside domain but has a value")

    def __call__(self, atom: int) -> Fraction:
        v = self.values[atom]
        if v is None:
            raise KeyError(f"atom {atom} outside domain")
        return v

    def defined_at(self, atom: int) -> bool:
        return (self.domain >> atom) & 1 == 1

    def defined_ae(self) -> bool:
        """True when the undefined set is null."""
        return is_null(self.space, self.space.full_mask ^ self.domain)


def partial_fn(space: MeasureSpace, mapping: dict[int, object]) -> PartialFn:
    domain = 0
    values: list[Fraction | None] = [None] * space.n
    for atom, v in mapping.items():
        if not 0 <= atom < space.n:
            raise ValueError(f"atom {atom} out of range")
        domain |= 1 << atom
        values[atom] = as_fraction(v)
    return PartialFn(space, domain, tuple(values))


def total_fn(space: MeasureSpace, values: Sequence) -> PartialFn:
    if len(values) != space.n:
        raise ValueError("need one value per atom")
    return PartialFn(space, space.full_mask, tuple(as_fraction(v) for v in values))


def indicator(space: MeasureSpace, q: int) -> PartialFn:
    """The total 0/1 function of a set."""
    space.check_set(q)
    vals = tuple(Fraction(1) if (q >> i) & 1 else Fraction(0) for i in range(space.n))
    return PartialFn(space, space.full_mask, vals)


def ae_equal_fn(f: PartialFn, g: PartialFn) -> bool:
    """Equality of a.e. classes: defined and equal at every positive atom."""
    if f.space != g.space:
        raise ValueError("functions live on different spaces")
    for i in bits(f.space.pos_mask):
        if not (f.defined_at(i) and g.defined_at(i)):
            return False
        if f(i) != g(i):
            return False
    return True
