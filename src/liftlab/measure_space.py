"""Finite complete measure spaces with exact rational weights.

Atoms are indexed ``0..n-1`` and a subset is a bitmask with bit ``i`` set
when atom ``i`` belongs to it.  The sigma-algebra is the full powerset, so
every subset is measurable and completeness is automatic; atoms of weight
zero populate the null ideal.  All arithmetic is exact, so almost-everywhere
statements are plain equalities, never approximations.  Weights stay
`Fraction`s; a space also keeps them as integer ``units`` on the lcm of
their denominators, so a mean sums integers and makes one `Fraction`.
"""

from __future__ import annotations

import math
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


def on_common_denominator(values: Sequence) -> tuple[tuple[int, ...], int]:
    """Rationals as integer numerators over the lcm of their denominators,
    and that lcm; None reads as 0."""
    den = math.lcm(*(v.denominator for v in values if v is not None))
    return tuple(0 if v is None else v.numerator * (den // v.denominator)
                 for v in values), den


@dataclass(frozen=True)
class MeasureSpace:
    """A finite complete measure space: one rational weight per atom.

    ``units`` are the weights times the lcm of their denominators: integers
    in the weights' proportions."""

    weights: tuple[Fraction, ...]
    units: tuple[int, ...] = field(init=False, compare=False, repr=False)
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
        object.__setattr__(self, "units", on_common_denominator(self.weights)[0])
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "full_mask", (1 << n) - 1)
        object.__setattr__(self, "pos_mask", pos)
        object.__setattr__(self, "null_mask", ((1 << n) - 1) ^ pos)

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


def is_null(space: MeasureSpace, q: int) -> bool:
    # Positive atoms all have weight > 0, so null = disjoint from them.
    return space.check_set(q) & space.pos_mask == 0


@lru_cache(maxsize=None)
def averageable_sets(space: MeasureSpace) -> tuple[int, ...]:
    """All sets of positive measure, in ascending bitmask order."""
    return tuple(q for q in range(1, space.full_mask + 1) if q & space.pos_mask)


@lru_cache(maxsize=None)
def averageable_code(space: MeasureSpace) -> int:
    """The averageable sets as one filter ground: bit ``q`` for set ``q``."""
    return sum(1 << q for q in averageable_sets(space))


@dataclass(frozen=True)
class PartialFn:
    """A rational-valued function defined on a subset of the atoms.

    ``values`` is aligned with the atom list, with None at each atom off
    the domain; the domain mask is read off it.
    """

    space: MeasureSpace
    values: tuple[Fraction | None, ...]

    def __post_init__(self):
        if len(self.values) != self.space.n:
            raise ValueError("values must align with the atom list")

    @property
    def domain(self) -> int:
        return sum(1 << i for i, v in enumerate(self.values) if v is not None)

    def __call__(self, atom: int) -> Fraction:
        v = self.values[atom]
        if v is None:
            raise KeyError(f"atom {atom} outside domain")
        return v

    def defined_at(self, atom: int) -> bool:
        return self.values[atom] is not None

    def defined_ae(self) -> bool:
        """True when the undefined set is null."""
        return is_null(self.space, self.space.full_mask ^ self.domain)


def total_fn(space: MeasureSpace, values: Sequence) -> PartialFn:
    return PartialFn(space, tuple(as_fraction(v) for v in values))


_ZERO, _ONE = Fraction(0), Fraction(1)


def indicator(space: MeasureSpace, q: int) -> PartialFn:
    """The total 0/1 function of a set."""
    space.check_set(q)
    vals = tuple(_ONE if (q >> i) & 1 else _ZERO for i in range(space.n))
    return PartialFn(space, vals)

