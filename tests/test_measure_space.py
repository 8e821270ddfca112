import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from liftlab.measure_space import (PartialFn, ae_equal, ae_equal_fn,
                                   averageable_sets, bits, build_space,
                                   conditional_prob, indicator, measure,
                                   partial_fn, total_fn)

A, B, N = 1, 2, 4  # atom masks in s1


def all_sets(space):
    return range(space.full_mask + 1)


def _shift_loop_bits(mask):
    out, i = [], 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


@pytest.mark.parametrize("width", [1, 12, 64, 4096])
def test_bits_matches_shift_loop(width):
    rng = random.Random(width)
    masks = [0, (1 << width) - 1, 1 << (width - 1)]
    masks += [rng.getrandbits(width) for _ in range(50)]
    for mask in masks:
        assert list(bits(mask)) == _shift_loop_bits(mask)


class TestBuildSpace:
    def test_canonical_fixture(self, s1):
        assert s1.n == 3
        assert s1.pos_mask == A | B
        assert s1.null_mask == N
        assert s1.total == 2

    def test_single_atom(self):
        sp = build_space([1])
        assert sp.full_mask == 1

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            build_space([0, 0])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            build_space([1, -1])

    def test_rejects_boolean_weight(self):
        # bool is an int in Python; JSON true must not read as the weight 1
        with pytest.raises(TypeError, match="exact rational"):
            build_space([True, 1])

    @pytest.mark.parametrize("weight", ["1e999999999", "1E-4301", "1e9_999_999",
                                        "1e4300"])
    def test_rejects_huge_decimal_exponent(self, weight):
        # parsing these as-is would build powers of ten with millions of digits
        with pytest.raises(ValueError, match="exponent"):
            build_space([weight, "1"])

    def test_accepts_printable_exponents(self):
        sp = build_space(["1e4290", "2.5e-3"])
        assert sp.weights == (Fraction(10) ** 4290, Fraction(1, 400))
        assert len(str(sp.weights[0])) == 4291

    def test_string_and_fraction_weights(self):
        sp = build_space(["1/2", "0.25", 3])
        assert sp.weights == (Fraction(1, 2), Fraction(1, 4), Fraction(3))


class TestMeasure:
    def test_weight_sums(self, s1):
        assert measure(s1, A | N) == 1
        assert measure(s1, 0) == 0
        assert measure(s1, s1.full_mask) == 2

    def test_additive_over_disjoint_exhaustive(self, s1):
        for q in all_sets(s1):
            for r in all_sets(s1):
                if q & r == 0:
                    assert measure(s1, q | r) == measure(s1, q) + measure(s1, r)

    def test_monotone_exhaustive(self, s1):
        for q in all_sets(s1):
            for r in all_sets(s1):
                if q & ~r == 0:
                    assert measure(s1, q) <= measure(s1, r)

    @given(st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=6)
           .filter(lambda ws: any(ws)),
           st.data())
    @settings(max_examples=60, deadline=None)
    def test_additivity_random_spaces(self, ws, data):
        sp = build_space(ws)
        q = data.draw(st.integers(min_value=0, max_value=sp.full_mask))
        r = data.draw(st.integers(min_value=0, max_value=sp.full_mask))
        assert measure(sp, q | r) + measure(sp, q & r) == measure(sp, q) + measure(sp, r)


class TestAeEqual:
    def test_null_difference(self, s1):
        assert ae_equal(s1, A, A | N)

    def test_positive_difference(self, s1):
        assert not ae_equal(s1, A, B)

    def test_equivalence_relation_exhaustive(self, s1):
        sets = list(all_sets(s1))
        for q in sets:
            assert ae_equal(s1, q, q)
        for q in sets:
            for r in sets:
                assert ae_equal(s1, q, r) == ae_equal(s1, r, q)
                for t in sets:
                    if ae_equal(s1, q, r) and ae_equal(s1, r, t):
                        assert ae_equal(s1, q, t)


class TestAverageableSets:
    def test_s1_enumeration(self, s1):
        assert averageable_sets(s1) == (1, 2, 3, 5, 6, 7)

    def test_count_is_all_but_null_sets(self, s1):
        assert len(averageable_sets(s1)) == 2 ** 3 - 2

    def test_single_atom(self):
        assert averageable_sets(build_space([1])) == (1,)

    def test_closed_under_union_with_anything(self, s1):
        zs = set(averageable_sets(s1))
        for q in zs:
            for r in all_sets(s1):
                assert (q | r) in zs

    def test_closed_under_ae_replacement(self, s1):
        zs = set(averageable_sets(s1))
        for q in zs:
            for r in all_sets(s1):
                if ae_equal(s1, q, r):
                    assert r in zs


class TestIndicator:
    def test_values(self, s1):
        f = indicator(s1, A)
        assert [f(i) for i in range(3)] == [1, 0, 0]
        assert indicator(s1, 0).values == (0, 0, 0)
        assert indicator(s1, s1.full_mask).values == (1, 1, 1)


class TestConditionalProb:
    def test_half(self, s1):
        assert conditional_prob(s1, A, A | B) == Fraction(1, 2)

    def test_self_is_one(self, s1):
        for q in averageable_sets(s1):
            assert conditional_prob(s1, q, q) == 1

    def test_disjoint_is_zero(self, s1):
        assert conditional_prob(s1, B, A | N) == 0

    def test_null_reference_rejected(self, s1):
        with pytest.raises(ValueError, match="averageable"):
            conditional_prob(s1, A, N)

    def test_respects_ae_classes(self, s1):
        # a.e.-equal sets have identical conditional probabilities.
        sets = list(all_sets(s1))
        for q, r in combinations(sets, 2):
            if ae_equal(s1, q, r):
                for ref in averageable_sets(s1):
                    assert conditional_prob(s1, q, ref) == conditional_prob(s1, r, ref)


class TestPartialFn:
    def test_domain_value_alignment(self, s1):
        with pytest.raises(ValueError):
            PartialFn(s1, A, (None, None, None))
        with pytest.raises(ValueError):
            PartialFn(s1, 0, (Fraction(1), None, None))

    def test_partial_fn_builder(self, s1):
        f = partial_fn(s1, {0: "1/3", 1: 2})
        assert f.domain == A | B
        assert f(0) == Fraction(1, 3)
        assert not f.defined_at(2)
        assert f.defined_ae()

    def test_defined_ae_needs_positive_atoms(self, s1):
        f = partial_fn(s1, {0: 1, 2: 1})
        assert not f.defined_ae()

    def test_ae_equal_fn_ignores_null_atoms(self, s1):
        f = total_fn(s1, [1, 2, 3])
        g = partial_fn(s1, {0: 1, 1: 2})
        assert ae_equal_fn(f, g)
        assert not ae_equal_fn(f, total_fn(s1, [1, 5, 3]))
