from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import liftlab.filter_calculus as filter_calculus
from liftlab.filter_calculus import (Filter, _filter_codes,
                                     base_generation_oracle, direct_image,
                                     filter_from_base, is_directed,
                                     is_ultrafilter, limit_along,
                                     principal_ultrafilter, principality_oracle,
                                     tail_filter, ultrafilter_refine)
from liftlab.measure_space import (averageable_code, averageable_sets, bits,
                                   build_space)
from liftlab.verdict import Verdict


class TestFilterConstruction:
    # masks over the ground {1, 2, 3} = 0b1110: bit e stands for element e
    def test_base_intersection_is_kernel(self):
        f = filter_from_base(0b1110, [0b0110, 0b1100])  # {1,2}, {2,3}
        assert f.kernel == 0b0100 and list(bits(f.kernel)) == [2]
        assert f.contains(0b0100) and f.contains(0b0110) and not f.contains(0b0010)

    def test_whole_ground_base_gives_trivial_filter(self):
        f = filter_from_base(0b110, [0b110])
        assert f == Filter(0b110, 0b110)

    def test_empty_intersection_rejected(self):
        with pytest.raises(ValueError, match="improper"):
            filter_from_base(0b110, [0b010, 0b100])

    def test_empty_base_rejected(self):
        with pytest.raises(ValueError):
            filter_from_base(0b110, [])

    def test_empty_kernel_rejected(self):
        with pytest.raises(ValueError, match="improper"):
            Filter(0b110, 0)

    @pytest.mark.parametrize("build", [lambda: Filter(-1, -1), lambda: Filter(-2, -2)])
    def test_negative_ground_rejected(self, build):
        # an infinite ground would leave ``bits`` of its kernel endless
        with pytest.raises(ValueError, match="non-negative elements"):
            build()

    @pytest.mark.parametrize("build", [
        lambda: Filter(0b110, 0b1000),
        lambda: Filter(0b110, -1),
        lambda: filter_from_base(0b110, [0b110, 0b1110]),
        lambda: Filter(0b110, 0b110).contains(0b1000),
        lambda: Filter(0b110, 0b110).contains(-2),
        # a kernel bit that the ground lacks, also a gap below its top bit
        lambda: Filter(0b1010, 0b0100),
        lambda: Filter(0b1010, 0b0011),
        lambda: Filter(0, 0b1),
    ])
    def test_bit_beyond_the_ground_rejected(self, build):
        with pytest.raises(ValueError, match="not a subset of the ground"):
            build()


class TestUltrafilters:
    def test_principal_is_ultra(self):
        assert is_ultrafilter(principal_ultrafilter(0b110, 1))

    def test_trivial_on_two_points_is_refinable(self):
        assert not is_ultrafilter(Filter(0b110, 0b110))

    def test_two_point_kernel_not_ultra(self):
        assert not is_ultrafilter(Filter(0b1110, 0b0110))

    def test_principal_requires_membership(self):
        for q in (9, 0, -1):
            with pytest.raises(ValueError):
                principal_ultrafilter(0b110, q)

    def test_delta_injective(self):
        kernels = {principal_ultrafilter(0b111111, q).kernel for q in range(6)}
        assert len(kernels) == 6

    def test_refine_tie_break_lowest_index(self):
        f = Filter(0b1110, 0b1100)
        assert list(bits(ultrafilter_refine(f).kernel)) == [2]

    def test_refine_fixes_ultrafilters(self):
        u = principal_ultrafilter(0b110, 2)
        assert ultrafilter_refine(u) == u

    def test_refinement_contains_input(self):
        for kernel_mask in range(1, 8):
            f = Filter(0b111, kernel_mask)
            r = ultrafilter_refine(f)
            for member in range(8):
                if f.contains(member):
                    assert r.contains(member)


class TestDirectImage:
    def test_constant_map_gives_principal(self):
        f = Filter(0b111, 0b111)
        img = direct_image(lambda _: 5, f, 0b110000)
        assert list(bits(img.kernel)) == [5]

    def test_inclusion_keeps_kernel(self):
        f = principal_ultrafilter(0b110, 1)
        img = direct_image(lambda x: x, f, 0b1110)
        assert list(bits(img.kernel)) == [1] and img.ground == 0b1110

    def test_image_point_missing_from_target_rejected(self):
        f = Filter(0b11, 0b11)
        with pytest.raises(ValueError, match="not a subset of the ground"):
            direct_image(lambda x: x + 1, f, 0b11)

    def test_functorial_exhaustive(self):
        # image under a composite = composite of images, on grounds <= 3
        for size in (1, 2, 3):
            ground = (1 << size) - 1
            for fmap in product(range(size), repeat=size):
                for gmap in product(range(size), repeat=size):
                    for kernel_mask in range(1, 1 << size):
                        f = Filter(ground, kernel_mask)
                        one = direct_image(lambda x: gmap[fmap[x]], f, ground)
                        two = direct_image(lambda x: gmap[x],
                                           direct_image(lambda x: fmap[x], f, ground),
                                           ground)
                        assert one == two


class TestLimits:
    def test_constant_has_its_constant_as_limit(self):
        for kernel_mask in range(1, 8):
            f = Filter(0b111, kernel_mask)
            assert limit_along(f, lambda _: Fraction(7)) == 7

    def test_nonconstant_on_kernel_has_no_limit(self):
        f = Filter(0b11, 0b11)
        assert limit_along(f, lambda q: q) is None

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 11), min_size=2, max_size=8, unique=True),
           st.fractions(-3, 3, max_denominator=4), st.fractions(-3, 3, max_denominator=4),
           st.sampled_from(["agree", "first", "last", "drawn"]), st.data())
    def test_matches_the_set_of_values_on_the_kernel(self, members, common, other,
                                                     differing, data):
        # several members per kernel: all agreeing, one differing at the
        # first or the last member visited, or values drawn member by member
        kernel = sum(1 << e for e in members)
        order = sorted(members)
        values = dict.fromkeys(order, common)
        if differing == "first":
            values[order[0]] = other
        elif differing == "last":
            values[order[-1]] = other
        elif differing == "drawn":
            values = {e: data.draw(st.sampled_from([common, other])) for e in order}
        seen = set(values.values())
        expected = next(iter(seen)) if len(seen) == 1 else None
        assert limit_along(Filter((1 << 12) - 1, kernel), values.__getitem__) == expected

    def test_monotone_limit_at_one(self):
        # if alpha <= beta <= 1 pointwise and alpha -> 1, then beta -> 1;
        # randomized over filters on the averageable sets of [1,1,0]
        import random
        space = build_space([1, 1, 0])
        ground, sets = averageable_code(space), averageable_sets(space)
        rng = random.Random(5)
        one = Fraction(1)
        for _ in range(300):
            kernel = sum(1 << q for q in rng.sample(sets, rng.randint(1, len(sets))))
            f = Filter(ground, kernel)
            alpha = {}
            beta = {}
            for q in sets:
                if (kernel >> q) & 1:
                    alpha[q] = one
                else:
                    alpha[q] = Fraction(rng.randint(0, 4), 4)
                beta[q] = alpha[q] + (one - alpha[q]) * Fraction(rng.randint(0, 3), 3)
            assert limit_along(f, alpha.__getitem__) == one
            assert limit_along(f, beta.__getitem__) == one


class TestTailFilter:
    def test_chain_kernel_is_least_element(self):
        f = tail_filter([7, 5])  # bitmask family: X and a strict subset
        assert f.ground == 1 << 7 | 1 << 5
        assert list(bits(f.kernel)) == [5]

    def test_singleton_family(self):
        f = tail_filter([3])
        assert list(bits(f.kernel)) == [3]

    def test_not_directed_error_with_witness(self):
        # an undirected family lacks its meet: tail_filter names the meet,
        # is_directed the pair
        with pytest.raises(ValueError, match="^family is not directed: its meet 0b0 is"):
            tail_filter([1, 2])
        assert set(is_directed([1, 2])[1]) == {1, 2}

    @pytest.mark.parametrize("family, meet", [
        ([0b110, 0b011], "0b10"), ([0b111, 0b110, 0b011], "0b10")])
    def test_undirected_family_names_its_meet(self, family, meet):
        with pytest.raises(ValueError) as info:
            tail_filter(family)
        assert str(info.value) == (f"family is not directed: its meet {meet} "
                                   "is not a member")

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError, match="empty family"):
            tail_filter([])

    def test_repeated_member_keeps_least_kernel(self):
        f = tail_filter([0b110, 0b010, 0b110])
        assert f.ground == 1 << 0b110 | 1 << 0b010
        assert list(bits(f.kernel)) == [0b010]

    def test_is_directed_reports_pairs(self):
        ok, witness = is_directed([7, 3, 1])
        assert ok and witness is None
        ok, witness = is_directed([1, 2])
        assert not ok and set(witness) == {1, 2}


class TestLimBeta:
    """The limit map of the ultrafilter space: ``limit_along`` the
    principal ultrafilters and their direct images."""

    def test_principal_goes_to_its_point(self):
        for y in range(3):
            assert limit_along(principal_ultrafilter(0b111, y), lambda q: q) == y

    def test_naturality_all_maps_between_small_discrete_spaces(self):
        # the pushed principal ultrafilter at y converges to phi[y]
        for s_size in (1, 2, 3):
            for t_size in (1, 2, 3):
                source, target = (1 << s_size) - 1, (1 << t_size) - 1
                for phi in product(range(t_size), repeat=s_size):
                    for y in range(s_size):
                        u = principal_ultrafilter(source, y)
                        pushed = direct_image(lambda q: phi[q], u, target)
                        assert limit_along(pushed, lambda q: q) == phi[y]


# Reference oracles that build one list and one set per family, the
# direct reading of the axioms; the family-code oracles are held to them.

def reference_literal_filters(size):
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


def reference_principality_oracle(max_size=4):
    for size in range(1, max_size + 1):
        full = (1 << size) - 1
        filters = reference_literal_filters(size)
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


def reference_base_generation_oracle(max_size=4):
    for size in range(1, max_size + 1):
        full = (1 << size) - 1
        nonempty = list(range(1, full + 1))
        for code in range(1, 1 << len(nonempty)):
            base = [nonempty[i] for i in range(len(nonempty)) if (code >> i) & 1]
            inter = full
            for b in base:
                inter &= b
            if inter == 0:
                continue
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
            generated = filter_calculus.filter_from_base(full, base)
            by_kernel = {s for s in range(1, full + 1) if generated.contains(s)}
            if literal != by_kernel:
                return Verdict.fail((size, base),
                                    "generated filter disagrees with literal closure")
    return Verdict.ok(f"base generation matches literal closure up to size {max_size}")


def _whole_ground_kernel(real, ground, base):
    return Filter(ground, ground)


def _lowest_kernel_bit_dropped(real, ground, base):
    f = real(ground, base)
    k = f.kernel
    return Filter(f.ground, k & (k - 1)) if k & (k - 1) else f


class TestBruteForceOracles:
    def test_principality_small(self):
        assert principality_oracle(3)

    def test_base_generation_small(self):
        assert base_generation_oracle(3)

    @pytest.mark.parametrize("size", [1, 2, 3, 4])
    def test_literal_filters_match_the_reference(self, size):
        # bit s of a code stands for subset s
        assert ([(frozenset(bits(code)), kernel) for code, kernel in _filter_codes(size)]
                == reference_literal_filters(size))

    @pytest.mark.parametrize("fault", [None, _whole_ground_kernel,
                                       _lowest_kernel_bit_dropped])
    def test_oracles_match_the_references(self, monkeypatch, fault):
        if fault is not None:
            real = filter_calculus.filter_from_base
            monkeypatch.setattr(filter_calculus, "filter_from_base",
                                lambda *args: fault(real, *args))
        assert principality_oracle(4) == reference_principality_oracle(4)
        got, want = base_generation_oracle(4), reference_base_generation_oracle(4)
        assert got == want
        assert bool(got) == (fault is None)

    def test_delta_bijects_onto_ultrafilters(self):
        # on small grounds the literal maximal filters are exactly the
        # principal ultrafilters
        for size in (1, 2, 3):
            singles = [kernel for _, kernel in _filter_codes(size)
                       if bin(kernel).count("1") == 1]
            assert sorted(singles) == [1 << i for i in range(size)]


@given(st.integers(min_value=1, max_value=4), st.data())
@settings(max_examples=80, deadline=None)
def test_membership_law_matches_kernel(size, data):
    ground = (1 << size) - 1
    kernel_mask = data.draw(st.integers(min_value=1, max_value=ground))
    f = Filter(ground, kernel_mask)
    member = data.draw(st.integers(min_value=0, max_value=ground))
    as_set = frozenset(i for i in range(size) if (member >> i) & 1)
    assert f.contains(member) == (as_set >= frozenset(bits(f.kernel)))


# The elements of this ground are set masks themselves: the averageable
# sets of [1,1,0], the ground of a filter kernel on that space.
SETS_SPACE = build_space([1, 1, 0])
SETS = averageable_sets(SETS_SPACE)


def _code(elements) -> int:
    return sum(1 << q for q in elements)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_filter_on_a_ground_of_sets_matches_the_set_definitions(data):
    ground = averageable_code(SETS_SPACE)
    assert ground == _code(SETS)
    kernel = data.draw(st.sets(st.sampled_from(SETS), min_size=1))
    f = Filter(ground, _code(kernel))
    # contains: a family member is a subset of the ground holding the kernel
    member = data.draw(st.sets(st.sampled_from(SETS)))
    assert f.contains(_code(member)) == (member >= kernel)
    # direct_image: B belongs to the image iff its preimage belongs to f
    fmap = data.draw(st.fixed_dictionaries({q: st.sampled_from(SETS) for q in SETS}))
    image = direct_image(fmap.__getitem__, f, ground)
    target = data.draw(st.sets(st.sampled_from(SETS)))
    assert image.contains(_code(target)) == f.contains(
        _code(q for q in SETS if fmap[q] in target))
    # limit_along, in a discrete space: v is the limit iff the preimage of
    # {v} belongs to f; there is at most one such v
    lam = data.draw(st.fixed_dictionaries({q: st.integers(0, 2) for q in SETS}))
    limits = [v for v in range(3) if f.contains(_code(q for q in SETS if lam[q] == v))]
    assert limit_along(f, lam.__getitem__) == (limits[0] if limits else None)
