from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from liftlab.filter_calculus import (Filter, FiniteTopSpace, NotDirectedError,
                                     base_generation_oracle, direct_image,
                                     filter_from_base, is_directed,
                                     is_ultrafilter, lim_beta, limit_along,
                                     limit_points, principal_ultrafilter,
                                     principality_oracle, tail_filter,
                                     trivial_filter, ultrafilter_refine)


class TestFilterConstruction:
    # masks over the ground (1, 2, 3): bit i stands for ground[i]
    def test_base_intersection_is_kernel(self):
        f = filter_from_base((1, 2, 3), [0b011, 0b110])  # {1,2}, {2,3}
        assert f.kernel == 0b010 and f.kernel_elements() == (2,)
        assert f.contains(0b010) and f.contains(0b011) and not f.contains(0b001)

    def test_whole_ground_base_gives_trivial_filter(self):
        f = filter_from_base((1, 2), [0b11])
        assert f == trivial_filter((1, 2))

    def test_empty_intersection_rejected(self):
        with pytest.raises(ValueError, match="improper"):
            filter_from_base((1, 2), [0b01, 0b10])

    def test_empty_base_rejected(self):
        with pytest.raises(ValueError):
            filter_from_base((1, 2), [])

    def test_empty_kernel_rejected(self):
        with pytest.raises(ValueError, match="improper"):
            Filter((1, 2), 0)

    @pytest.mark.parametrize("build", [
        lambda: Filter((1, 2), 0b100),
        lambda: Filter((1, 2), -1),
        lambda: filter_from_base((1, 2), [0b11, 0b111]),
        lambda: trivial_filter((1, 2)).contains(0b100),
    ])
    def test_bit_beyond_the_ground_rejected(self, build):
        with pytest.raises(ValueError, match="not a subset of the ground"):
            build()


class TestUltrafilters:
    def test_principal_is_ultra(self):
        assert is_ultrafilter(principal_ultrafilter((1, 2), 1))

    def test_trivial_on_two_points_is_refinable(self):
        assert not is_ultrafilter(trivial_filter((1, 2)))

    def test_two_point_kernel_not_ultra(self):
        assert not is_ultrafilter(Filter((1, 2, 3), 0b011))

    def test_principal_requires_membership(self):
        with pytest.raises(ValueError):
            principal_ultrafilter((1, 2), 9)

    def test_delta_injective(self):
        ground = tuple(range(6))
        kernels = {principal_ultrafilter(ground, q).kernel for q in ground}
        assert len(kernels) == 6

    def test_refine_tie_break_lowest_index(self):
        f = Filter((1, 2, 3), 0b110)
        assert ultrafilter_refine(f).kernel_elements() == (2,)

    def test_refine_fixes_ultrafilters(self):
        u = principal_ultrafilter((1, 2), 2)
        assert ultrafilter_refine(u) == u

    def test_refinement_contains_input(self):
        ground = tuple(range(3))
        for kernel_mask in range(1, 8):
            f = Filter(ground, kernel_mask)
            r = ultrafilter_refine(f)
            for member in range(8):
                if f.contains(member):
                    assert r.contains(member)


class TestDirectImage:
    def test_constant_map_gives_principal(self):
        f = trivial_filter((0, 1, 2))
        img = direct_image(lambda _: "c", f, ("c", "d"))
        assert img.kernel_elements() == ("c",)

    def test_inclusion_keeps_kernel(self):
        f = principal_ultrafilter((1, 2), 1)
        img = direct_image(lambda x: x, f, (1, 2, 3))
        assert img.kernel_elements() == (1,) and img.ground == (1, 2, 3)

    def test_image_point_missing_from_target_rejected(self):
        f = trivial_filter((0, 1))
        with pytest.raises(ValueError, match="not a ground element"):
            direct_image(lambda x: x + 1, f, (0, 1))

    def test_functorial_exhaustive(self):
        # image under a composite = composite of images, on grounds <= 3
        for size in (1, 2, 3):
            ground = tuple(range(size))
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
            f = Filter((0, 1, 2), kernel_mask)
            assert limit_along(f, lambda _: Fraction(7)) == 7

    def test_nonconstant_on_kernel_has_no_limit(self):
        f = Filter((0, 1), 0b11)
        assert limit_along(f, lambda q: q) is None

    def test_discrete_codomain_agrees_with_virtual(self):
        space = FiniteTopSpace.discrete((0, 1, 2))
        f = Filter((0, 1, 2), 0b010)
        assert limit_along(f, lambda q: q, space) == 1

    def test_value_off_the_codomain_has_no_limit(self):
        space = FiniteTopSpace.discrete((0, 1, 2))
        f = principal_ultrafilter((0, 1, 2), 1)
        assert limit_points(f, lambda q: q + 5, space) == []
        assert limit_along(f, lambda q: q + 5, space) is None

    def test_non_hausdorff_ambiguity_raises(self):
        sierpinski = FiniteTopSpace((0, 1), frozenset({0b00, 0b10, 0b11}))
        f = Filter(("q",), 0b1)
        assert set(limit_points(f, lambda _: 1, sierpinski)) == {0, 1}
        with pytest.raises(ValueError, match="ambiguous"):
            limit_along(f, lambda _: 1, sierpinski)

    def test_monotone_limit_at_one(self):
        # if alpha <= beta <= 1 pointwise and alpha -> 1, then beta -> 1;
        # randomized over filters on the averageable sets of [1,1,0]
        import random
        from liftlab.measure_space import averageable_sets, build_space
        rng = random.Random(5)
        ground = averageable_sets(build_space([1, 1, 0]))
        one = Fraction(1)
        for _ in range(300):
            kernel = sum(1 << i for i in rng.sample(range(len(ground)),
                                                    rng.randint(1, len(ground))))
            f = Filter(ground, kernel)
            alpha = {}
            beta = {}
            for i, q in enumerate(ground):
                if (kernel >> i) & 1:
                    alpha[q] = one
                else:
                    alpha[q] = Fraction(rng.randint(0, 4), 4)
                beta[q] = alpha[q] + (one - alpha[q]) * Fraction(rng.randint(0, 3), 3)
            assert limit_along(f, alpha.__getitem__) == one
            assert limit_along(f, beta.__getitem__) == one


class TestTailFilter:
    def test_chain_kernel_is_least_element(self):
        f = tail_filter([7, 5])  # bitmask family: X and a strict subset
        assert f.kernel_elements() == (5,)

    def test_singleton_family(self):
        f = tail_filter([3])
        assert f.kernel_elements() == (3,)

    def test_not_directed_error_with_witness(self):
        with pytest.raises(NotDirectedError) as err:
            tail_filter([1, 2])
        assert set(err.value.witness) == {1, 2}

    def test_repeated_member_keeps_least_kernel(self):
        f = tail_filter([0b110, 0b010, 0b110])
        assert f.ground == (0b110, 0b010)
        assert f.kernel_elements() == (0b010,)

    def test_is_directed_reports_pairs(self):
        ok, witness = is_directed([7, 3, 1])
        assert ok and witness is None
        ok, witness = is_directed([1, 2])
        assert not ok and set(witness) == {1, 2}


class TestTopSpaces:
    def test_rejects_non_topology(self):
        with pytest.raises(ValueError):
            FiniteTopSpace((0, 1), frozenset({0b00, 0b01}))

    def test_open_beyond_the_points_rejected(self):
        with pytest.raises(ValueError, match="not a subset"):
            FiniteTopSpace((0, 1), frozenset({0b00, 0b11, 0b100, 0b111}))

    def test_min_open_and_neighborhood_filter(self):
        space = FiniteTopSpace.discrete((0, 1))
        assert space.min_open(0) == 0b01
        assert space.neighborhood_filter(0).kernel_elements() == (0,)

    def test_hausdorff_iff_discrete_on_all_small_topologies(self):
        # every family of subsets of a 3-point set that is a topology
        points = (0, 1, 2)
        for fam_code in range(1 << 8):
            fam = frozenset(m for m in range(8) if (fam_code >> m) & 1)
            try:
                space = FiniteTopSpace(points, fam)
            except ValueError:
                continue
            assert space.is_hausdorff() == space.is_discrete()


class TestLimBeta:
    def test_principal_goes_to_its_point(self):
        space = FiniteTopSpace.discrete((0, 1, 2))
        lim = lim_beta(space)
        for y in space.points:
            assert lim(principal_ultrafilter(space.points, y)) == y

    def test_requires_hausdorff(self):
        sierpinski = FiniteTopSpace((0, 1), frozenset({0b00, 0b10, 0b11}))
        with pytest.raises(ValueError, match="Hausdorff"):
            lim_beta(sierpinski)

    def test_rejects_non_ultrafilters(self):
        space = FiniteTopSpace.discrete((0, 1))
        with pytest.raises(ValueError):
            lim_beta(space)(trivial_filter((0, 1)))

    def test_naturality_all_maps_between_small_discrete_spaces(self):
        for s_size in (1, 2, 3):
            for t_size in (1, 2, 3):
                source = FiniteTopSpace.discrete(tuple(range(s_size)))
                target = FiniteTopSpace.discrete(tuple(range(t_size)))
                lim_s, lim_t = lim_beta(source), lim_beta(target)
                for phi in product(range(t_size), repeat=s_size):
                    for y in range(s_size):
                        u = principal_ultrafilter(source.points, y)
                        pushed = direct_image(lambda q: phi[q], u, target.points)
                        assert lim_t(pushed) == phi[lim_s(u)]


class TestBruteForceOracles:
    def test_principality_small(self):
        assert principality_oracle(3)

    def test_base_generation_small(self):
        assert base_generation_oracle(3)

    def test_delta_bijects_onto_ultrafilters(self):
        # on small grounds the literal maximal filters are exactly the
        # principal ultrafilters
        from liftlab.filter_calculus import _literal_filters
        for size in (1, 2, 3):
            filters = _literal_filters(size)
            singles = [kernel for _, kernel in filters
                       if bin(kernel).count("1") == 1]
            assert sorted(singles) == [1 << i for i in range(size)]


@given(st.integers(min_value=1, max_value=4), st.data())
@settings(max_examples=80, deadline=None)
def test_membership_law_matches_kernel(size, data):
    ground = tuple(range(size))
    kernel_mask = data.draw(st.integers(min_value=1, max_value=(1 << size) - 1))
    f = Filter(ground, kernel_mask)
    member = data.draw(st.integers(min_value=0, max_value=(1 << size) - 1))
    as_set = frozenset(i for i in range(size) if (member >> i) & 1)
    assert f.contains(member) == (as_set >= frozenset(f.kernel_elements()))
