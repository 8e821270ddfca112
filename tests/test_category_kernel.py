from itertools import product

import pytest

from liftlab.category_kernel import (FiniteCategory, Functor, NatHom,
                                     NatTrans, TwinArrow, cat_from_rpm,
                                     compose_nat, enumerate_functors,
                                     enumerate_nat_homs, enumerate_nat_trans,
                                     functor_category, hom_from_nat, hom_set,
                                     identity_functor, identity_nat_hom,
                                     named_categories, named_magmas,
                                     nat_from_hom, rpm_from_cat,
                                     twin_category, twin_hom_cases,
                                     validate_functor, validate_nat_hom,
                                     validate_nat_trans, example_library)
from liftlab.partial_magma import is_pm_hom, regular_tables, units


CATS = named_categories()


class TestNamedCategories:
    def test_shapes(self):
        shapes = {name: (len(c.objects), c.pm.n) for name, c in CATS.items()}
        assert shapes == {"1": (1, 1), "II": (2, 2), "2": (2, 3),
                          "3": (3, 6), "SQ": (4, 9)}

    def test_square_has_five_proper_arrows(self):
        sq = CATS["SQ"]
        assert sq.pm.n - len(sq.objects) == 5

    def test_square_commutes(self):
        sq = CATS["SQ"]
        lab = sq.labels
        a21, a32, a31 = lab.index("A21"), lab.index("A32"), lab.index("A31")
        a41, a34 = lab.index("A41"), lab.index("A34")
        assert sq.compose(a32, a21) == a31 == sq.compose(a34, a41)

    def test_discrete_two_has_no_cross_arrows(self):
        ii = CATS["II"]
        u, v = ii.objects
        assert hom_set(ii, u, v) == () and hom_set(ii, v, u) == ()

    def test_one_is_terminal(self):
        for name, c in CATS.items():
            assert len(enumerate_functors(c, CATS["1"])) == 1


class TestCatRpmRoundtrip:
    def test_round_trips_are_structural_identities(self):
        for name, c in CATS.items():
            pm = rpm_from_cat(c)
            assert rpm_from_cat(cat_from_rpm(pm)) == pm

    def test_round_trip_on_all_small_regular_magmas(self):
        for n in (1, 2):
            for pm in regular_tables(n):
                assert rpm_from_cat(cat_from_rpm(pm)) == pm

    def test_rejects_non_regular(self):
        with pytest.raises(ValueError, match="not a category"):
            cat_from_rpm(named_magmas()["nat_sub"])

    def test_objects_are_the_units_computed_once(self, monkeypatch):
        import liftlab.partial_magma as pm_module
        calls = []
        real = pm_module.units
        monkeypatch.setattr(pm_module, "units",
                            lambda pm: calls.append(pm) or real(pm))
        c = cat_from_rpm(rpm_from_cat(CATS["SQ"]))
        built = len(calls)  # classify's, in __post_init__
        for _ in range(3):
            assert c.objects == real(c.pm)
        assert len(calls) == built
        assert "objects" not in repr(c)


class TestHomSets:
    def test_single_arrow_category(self):
        two = CATS["2"]
        assert hom_set(two, 0, 1) == (2,)

    def test_identities_in_diagonal_homs(self):
        for c in CATS.values():
            for u in c.objects:
                assert u in hom_set(c, u, u)

    def test_triangle_composite_hom(self):
        three = CATS["3"]
        assert hom_set(three, 0, 2) == (three.labels.index("A31"),)

    def test_hom_sets_partition_the_arrows(self):
        for c in CATS.values():
            seen = []
            for u in c.objects:
                for v in c.objects:
                    seen.extend(hom_set(c, u, v))
            assert sorted(seen) == list(c.arrows)

    def test_endpoints_must_be_objects(self):
        with pytest.raises(ValueError):
            hom_set(CATS["2"], 2, 0)


class TestTwinCategory:
    def test_one_object_category_is_its_own_twin(self):
        tw = twin_category(CATS["1"])
        assert len(tw.category.objects) == 1 and tw.category.pm.n == 1

    def test_twin_of_single_arrow_category(self):
        tw = twin_category(CATS["2"])
        assert len(tw.category.objects) == 3
        assert tw.category.pm.n == 6

    def test_objects_match_arrow_count(self):
        for name in ("1", "II", "2", "3"):
            tw = twin_category(CATS[name])
            assert len(tw.category.objects) == CATS[name].pm.n

    def test_hom_recapture_on_triangle(self):
        three = CATS["3"]
        for u in three.objects:
            for v in three.objects:
                plain = hom_set(three, u, v)
                doubled = twin_hom_cases(three, u, v)
                assert {t.pair for t in doubled} == {(x, x) for x in plain}

    def test_identity_twin_arrows_are_pin_pairs(self):
        three = CATS["3"]
        tw = twin_category(three)
        for obj in tw.category.objects:
            t = tw.arrows[obj]
            assert t.source == t.target
            assert t.pair == (three.dom[t.source], three.cod[t.source])


class TestTwinHomCases:
    def test_object_to_object_is_diagonal(self):
        two = CATS["2"]
        assert [t.pair for t in twin_hom_cases(two, 0, 0)] == [(0, 0)]

    def test_object_to_arrow_fixture(self):
        three = CATS["3"]
        a32 = three.labels.index("A32")
        cases = twin_hom_cases(three, 0, a32)
        assert [t.pair for t in cases] == [(three.labels.index("A21"),
                                            three.labels.index("A31"))]

    def test_mismatched_endpoints_empty(self):
        three = CATS["3"]
        a21 = three.labels.index("A21")
        assert twin_hom_cases(three, a21, 0) == ()

    def test_object_source_case_formula(self):
        # squares out of an object: a free leg and its composite
        for c in (CATS["3"], CATS["SQ"]):
            for u in c.objects:
                for y in c.arrows:
                    if y in c.objects:
                        continue
                    expected = {(z1, c.compose(y, z1))
                                for z1 in hom_set(c, u, c.dom[y])}
                    got = {t.pair for t in twin_hom_cases(c, u, y)}
                    assert got == expected

    def test_object_target_case_formula(self):
        for c in (CATS["3"], CATS["SQ"]):
            for v in c.objects:
                for x in c.arrows:
                    if x in c.objects:
                        continue
                    expected = {(c.compose(z2, x), z2)
                                for z2 in hom_set(c, c.cod[x], v)}
                    got = {t.pair for t in twin_hom_cases(c, x, v)}
                    assert got == expected


class TestFunctors:
    def test_functor_counts(self):
        counts = {}
        for cname, dname in (("1", "2"), ("2", "2"), ("2", "3"), ("3", "3")):
            counts[(cname, dname)] = len(enumerate_functors(CATS[cname], CATS[dname]))
        assert counts[("1", "2")] == 2          # one per object
        assert counts[("2", "2")] == 3          # one per arrow
        assert counts[("2", "3")] == 6
        assert counts[("3", "3")] == 10

    def test_functors_preserve_structure(self):
        c, d = CATS["2"], CATS["3"]
        for f in enumerate_functors(c, d):
            assert validate_functor(f)
            for u in c.objects:
                assert f(u) in d.objects
            for x in c.arrows:
                for y in c.arrows:
                    xy = c.compose(x, y)
                    if xy is not None:
                        assert d.compose(f(x), f(y)) == f(xy)

    def test_invalid_functor_detected(self):
        two = CATS["2"]
        bad = Functor(two, two, (0, 1, 0))  # sends the arrow to an identity
        v = validate_functor(bad)
        assert not v


class TestTransformEncodings:
    def test_identity_nat_hom_extracts_identity_components(self):
        for c in (CATS["2"], CATS["3"]):
            ident = identity_nat_hom(identity_functor(c))
            tau = nat_from_hom(ident)
            assert tau.components == c.objects

    def test_interval_functors_along_a_factorization(self):
        # source functor picks the first leg of the triangle, target picks
        # the composite; the unique transformation fills in the other leg
        c, d = CATS["2"], CATS["3"]
        a21, a32, a31 = (d.labels.index(x) for x in ("A21", "A32", "A31"))
        t = next(f for f in enumerate_functors(c, d) if f.arrow_map[2] == a21)
        s = next(f for f in enumerate_functors(c, d) if f.arrow_map[2] == a31)
        homs = enumerate_nat_homs(t, s)
        assert len(homs) == 1
        tau = nat_from_hom(homs[0])
        assert tau.components == (d.labels.index("I1"), a32)

    def test_round_trips_both_ways(self):
        for cname, dname in (("1", "2"), ("2", "2"), ("2", "3"), ("3", "3")):
            functors = enumerate_functors(CATS[cname], CATS[dname])
            for t in functors:
                for s in functors:
                    homs = enumerate_nat_homs(t, s)
                    trans = enumerate_nat_trans(t, s)
                    assert len(homs) == len(trans)
                    for alpha in homs:
                        assert hom_from_nat(nat_from_hom(alpha)) == alpha
                    for tau in trans:
                        assert nat_from_hom(hom_from_nat(tau)) == tau

    def test_every_valid_hom_is_unital(self):
        # values at identity arrows are diagonal pairs, the units of the
        # horizontal multiplication
        c, d = CATS["2"], CATS["3"]
        for t in enumerate_functors(c, d):
            for s in enumerate_functors(c, d):
                for alpha in enumerate_nat_homs(t, s):
                    for u in c.objects:
                        z1, z2 = alpha.assignment[u]
                        assert z1 == z2

    def test_multiplicativity_exhaustive(self):
        from liftlab.partial_magma import hmul
        c, d = CATS["2"], CATS["3"]
        for t in enumerate_functors(c, d):
            for s in enumerate_functors(c, d):
                for alpha in enumerate_nat_homs(t, s):
                    for x in c.arrows:
                        for y in c.arrows:
                            xy = c.compose(x, y)
                            if xy is not None:
                                assert hmul(alpha.assignment[x],
                                            alpha.assignment[y]) == alpha.assignment[xy]

    def test_non_natural_family_rejected_with_square_witness(self):
        c, d = CATS["2"], CATS["3"]
        t = next(f for f in enumerate_functors(c, d) if f.arrow_map[2] == 3)
        s = next(f for f in enumerate_functors(c, d)
                 if f.arrow_map == (d.labels.index("I1"),) * 3)
        # components must live in hom(t(u), s(u)); any full states that
        # fail the square are rejected
        for comps in product(d.arrows, repeat=2):
            tau = NatTrans(t, s, comps)
            v = validate_nat_trans(tau)
            if not v:
                assert v.witness is not None
                break
        else:
            pytest.fail("expected an invalid family")

    def test_invalid_hom_rejected(self):
        c, d = CATS["2"], CATS["3"]
        fs = enumerate_functors(c, d)
        t, s = fs[0], fs[0]
        bad = NatHom(t, s, ((0, 1),) * 3)
        assert not validate_nat_hom(bad)
        with pytest.raises(ValueError):
            nat_from_hom(bad)


class TestComposition:
    def test_identity_is_neutral(self):
        c, d = CATS["2"], CATS["3"]
        fs = enumerate_functors(c, d)
        for t in fs:
            for s in fs:
                for alpha in enumerate_nat_homs(t, s):
                    assert compose_nat(alpha, identity_nat_hom(t)) == alpha
                    assert compose_nat(identity_nat_hom(s), alpha) == alpha

    def test_associativity_on_functor_category(self):
        fc = functor_category(CATS["2"], CATS["3"])
        arrows = fc.arrows
        for a in arrows:
            for b in arrows:
                if b.target != a.source:
                    continue
                ab = compose_nat(a, b)
                for c in arrows:
                    if c.target != b.source:
                        continue
                    assert compose_nat(ab, c) == compose_nat(a, compose_nat(b, c))

    def test_mismatched_functors_rejected(self):
        c, d = CATS["2"], CATS["3"]
        fs = enumerate_functors(c, d)
        alpha = identity_nat_hom(fs[0])
        beta = identity_nat_hom(fs[1])
        with pytest.raises(ValueError):
            compose_nat(beta, alpha)


def _assert_isomorphic(source: FiniteCategory, target: FiniteCategory, arrow_map):
    """A bijective arrow map that is a unital hom both ways."""
    assert sorted(arrow_map) == list(target.arrows)
    assert is_pm_hom(arrow_map, source.pm, target.pm, unital=True)
    inverse = [0] * len(arrow_map)
    for i, v in enumerate(arrow_map):
        inverse[v] = i
    assert is_pm_hom(inverse, target.pm, source.pm, unital=True)


class TestFunctorCategoryIsomorphisms:
    def test_functors_from_point_give_the_category_back(self):
        for name in ("2", "3"):
            c = CATS[name]
            fc = functor_category(CATS["1"], c)
            # an arrow T => S corresponds to its single component
            arrow_map = [nat_from_hom(alpha).components[0] for alpha in fc.arrows]
            _assert_isomorphic(fc.category, c, arrow_map)

    def test_functors_from_interval_give_the_twin_category(self):
        arrow_of_two = 2  # the only non-identity arrow of "2"
        for name in ("2", "3"):
            c = CATS[name]
            fc = functor_category(CATS["2"], c)
            tw = twin_category(c)
            index = {t: i for i, t in enumerate(tw.arrows)}
            arrow_map = []
            for alpha in fc.arrows:
                twin = TwinArrow(alpha.source(arrow_of_two),
                                 alpha.target(arrow_of_two),
                                 alpha.assignment[arrow_of_two])
                arrow_map.append(index[twin])
            _assert_isomorphic(fc.category, tw.category, arrow_map)


class TestExampleLibrary:
    def test_merged_library_keys(self):
        lib = example_library()
        for key in ("1", "2", "II", "3", "SQ", "M1", "M3", "MSQ", "nat_sub"):
            assert key in lib

    def test_magma_units_match_category_objects(self):
        lib = example_library()
        assert units(lib["M6"]) == lib["3"].objects
