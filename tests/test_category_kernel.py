import math
import time
from dataclasses import replace
from itertools import product

import pytest

import liftlab.category_kernel as category_kernel
import liftlab.partial_magma as partial_magma
from liftlab.category_kernel import (ENUMERATION_CAP, NAMED_SHAPES, FiniteCategory,
                                     Functor, NatHom, NatTrans, TwinArrow,
                                     compose_nat, enumerate_functors,
                                     enumerate_nat_homs, enumerate_nat_trans,
                                     functor_category, hom_from_nat, hom_recapture,
                                     hom_set, identity_nat_hom, named_category,
                                     named_magmas, nat_from_hom, twin_category,
                                     twin_hom_cases, validate_nat_hom,
                                     validate_nat_trans)
from liftlab.partial_magma import build_pm, matrix_magma, regular_tables, units
import liftlab.suite as suite
from liftlab.suite import natequiv_report, run_check
from liftlab.verdict import CapacityError, InternalCheckError, Verdict
from test_partial_magma import is_pm_hom, null_monoid


CATS = {name: named_category(name) for name in NAMED_SHAPES}
#: The arrow names of each named category ("A31" is the 3-by-1 arrow).
NAMES = {name: matrix_magma(shapes)[1] for name, shapes in NAMED_SHAPES.items()}


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
        lab = NAMES["SQ"]
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
    @pytest.mark.parametrize("named", [True, False])
    def test_swapped_pins_fail_the_report_check(self, monkeypatch, named):
        # one arrow with dom and cod swapped; without the named shapes the
        # regular magmas alone must catch it
        def swapped(pm):
            c = FiniteCategory(pm)
            x = next((x for x in c.arrows if c.dom[x] != c.cod[x]), None)
            if x is not None:
                dom, cod = list(c.dom), list(c.cod)
                dom[x], cod[x] = cod[x], dom[x]
                object.__setattr__(c, "dom", tuple(dom))
                object.__setattr__(c, "cod", tuple(cod))
            return c

        assert run_check("cat_rpm_roundtrips")["pass"]
        monkeypatch.setattr(suite, "FiniteCategory", swapped)
        if not named:
            monkeypatch.setattr(suite, "NAMED_SHAPES", {})
        out = run_check("cat_rpm_roundtrips")
        assert out["pass"] is False
        assert (out["witness"] == "2") == named

    def test_rejects_non_regular(self):
        with pytest.raises(ValueError, match="not a category"):
            FiniteCategory(named_magmas()["nat_sub"])

    def test_objects_are_the_units_computed_once(self, monkeypatch):
        import liftlab.partial_magma as pm_module
        calls = []
        real = pm_module.units
        monkeypatch.setattr(pm_module, "units",
                            lambda pm: calls.append(pm) or real(pm))
        c = FiniteCategory(CATS["SQ"].pm)
        built = len(calls)  # classify's, in __post_init__
        for _ in range(3):
            assert c.objects == real(c.pm)
        assert len(calls) == built
        assert "objects" not in repr(c)

    def test_positions_index_the_objects(self):
        for c in CATS.values():
            assert c.position == {u: c.objects.index(u) for u in c.objects}
            assert "position" not in repr(c)
        source, target = CATS["2"], CATS["3"]
        functors = enumerate_functors(source, target)
        for t in functors:
            for s in functors:
                for tau in enumerate_nat_trans(t, s):
                    assert tuple(tau.component(u) for u in source.objects) == tau.components


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
        assert hom_set(three, 0, 2) == (NAMES["3"].index("A31"),)

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
        assert hom_recapture(three, twin_category(three))

    def test_hom_recapture_fails_on_a_missing_twin_arrow(self):
        # drop the twin arrow (A21, A21) from the identity I1 to I2 of "2"
        two = CATS["2"]
        tw = twin_category(two)
        kept = tuple(t for t in tw.arrows if t != TwinArrow(0, 1, (2, 2)))
        assert len(kept) == len(tw.arrows) - 1
        v = hom_recapture(two, replace(tw, arrows=kept))
        assert not v and v.witness == (0, 1)

    def test_small_categories_have_twins_under_the_cap(self):
        sizes = [twin_category(c).category.pm.n for c in CATS.values()]
        assert max(sizes) == 36  # the square
        sizes = [twin_category(FiniteCategory(pm)).category.pm.n
                 for n in (1, 2, 3) for pm in regular_tables(n)]
        assert max(sizes) == 41 and max(sizes) ** 3 <= ENUMERATION_CAP

    @pytest.mark.parametrize("n, twin_arrows", [(4, 130), (5, 337), (6, 746), (8, 2626)])
    def test_null_monoid_twins_past_the_cap_are_refused(self, n, twin_arrows):
        # the null monoid: 0 is the unit, and every product of two
        # non-units is 1; past 5 elements its composable twin triples are
        # counted, never tabulated
        triples = {4: 167_062, 5: 1_887_797, 6: 14_168_516, 8: 339_858_506}[n]
        cat = FiniteCategory(null_monoid(n))
        if triples <= ENUMERATION_CAP:
            tw = twin_category(cat)
            assert tw.category.pm.n == twin_arrows and hom_recapture(cat, tw)
            return
        started = time.monotonic()
        with pytest.raises(CapacityError, match=f"{twin_arrows} twin arrows give "
                                                f"{triples} composable triples"):
            twin_category(cat)
        assert time.monotonic() - started < 5

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
        a32 = NAMES["3"].index("A32")
        cases = twin_hom_cases(three, 0, a32)
        assert [t.pair for t in cases] == [(NAMES["3"].index("A21"),
                                            NAMES["3"].index("A31"))]

    def test_mismatched_endpoints_empty(self):
        three = CATS["3"]
        a21 = NAMES["3"].index("A21")
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


def validate_functor(f: Functor) -> Verdict:
    """The functor laws as defined: a unital homomorphism of the arrow
    magmas that keeps every dom and cod."""
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


def _brute_force_functors(c: FiniteCategory, d: FiniteCategory) -> tuple[Functor, ...]:
    """Every arrow map, filtered by the functor laws: the oracle."""
    out = []
    for assignment in product(range(d.pm.n), repeat=c.pm.n):
        f = Functor(c, d, assignment)
        if validate_functor(f):
            out.append(f)
    return tuple(out)


REGULAR_CATS = [FiniteCategory(pm) for n in (1, 2, 3) for pm in regular_tables(n)]


class TestFunctorSearch:
    @pytest.mark.parametrize("cname, dname", [
        (a, b) for a in CATS for b in CATS
        if CATS[b].pm.n ** CATS[a].pm.n <= ENUMERATION_CAP])
    def test_named_pairs_match_the_brute_force(self, cname, dname):
        c, d = CATS[cname], CATS[dname]
        assert enumerate_functors(c, d) == _brute_force_functors(c, d)

    def test_small_regular_magmas_match_the_brute_force(self):
        # one-object monoids among them have hom-sets of two and three
        # arrows, so only these pairs exercise the composition pruning
        assert len(REGULAR_CATS) == 58
        assert any(len(c.objects) == 1 and c.pm.n == 3 for c in REGULAR_CATS)
        for c in REGULAR_CATS:
            for d in REGULAR_CATS:
                assert enumerate_functors(c, d) == _brute_force_functors(c, d)

    def test_cap_bounds_the_leaves_exactly(self, monkeypatch):
        # a three-arrow monoid to itself: one object map, and each of the
        # two non-identity arrows has three candidates, so 9 leaves
        m = next(c for c in REGULAR_CATS if len(c.objects) == 1 and c.pm.n == 3)
        monkeypatch.setattr(category_kernel, "ENUMERATION_CAP", 9)
        assert enumerate_functors(m, m) == _brute_force_functors(m, m)
        monkeypatch.setattr(category_kernel, "ENUMERATION_CAP", 8)
        with pytest.raises(CapacityError):
            enumerate_functors(m, m)

    def test_too_many_object_maps_refused_fast(self):
        n = 12
        discrete = FiniteCategory(build_pm(n, [[x if x == y else None for y in range(n)]
                                             for x in range(n)]))
        assert len(discrete.objects) == n
        started = time.monotonic()
        with pytest.raises(CapacityError):
            enumerate_functors(discrete, discrete)
        assert time.monotonic() - started < 0.5


def _poset(c: FiniteCategory) -> set[tuple[int, int]]:
    """The object order u <= v iff hom(u, v) is inhabited; c must be thin."""
    sizes = {(u, v): len(hom_set(c, u, v)) for u in c.objects for v in c.objects}
    assert max(sizes.values()) == 1
    return {uv for uv, k in sizes.items() if k}


def _monotone_counts(c: FiniteCategory, d: FiniteCategory) -> tuple[int, int]:
    """Monotone maps between the object orders, and pointwise-<= pairs of them."""
    le_c, le_d = _poset(c), _poset(d)
    maps = [dict(zip(c.objects, images))
            for images in product(d.objects, repeat=len(c.objects))]
    monotone = [f for f in maps if all((f[u], f[v]) in le_d for u, v in le_c)]
    pairs = sum(all((f[u], g[u]) in le_d for u in c.objects)
                for f in monotone for g in monotone)
    return len(monotone), pairs


class TestNatEquivOnNamedPairs:
    @pytest.mark.parametrize("cname, dname", [(a, b) for a in CATS for b in CATS])
    def test_appendix_claim_with_poset_counts(self, cname, dname):
        rep = natequiv_report(cname, dname)
        functors, pairs = _monotone_counts(CATS[cname], CATS[dname])
        assert rep["pass"] and rep["mismatched_pairs"] == []
        assert rep["functors"] == functors
        assert rep["arrow_indexed"] == rep["object_indexed"] == pairs

    def test_each_transformation_validated_once_per_encoding_step(self, monkeypatch):
        # 100 transformations: enumeration filters its candidates by the one
        # law they can break, and each converter checks only its own output
        calls = []
        for name in ("validate_nat_hom", "validate_nat_trans"):
            original = getattr(category_kernel, name)

            def counted(arg, _name=name, _original=original):
                calls.append(_name)
                return _original(arg)

            monkeypatch.setattr(category_kernel, name, counted)
        rep = natequiv_report("3", "SQ")
        assert rep["pass"] and rep["arrow_indexed"] == rep["object_indexed"] == 100
        assert calls.count("validate_nat_hom") == calls.count("validate_nat_trans") == 100

    def test_counts_past_the_old_cap(self):
        expected = {("3", "SQ"): (16, 100), ("SQ", "3"): (20, 168),
                    ("SQ", "SQ"): (36, 400)}
        for (cname, dname), counts in expected.items():
            assert _monotone_counts(CATS[cname], CATS[dname]) == counts


def _uncached_nat_homs(t: Functor, s: Functor) -> tuple[NatHom, ...]:
    """``enumerate_nat_homs`` with its candidates read from the square
    search behind the cache of ``twin_hom_cases``, one search per arrow."""
    d = t.target
    pointwise = [[tw.pair for tw in twin_hom_cases.__wrapped__(d, t(x), s(x))]
                 for x in t.source.arrows]
    return tuple(alpha for alpha in (NatHom(t, s, a) for a in product(*pointwise))
                 if validate_nat_hom(alpha))


class TestTwinPairCache:
    @pytest.mark.parametrize("cname, dname", [(a, b) for a in CATS for b in CATS])
    def test_nat_homs_match_the_uncached_search(self, cname, dname):
        functors = enumerate_functors(CATS[cname], CATS[dname])
        for t in functors:
            for s in functors:
                assert enumerate_nat_homs(t, s) == _uncached_nat_homs(t, s)

    def test_each_square_search_runs_once(self):
        # a cache miss is a search that ran; every later read is a hit
        twin_hom_cases.cache_clear()
        rep = natequiv_report("SQ", "SQ")
        assert rep["pass"] and rep["arrow_indexed"] == 400
        info = twin_hom_cases.cache_info()
        assert info.misses == info.currsize <= CATS["SQ"].pm.n ** 2
        assert info.hits > info.misses

    @pytest.mark.parametrize("cname, dname, calls", [("3", "SQ", 600), ("SQ", "SQ", 3600)])
    def test_twin_values_rechecked_only_by_the_converter(self, monkeypatch, cname, dname,
                                                         calls):
        # the enumeration draws every value from the square search, so only
        # hom_from_nat's output check tests values again: one call per arrow
        # of the source per transformation
        natequiv_report(cname, dname)  # every square search is cached now
        counted = []
        real = category_kernel.is_twin_arrow
        monkeypatch.setattr(category_kernel, "is_twin_arrow",
                            lambda *args: counted.append(args) or real(*args))
        rep = natequiv_report(cname, dname)
        assert rep["pass"]
        assert len(counted) == calls == rep["arrow_indexed"] * CATS[cname].pm.n


def _nat_hom_search_against_oracle(pairs) -> tuple[int, int]:
    """Functor pairs where ``enumerate_nat_homs`` differs from the
    product-then-validate oracle, and pairs where the oracle drops a leaf
    of the product, that is, where the multiplicativity law prunes."""
    differ = pruned = 0
    for t, s in pairs:
        expected = _uncached_nat_homs(t, s)
        differ += enumerate_nat_homs(t, s) != expected
        leaves = math.prod(len(twin_hom_cases(t.target, t(x), s(x))) for x in t.source.arrows)
        pruned += len(expected) < leaves
    return differ, pruned


#: Every functor pair from a regular category of at most 2 arrows to one of
#: at most 3.  The named categories are posets, where multiplicativity
#: prunes no leaf; here it prunes in 628 of the 1,518 pairs.
REGULAR_FUNCTOR_PAIRS = [(t, s) for c in REGULAR_CATS if c.pm.n <= 2 for d in REGULAR_CATS
                         for fs in (enumerate_functors(c, d),) for t in fs for s in fs]


class TestHomSearch:
    def test_nat_homs_match_the_oracle_where_the_law_prunes(self):
        assert len(REGULAR_FUNCTOR_PAIRS) == 1518
        assert _nat_hom_search_against_oracle(REGULAR_FUNCTOR_PAIRS) == (0, 628)

    def test_a_search_without_its_law_fails_where_the_law_prunes(self, monkeypatch):
        # no product checked anywhere: every leaf of the candidate product
        # comes back, so exactly the pairs where the law prunes differ
        monkeypatch.setattr(FiniteCategory, "products",
                            property(lambda cat: ((),) * cat.pm.n))
        assert _nat_hom_search_against_oracle(REGULAR_FUNCTOR_PAIRS) == (628, 628)

    @pytest.mark.parametrize("enumerate_, leaves", [
        (enumerate_nat_homs, 81),  # 3, 9 and 3 twin arrows at the three arrows
        (enumerate_nat_trans, 3)])  # the one hom-set has three arrows
    def test_cap_bounds_the_leaves_exactly(self, monkeypatch, enumerate_, leaves):
        # the identity functor of a three-arrow monoid, to itself
        m = next(c for c in REGULAR_CATS if len(c.objects) == 1 and c.pm.n == 3)
        ident = Functor(m, m, m.arrows)
        expected = enumerate_(ident, ident)
        monkeypatch.setattr(category_kernel, "ENUMERATION_CAP", leaves)
        assert enumerate_(ident, ident) == expected
        monkeypatch.setattr(category_kernel, "ENUMERATION_CAP", leaves - 1)
        with pytest.raises(CapacityError):
            enumerate_(ident, ident)


class TestTransformEncodings:
    def test_identity_nat_hom_extracts_identity_components(self):
        for c in (CATS["2"], CATS["3"]):
            ident = identity_nat_hom(Functor(c, c, c.arrows))
            tau = nat_from_hom(ident)
            assert tau.components == c.objects

    def test_interval_functors_along_a_factorization(self):
        # source functor picks the first leg of the triangle, target picks
        # the composite; the unique transformation fills in the other leg
        c, d = CATS["2"], CATS["3"]
        a21, a32, a31 = (NAMES["3"].index(x) for x in ("A21", "A32", "A31"))
        t = next(f for f in enumerate_functors(c, d) if f.arrow_map[2] == a21)
        s = next(f for f in enumerate_functors(c, d) if f.arrow_map[2] == a31)
        homs = enumerate_nat_homs(t, s)
        assert len(homs) == 1
        tau = nat_from_hom(homs[0])
        assert tau.components == (NAMES["3"].index("I1"), a32)

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
                 if f.arrow_map == (NAMES["3"].index("I1"),) * 3)
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
        with pytest.raises(InternalCheckError):
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


class TestFunctorCategoryOnNamedPairs:
    """The appendix claim on every ordered pair of named categories: the
    arrow-indexed transformations, composed vertically, form a category
    with one object per functor, the identity transformation, and as many
    arrows as ``natequiv_report`` counts (36/400 for SQ -> SQ, 16/100 for
    3 -> SQ, 20/168 for SQ -> 3, pinned in ``TestNatEquivOnNamedPairs``).
    The pin lemma decides associativity alone: on SQ -> SQ's 400 arrows
    the n^3 loop would visit 64M triples."""

    @pytest.mark.parametrize("cname, dname", [(a, b) for a in CATS for b in CATS])
    def test_a_category_with_one_object_per_functor(self, cname, dname, monkeypatch):
        def forbidden(pm):
            raise AssertionError("the n^3 associativity loop ran")

        monkeypatch.setattr(partial_magma, "_associativity", forbidden)
        fc = functor_category(CATS[cname], CATS[dname])
        rep = natequiv_report(cname, dname)
        assert len(fc.category.objects) == len(fc.functors) == rep["functors"]
        assert fc.category.pm.n == len(fc.arrows) == rep["arrow_indexed"]
        assert ([fc.arrows[u] for u in fc.category.objects]
                == [identity_nat_hom(f) for f in fc.functors])


class TestExampleLibrary:
    def test_merged_library_keys(self):
        for key in ("1", "2", "II", "3", "SQ"):
            assert named_category(key).pm.n == len(NAMED_SHAPES[key])
        for key in ("M1", "M3", "MSQ", "nat_sub"):
            assert key in named_magmas()

    def test_magma_units_match_category_objects(self):
        assert units(named_magmas()["M6"]) == named_category("3").objects
