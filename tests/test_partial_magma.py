import random
from itertools import product


import pytest
from hypothesis import given, settings, strategies as st

from liftlab import partial_magma
from liftlab.category_kernel import cat_from_rpm
from liftlab.partial_magma import (all_tables_array,
                                   build_pm, classify,
                                   hmul, index_pair, interchange_check,
                                   interchange_sweep, is_pm_hom, matrix_magma,
                                   nat_subtraction_magma, pair_index,
                                   pm_from_row, regular_tables,
                                   single_unit_totality, square_of_function,
                                   square_pm, twin_pm, unital_table_indices,
                                   units, verify_chain_rule, vmul)
from liftlab.suite import run_check


def m3():
    return matrix_magma([(1, 1), (2, 2), (2, 1)])


def m6():
    return matrix_magma([(1, 1), (2, 2), (3, 3), (2, 1), (3, 2), (3, 1)])


def msq():
    return matrix_magma([(1, 1), (2, 2), (3, 3), (4, 4),
                         (2, 1), (3, 2), (3, 1), (4, 1), (3, 4)])


class TestBuildPm:
    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            build_pm(2, [[None, None]])

    def test_rejects_out_of_range_entry(self):
        with pytest.raises(ValueError):
            build_pm(2, [[2, None], [None, None]])

    @pytest.mark.parametrize("entry", [0.5, 1.0, True, "1"])
    def test_rejects_non_integer_entry(self, entry):
        with pytest.raises(ValueError, match="not an element"):
            build_pm(2, [[entry, None], [None, None]])

    def test_truncated_subtraction_table(self):
        pm = nat_subtraction_magma(3)
        assert pm.op(3, 1) == 2
        assert pm.op(1, 3) is None

    def test_empty_operation(self):
        pm = build_pm(2, [[None, None], [None, None]])
        assert units(pm) == ()


class TestClassify:
    def test_truncated_subtraction(self):
        c = classify(nat_subtraction_magma(3))
        assert c.units == (0,)
        assert not c.associative
        assert not c.fastened and c.fastened_witness == (1, "left")
        assert not c.regular and not c.total and not c.monoid

    def test_one_element_total_magma_is_monoid(self):
        c = classify(build_pm(1, [[0]]))
        assert c.monoid and c.total and c.regular

    def test_two_identities_magma(self):
        pm, labels = m3()[0], m3()[1]
        c = classify(pm)
        assert labels == ("I1", "I2", "A21")
        assert c.units == (0, 1) and c.regular and not c.total

    def test_matrix_relations(self):
        pm, labels = m3()
        i1, i2, a21 = 0, 1, 2
        assert pm.op(a21, i1) == a21 == pm.op(i2, a21)
        assert pm.op(i1, a21) is None

    def test_discrete_two_objects_products_undefined(self):
        pm, labels = matrix_magma([(1, 1), (2, 2)])
        assert pm.op(0, 1) is None and pm.op(1, 0) is None
        c = classify(pm)
        assert c.regular and len(c.units) == 2 and not c.total

    def test_square_composition(self):
        pm, labels = msq()
        a21, a32, a31, a41, a34 = (labels.index(x)
                                   for x in ("A21", "A32", "A31", "A41", "A34"))
        assert pm.op(a32, a21) == a31
        assert pm.op(a34, a41) == a31

    def test_twin_magma_units_are_diagonal(self):
        pm = twin_pm(2)
        assert units(pm) == (pair_index(2, (0, 0)), pair_index(2, (1, 1)))
        assert classify(pm).regular

    def test_relabeling_invariance(self):
        rng = random.Random(4)
        for _ in range(60):
            n = rng.randint(1, 4)
            table = [[rng.choice([None] + list(range(n))) for _ in range(n)]
                     for _ in range(n)]
            pm = build_pm(n, table)
            perm = list(range(n))
            rng.shuffle(perm)
            relabeled = [[None if table[i][j] is None else perm[table[i][j]]
                          for j in range(n)] for i in range(n)]
            shuffled = [[None] * n for _ in range(n)]
            for i in range(n):
                for j in range(n):
                    shuffled[perm[i]][perm[j]] = relabeled[i][j]
            other = build_pm(n, shuffled)
            a, b = classify(pm), classify(other)
            assert a.associative == b.associative
            assert a.fastened == b.fastened
            assert a.regular == b.regular and a.total == b.total
            assert tuple(sorted(perm[u] for u in a.units)) == b.units


class TestPairProducts:
    def test_horizontal_erases_middle(self):
        assert hmul(("b", "c"), ("a", "b")) == ("a", "c")
        assert hmul(("a", "a"), ("a", "a")) == ("a", "a")
        assert hmul(("a", "b"), ("a", "b")) is None

    def test_vertical_componentwise(self):
        pm, labels = m6()
        a21, a32, a31 = labels.index("A21"), labels.index("A32"), labels.index("A31")
        assert vmul(pm, (a32, a32), (a21, a21)) == (a31, a31)
        assert vmul(pm, (0, 0), (0, 0)) == (0, 0)
        assert vmul(pm, (a21, a21), (a32, a32)) is None

    def test_square_pm_of_regular_is_regular(self):
        for pm in (m3()[0], m6()[0], twin_pm(2)):
            assert classify(square_pm(pm)).regular

    def test_twin_pm_regular_up_to_three(self):
        for n in (1, 2, 3):
            assert classify(twin_pm(n)).regular

    def test_square_pm_projections_are_homs(self):
        pm = m3()[0]
        sq = square_pm(pm)
        p1 = [index_pair(pm.n, e)[0] for e in range(sq.n)]
        p2 = [index_pair(pm.n, e)[1] for e in range(sq.n)]
        assert is_pm_hom(p1, sq, pm)
        assert is_pm_hom(p2, sq, pm)

    def test_square_pm_pairing_universal_property(self):
        # any pair of homs into the factors passes uniquely through the square
        pm = m3()[0]
        sq = square_pm(pm)
        source = twin_pm(2)
        constant_unit = [0] * source.n  # constant at a unit is always a hom
        diag_unit = [1] * source.n
        assert is_pm_hom(constant_unit, source, pm)
        pairing = [pair_index(pm.n, (constant_unit[e], diag_unit[e]))
                   for e in range(source.n)]
        assert is_pm_hom(pairing, source, sq)
        back1 = [index_pair(pm.n, pairing[e])[0] for e in range(source.n)]
        back2 = [index_pair(pm.n, pairing[e])[1] for e in range(source.n)]
        assert back1 == constant_unit and back2 == diag_unit


class TestInterchange:
    def test_every_two_element_table(self):
        for row in all_tables_array(2):
            rep = interchange_check(pm_from_row(2, row))
            assert rep.holds

    def test_empty_operation_is_vacuous(self):
        pm = build_pm(2, [[None, None], [None, None]])
        rep = interchange_check(pm)
        assert rep.holds and rep.both_defined == 0

    def test_matrix_magma(self):
        rep = interchange_check(m3()[0])
        assert rep.holds and rep.both_defined > 0

    def test_guard_on_large_carriers(self):
        big = build_pm(6, [[None] * 6 for _ in range(6)])
        with pytest.raises(ValueError):
            interchange_check(big)
        forced = build_pm(5, [[None] * 5 for _ in range(5)])
        assert interchange_check(forced, force=True).holds

    @pytest.mark.parametrize("pm, cells", [
        (m6()[0], 10),
        (build_pm(5, [[(i + j) % 5 for j in range(5)] for i in range(5)]), 25),
    ], ids=["M6", "Z5"])
    def test_both_defined_is_cube_of_defined_cells(self, pm, cells):
        # a doubly defined quadruple is fixed by three defined cells:
        # (x1, z1), (x2, z2) and (x'2, z'2)
        assert sum(pm.defined(x, y) for x in range(pm.n) for y in range(pm.n)) == cells
        rep = interchange_check(pm, force=True)
        assert rep.holds and rep.both_defined == cells ** 3
        assert rep.quadruples == pm.n ** 8

    def test_sweep_matches_pure_loop_on_two_elements(self):
        # both-defined count table by table over all 81 tables, two
        # independent paths
        rows = all_tables_array(2)
        pure_total = 0
        for row in rows:
            pure = interchange_check(pm_from_row(2, row)).both_defined
            rep = interchange_sweep(2, rows=row[None])
            assert rep.violations == 0 and rep.both_defined == pure
            pure_total += pure
        rep = interchange_sweep(2)
        assert rep.violations == 0
        assert rep.both_defined == pure_total == 2088

    def test_sweep_matches_pure_loop_on_sampled_three_element_tables(self):
        rng = random.Random(9)
        rows = all_tables_array(3)
        sample = rows[sorted(rng.sample(range(rows.shape[0]), 40))]
        rep = interchange_sweep(3, rows=sample)
        pure_total = 0
        for row in sample:
            r = interchange_check(pm_from_row(3, row))
            assert r.holds
            pure_total += r.both_defined
        assert rep.violations == 0 and rep.both_defined == pure_total


class TestFaultInjection:
    """A broken pair product must show up as a failed check."""

    @staticmethod
    def _wrong_on_one_pair(monkeypatch):
        right = partial_magma.hmul

        def wrong(x, y):
            # (0,1) after (1,0) is (1,1); answer (0,0) instead
            return (0, 0) if (x, y) == ((0, 1), (1, 0)) else right(x, y)

        monkeypatch.setattr(partial_magma, "hmul", wrong)

    def test_faulty_hmul_breaks_the_sweep(self, monkeypatch):
        rng = random.Random(9)
        rows = all_tables_array(3)
        sample = rows[sorted(rng.sample(range(rows.shape[0]), 40))]
        self._wrong_on_one_pair(monkeypatch)
        assert interchange_sweep(2).violations > 0
        assert interchange_sweep(3, rows=sample).violations > 0

    def test_faulty_hmul_fails_the_report_check(self, monkeypatch):
        assert run_check("interchange_n2")["pass"]
        self._wrong_on_one_pair(monkeypatch)
        assert not run_check("interchange_n2")["pass"]

    def test_undefined_hmul_fails_the_closed_form(self, monkeypatch):
        # dropping a product loses doubly-defined quadruples without any
        # value disagreeing, so only the closed-form count catches it
        right = partial_magma.hmul
        monkeypatch.setattr(partial_magma, "hmul", lambda x, y: (
            None if (x, y) == ((0, 0), (0, 0)) else right(x, y)))
        out = run_check("interchange_n2")
        assert out["sweep"]["violations"] == 0
        assert out["sweep"]["both_defined"] < 2088 and not out["pass"]

    def test_faulty_vmul_breaks_interchange_check(self, monkeypatch):
        right = partial_magma.vmul

        def wrong(pm, x, y):
            # (0,1) . (0,0) is (0,1) in the group Z/2; answer (1,0) instead
            return (1, 0) if (x, y) == ((0, 1), (0, 0)) else right(pm, x, y)

        pm = build_pm(2, [[0, 1], [1, 0]])
        assert interchange_check(pm).holds
        monkeypatch.setattr(partial_magma, "vmul", wrong)
        assert not interchange_check(pm).holds

    def test_faulty_vmul_breaks_interchange_check_on_m6(self, monkeypatch):
        right = partial_magma.vmul

        def wrong(pm, x, y):
            # (I1,I2) . (I1,I2) is (I1,I2); answer (I2,I1) instead
            return (1, 0) if (x, y) == ((0, 1), (0, 1)) else right(pm, x, y)

        # Z/2's faulty pair above is undefined in M6, so it breaks nothing here
        pm = m6()[0]
        monkeypatch.setattr(partial_magma, "vmul", wrong)
        rep = interchange_check(pm, force=True)
        assert not rep.holds and len(rep.violations) == 8
        assert rep.violations[0] == ((0, 1), (0, 3), (1, 1), (3, 1), (0, 1), (1, 0))


class TestPins:
    def test_matrix_pins(self):
        pm, labels = m6()
        a32 = labels.index("A32")
        cat = cat_from_rpm(pm)
        assert (cat.dom[a32], cat.cod[a32]) == (labels.index("I2"), labels.index("I3"))

    def test_units_are_their_own_pins(self):
        pm = m3()[0]
        cat = cat_from_rpm(pm)
        for u in units(pm):
            assert (cat.dom[u], cat.cod[u]) == (u, u)

    def test_twin_pins_are_diagonal_pairs(self):
        cat = cat_from_rpm(twin_pm(3))
        for e in range(cat.pm.n):
            x = index_pair(3, e)
            assert index_pair(3, cat.dom[e]) == (x[0], x[0])
            assert index_pair(3, cat.cod[e]) == (x[1], x[1])

    def test_chain_rule_fixture(self):
        pm, labels = m6()
        cat = cat_from_rpm(pm)
        a21, a32 = labels.index("A21"), labels.index("A32")
        assert pm.defined(a32, a21) and cat.dom[a32] == cat.cod[a21]
        assert not pm.defined(a21, a32) and cat.dom[a21] != cat.cod[a32]
        assert pm.defined(0, 0) and cat.dom[0] == cat.cod[0]

    def test_chain_rule_exhaustive_on_regular_magmas(self):
        for pm in regular_tables(2):
            assert verify_chain_rule(pm)
        for pm in (m3()[0], m6()[0], msq()[0], twin_pm(3)):
            assert verify_chain_rule(pm)

    def test_pins_require_regularity(self):
        with pytest.raises(ValueError):
            cat_from_rpm(nat_subtraction_magma(3))


class TestHomomorphisms:
    def test_identity_is_unital_hom(self):
        pm = m6()[0]
        assert is_pm_hom(list(range(pm.n)), pm, pm, unital=True)

    def test_square_of_function_is_twin_hom(self):
        for u_size in (1, 2, 3):
            for v_size in (1, 2, 3):
                for f in product(range(v_size), repeat=u_size):
                    mapped = square_of_function(f, u_size, v_size)
                    table = [mapped(e) for e in range(u_size * u_size)]
                    assert is_pm_hom(table, twin_pm(u_size), twin_pm(v_size),
                                     unital=True)

    def test_unit_to_non_unit_fails_unital_check(self):
        # the target's element 0 is idempotent but not a unit (0.1 = 0)
        target = build_pm(2, [[0, 0], [None, 1]])
        assert units(target) == (1,)
        source = build_pm(1, [[0]])
        assert is_pm_hom([0], source, target)
        v = is_pm_hom([0], source, target, unital=True)
        assert not v and v.reason == "unit not sent to a unit"

    def test_product_violation_has_witness(self):
        source = build_pm(2, [[0, None], [None, None]])
        target = build_pm(2, [[None, None], [None, None]])
        v = is_pm_hom([0, 1], source, target)
        assert not v and v.witness == (0, 0)


class TestSingleUnitTotality:
    def test_monoid_fixture(self):
        pm, _ = matrix_magma([(1, 1)])
        assert single_unit_totality(pm)
        assert classify(pm).monoid

    def test_two_units_non_total(self):
        pm, _ = matrix_magma([(1, 1), (2, 2)])
        assert single_unit_totality(pm)
        c = classify(pm)
        assert len(c.units) == 2 and not c.total

    def test_requires_regularity(self):
        with pytest.raises(ValueError):
            single_unit_totality(nat_subtraction_magma(3))


class TestSweepInfrastructure:
    def test_all_tables_count(self):
        assert all_tables_array(2).shape == (81, 4)
        assert all_tables_array(3).shape == (4 ** 9, 9)

    def test_unital_prefilter_agrees_with_units(self):
        idx, tables = unital_table_indices(3)
        member = set(idx.tolist())
        rng = random.Random(2)
        for code in rng.sample(range(tables.shape[0]), 200):
            pm = pm_from_row(3, tables[code])
            assert (code in member) == (len(units(pm)) > 0)

    def test_regular_tables_small_counts_match_pure_filter(self):
        for n in (1, 2):
            pure = [pm_from_row(n, row) for row in all_tables_array(n)
                    if classify(pm_from_row(n, row)).regular]
            assert len(regular_tables(n)) == len(pure)
            assert regular_tables(n) is regular_tables(n)


@given(st.integers(min_value=1, max_value=3), st.data())
@settings(max_examples=40, deadline=None)
def test_interchange_holds_on_random_tables(n, data):
    table = [[data.draw(st.one_of(st.none(), st.integers(0, n - 1)))
              for _ in range(n)] for _ in range(n)]
    assert interchange_check(build_pm(n, table)).holds
