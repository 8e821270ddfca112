import random
from collections import Counter
from itertools import combinations, permutations, product
from math import factorial

import pytest
from click.testing import CliRunner
from hypothesis import assume, given, settings, strategies as st

from liftlab import partial_magma
from liftlab.category_kernel import FiniteCategory
from liftlab.cli import main
from liftlab.partial_magma import (PartialMagma, RegularBuild, SweepReport, build_pm,
                                   classify, hmul, index_pair, interchange_check,
                                   interchange_sweep, matrix_magma,
                                   nat_subtraction_magma, pair_index, product_pm,
                                   regular_builds, regular_tables, search,
                                   single_unit_totality, square_pm, twin_pm, units,
                                   vmul)
from liftlab.suite import run_check
from liftlab.verdict import InternalCheckError, Verdict


def all_tables_array(n):
    """Every partial operation table on n elements, one row per table.

    Entries are -1 for undefined, else the product; there are (n+1)^(n*n)
    tables, in base-(n+1) digit order (cell c is the digit of weight
    (n+1)^c).
    """
    import numpy as np

    cells = n * n
    base = n + 1
    total = base ** cells
    idx = np.arange(total, dtype=np.int64)
    out = np.empty((total, cells), dtype=np.int8)
    for c in range(cells):
        out[:, c] = ((idx // (base ** c)) % base).astype(np.int8) - 1
    return out


def interchange_sweep_oracle(n, rows=None):
    """Brute force: the interchange law table by table, batched in numpy,
    over every table on n elements or over ``rows`` (flat tables).

    With H the horizontal table (``H[e, f]`` is ``hmul(e, f)``, read from
    ``twin_pm`` and so from ``hmul`` itself) and V the vertical table of an
    operation table (``V[e, f]`` gathers its two component cells), the law
    compares, for pairs x, z, x', z' with ``H[x', x]`` and ``H[z', z]``
    defined, the left side ``H[V[x',z'], V[x,z]]`` with the right side
    ``V[H[x',x], H[z',z]]``.
    """
    import numpy as np

    tables = all_tables_array(n) if rows is None else np.asarray(rows, dtype=np.int8)
    m = n * n
    undefined = m
    # Pair indices and the sentinel fit one small unsigned type, and so
    # does a flat index into H with its sentinel row and column.
    side = m + 1
    dtype = np.min_scalar_type(side * side - 1)
    h = np.full((side, side), undefined, dtype=dtype)
    h[:m, :m] = [[undefined if v is None else v for v in row] for row in twin_pm(n).table]
    # V[e, f] = (T[e1, f1], T[e2, f2]), flattened as e * m + f.
    e, f = np.divmod(np.arange(m * m), m)
    cell1 = (e // n) * n + f // n
    cell2 = (e % n) * n + f % n
    # Every quadruple (x, z, x', z') with H[x', x] and H[z', z] defined.
    hp, hq = np.nonzero(h[:m, :m] != undefined)
    i, j = np.divmod(np.arange(hp.size ** 2), hp.size)
    xp, x, zp, z = hp[i], hq[i], hp[j], hq[j]
    v_xz = x * m + z
    v_pzp = xp * m + zp
    v_rhs = h[xp, x].astype(np.intp) * m + h[zp, z]
    h_flat = h.ravel()
    both_defined = 0
    violations = 0
    for start in range(0, tables.shape[0], 1024):
        tb = tables[start:start + 1024].astype(np.intp)
        a = tb[:, cell1]
        b = tb[:, cell2]
        v = np.where((a < 0) | (b < 0), undefined, a * n + b).astype(dtype)
        lhs = h_flat[(v * dtype.type(side))[:, v_pzp] + v[:, v_xz]]
        rhs = v[:, v_rhs]
        both = (lhs != undefined) & (rhs != undefined)
        both_defined += int(np.count_nonzero(both))
        violations += int(np.count_nonzero(both & (lhs != rhs)))
    return SweepReport(tables.shape[0], n ** 8, both_defined, violations)


def _wrong_product(right):
    # (0,1) after (1,0) is (1,1); answer (0,0) instead
    return lambda x, y: (0, 0) if (x, y) == ((0, 1), (1, 0)) else right(x, y)


def _dropped_product(right):
    return lambda x, y: None if (x, y) == ((0, 0), (0, 0)) else right(x, y)


def pm_from_row(n, row):
    """The partial magma of one ``all_tables_array`` row (-1 is undefined)."""
    return build_pm(n, [[None if row[i * n + j] < 0 else int(row[i * n + j])
                         for j in range(n)] for i in range(n)])


def unital_table_indices(n):
    """Indices (into ``all_tables_array`` order) of the tables with a unit,
    by a vectorized scan of every table; also returns the tables."""
    import numpy as np

    tables = all_tables_array(n)
    unital = np.zeros(tables.shape[0], dtype=bool)
    for e in range(n):
        cond = tables[:, e * n + e] == e
        for y in range(n):
            if y == e:
                continue
            ey = tables[:, e * n + y]
            ye = tables[:, y * n + e]
            cond &= (ey == -1) | (ey == y)
            cond &= (ye == -1) | (ye == y)
        unital |= cond
    return np.nonzero(unital)[0], tables


def regular_tables_oracle(n):
    """Brute force: every table with a unit, classified.  Regularity
    implies unitality, so the pre-filter loses nothing."""
    idx, tables = unital_table_indices(n)
    pms = (pm_from_row(n, row) for row in tables[idx])
    return tuple(pm for pm in pms if classify(pm).regular)


def regular_builds_oracle(n):
    """Generate, then classify: every choice of units, pins and composites
    as ``regular_builds`` makes them, each table kept when ``classify`` finds
    it regular, in ``regular_builds``'s order."""
    found = []
    for k in range(1, n + 1):
        for us in combinations(range(n), k):
            others = [x for x in range(n) if x not in us]
            for pins in product(product(us, repeat=2), repeat=len(others)):
                pin = {u: (u, u) for u in us} | dict(zip(others, pins))
                cells = []
                for x, y in product(range(n), repeat=2):
                    if pin[x][0] != pin[y][1]:
                        cells.append([None])
                    elif x in us or y in us:
                        cells.append([y if x in us else x])
                    else:  # hom(dom y, cod x)
                        cells.append([z for z in range(n)
                                      if pin[z] == (pin[y][0], pin[x][1])])
                for flat in product(*cells):
                    pm = PartialMagma(n, tuple(flat[i:i + n] for i in range(0, n * n, n)))
                    if classify(pm).regular:
                        found.append(RegularBuild(pm, us,
                                                  tuple(pin[x] for x in range(n))))
    return tuple(sorted(found, key=lambda b: [-1 if v is None else v
                                              for row in b.pm.table[::-1]
                                              for v in row[::-1]]))


def is_pm_hom(f, source: PartialMagma, target: PartialMagma,
              unital: bool = False) -> Verdict:
    """Homomorphism check of the map x -> f[x]: defined products map to
    defined products with matching values; with ``unital``, units also map
    to units."""
    for x in range(source.n):
        if not 0 <= f[x] < target.n:
            return Verdict.fail(x, "image out of range")
    for x in range(source.n):
        for y in range(source.n):
            xy = source.op(x, y)
            if xy is None:
                continue
            img = target.op(f[x], f[y])
            if img is None:
                return Verdict.fail((x, y), "image product undefined")
            if img != f[xy]:
                return Verdict.fail((x, y), "image product has the wrong value")
    if unital:
        target_units = set(units(target))
        for u in units(source):
            if f[u] not in target_units:
                return Verdict.fail(u, "unit not sent to a unit")
    return Verdict.ok()


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

    def test_associativity_value_witness(self):
        # total, so every triple is defined on both sides: (1.0).1 = 1.1 = 0
        # but 1.(0.1) = 1.0 = 1
        c = classify(build_pm(2, ((0, 0), (1, 0))))
        assert not c.associative and c.assoc_witness == (1, 0, 1, "value")
        assert c.to_dict()["assoc_witness"] == [1, 0, 1, "value"]

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

    def test_product_pm_numbers_the_elements_by_position(self):
        pm = product_pm(["b", "a"], lambda x, y: x if x == y else None)
        assert pm == build_pm(2, [[0, None], [None, 1]])

    def test_product_pm_refuses_a_product_outside_the_elements(self):
        with pytest.raises(InternalCheckError, match="'ab' is not an element"):
            product_pm(["a", "b"], lambda x, y: x + y if x != y else x)

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

    @pytest.mark.parametrize("pm, cells", [
        (m6()[0], 10),
        (build_pm(5, [[(i + j) % 5 for j in range(5)] for i in range(5)]), 25),
    ], ids=["M6", "Z5"])
    def test_both_defined_is_cube_of_defined_cells(self, pm, cells):
        # a doubly defined quadruple is fixed by three defined cells:
        # (x1, z1), (x2, z2) and (x'2, z'2)
        assert sum(pm.defined(x, y) for x in range(pm.n) for y in range(pm.n)) == cells
        rep = interchange_check(pm)
        assert rep.holds and rep.both_defined == cells ** 3
        assert rep.quadruples == pm.n ** 8

    def test_sweep_matches_pure_loop_on_two_elements(self):
        # both-defined count table by table over all 81 tables, two
        # independent paths
        pure_total = 0
        for row in all_tables_array(2):
            pure = interchange_check(pm_from_row(2, row)).both_defined
            rep = interchange_sweep_oracle(2, rows=row[None])
            assert rep.violations == 0 and rep.both_defined == pure
            pure_total += pure
        rep = interchange_sweep(2)
        assert rep.violations == 0
        assert rep.both_defined == pure_total == 2088

    def test_sweep_matches_pure_loop_on_sampled_three_element_tables(self):
        rng = random.Random(9)
        rows = all_tables_array(3)
        sample = rows[sorted(rng.sample(range(rows.shape[0]), 40))]
        rep = interchange_sweep_oracle(3, rows=sample)
        pure_total = 0
        for row in sample:
            r = interchange_check(pm_from_row(3, row))
            assert r.holds
            pure_total += r.both_defined
        assert rep.violations == 0 and rep.both_defined == pure_total

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_sweep_matches_the_table_by_table_oracle(self, n):
        assert interchange_sweep(n) == interchange_sweep_oracle(n)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("fault", [_wrong_product, _dropped_product])
    def test_faulty_sweep_matches_the_table_by_table_oracle(self, monkeypatch,
                                                            fault, n):
        # the cells a quadruple reads come from the faulty products too
        monkeypatch.setattr(partial_magma, "hmul", fault(partial_magma.hmul))
        rep = interchange_sweep(n)
        assert rep == interchange_sweep_oracle(n)
        assert rep.both_defined < {2: 2088, 3: 89_358_336}[n]


class TestFaultInjection:
    """A broken pair product must show up as a failed check."""

    def test_faulty_hmul_breaks_the_sweep(self, monkeypatch):
        monkeypatch.setattr(partial_magma, "hmul", _wrong_product(partial_magma.hmul))
        assert interchange_sweep(2).violations > 0
        assert interchange_sweep(3).violations > 0

    def test_faulty_hmul_fails_the_report_check(self, monkeypatch):
        assert run_check("interchange_n2")["pass"]
        monkeypatch.setattr(partial_magma, "hmul", _wrong_product(partial_magma.hmul))
        assert not run_check("interchange_n2")["pass"]

    def test_undefined_hmul_fails_the_closed_form(self, monkeypatch):
        # dropping a product loses doubly-defined quadruples without any
        # value disagreeing, so only the closed-form count catches it
        monkeypatch.setattr(partial_magma, "hmul", _dropped_product(partial_magma.hmul))
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
        rep = interchange_check(pm)
        assert not rep.holds and len(rep.violations) == 8
        assert rep.violations[0] == ((0, 1), (0, 3), (1, 1), (3, 1), (0, 1), (1, 0))


class TestPins:
    def test_matrix_pins(self):
        pm, labels = m6()
        a32 = labels.index("A32")
        cat = FiniteCategory(pm)
        assert (cat.dom[a32], cat.cod[a32]) == (labels.index("I2"), labels.index("I3"))

    def test_units_are_their_own_pins(self):
        pm = m3()[0]
        cat = FiniteCategory(pm)
        for u in units(pm):
            assert (cat.dom[u], cat.cod[u]) == (u, u)

    def test_twin_pins_are_diagonal_pairs(self):
        cat = FiniteCategory(twin_pm(3))
        for e in range(cat.pm.n):
            x = index_pair(3, e)
            assert index_pair(3, cat.dom[e]) == (x[0], x[0])
            assert index_pair(3, cat.cod[e]) == (x[1], x[1])

    def test_chain_rule_fixture(self):
        pm, labels = m6()
        cat = FiniteCategory(pm)
        a21, a32 = labels.index("A21"), labels.index("A32")
        assert pm.defined(a32, a21) and cat.dom[a32] == cat.cod[a21]
        assert not pm.defined(a21, a32) and cat.dom[a21] != cat.cod[a32]
        assert pm.defined(0, 0) and cat.dom[0] == cat.cod[0]

    def test_chain_rule_exhaustive_on_regular_magmas(self):
        for pm in (*regular_tables(2), m3()[0], m6()[0], msq()[0], twin_pm(3)):
            assert verify_chain_rule(pm)
            pins = classify(pm).pins
            assert all(pm.defined(x, z) == (pins[x][0] == pins[z][1])
                       for x, z in product(range(pm.n), repeat=2))

    def test_chain_rule_failure_is_an_internal_error(self):
        # a magma whose definedness lies about one product of two non-units
        # (A32 after A21 in M6): units, fastening and associativity read
        # other cells or ``op``, so only the chain rule sees it
        pm, names = m6()
        a32, a21 = names.index("A32"), names.index("A21")

        class Lying(PartialMagma):
            def defined(self, x, y):
                return super().defined(x, y) != ((x, y) == (a32, a21))

        with pytest.raises(InternalCheckError,
                           match=rf"chain rule fails on a regular magma: \({a32}, {a21}\)"):
            classify(Lying(pm.n, pm.table))

    def test_pins_require_regularity(self):
        with pytest.raises(ValueError):
            FiniteCategory(nat_subtraction_magma(3))


def _fastening(pm, us):
    """Fastening by its own scan: every element has a unit on its left and
    one on its right."""
    for x in range(pm.n):
        if not any(pm.defined(u, x) for u in us):
            return False, (x, "left")
        if not any(pm.defined(x, u) for u in us):
            return False, (x, "right")
    return True, None


def verify_chain_rule(pm) -> Verdict:
    """Exhaustively, from its own units and pins: a product is defined iff
    the pins match."""
    us = units(pm)
    pins = {}
    for x in range(pm.n):
        doms = [u for u in us if pm.defined(x, u)]
        cods = [u for u in us if pm.defined(u, x)]
        if len(doms) != 1 or len(cods) != 1:
            return Verdict.fail(x, "pin not unique")
        pins[x] = (doms[0], cods[0])
    for x in range(pm.n):
        for z in range(pm.n):
            if pm.defined(x, z) != (pins[x][0] == pins[z][1]):
                return Verdict.fail((x, z), "definedness disagrees with the pins")
    return Verdict.ok()


def classify_by_separate_scans(pm):
    """The classification as ``to_dict`` prints it, and the (dom, cod) pins
    of a regular magma, each decided by a scan of its own: fastening,
    the chain rule, and a category's first unit on each side of an arrow."""
    us = units(pm)
    associative, aw = partial_magma._associativity(pm)
    if us:
        fastened, fw = _fastening(pm, us)
    else:
        fastened, fw = (pm.n == 0), None if pm.n == 0 else (0, "left")
    regular = bool(us) and associative and fastened
    pins = None
    if regular:
        assert verify_chain_rule(pm)
        pins = tuple((next(u for u in us if pm.defined(x, u)),
                      next(u for u in us if pm.defined(u, x))) for x in range(pm.n))
    total = all(pm.defined(x, y) for x in range(pm.n) for y in range(pm.n))
    return {"units": list(us), "unital": bool(us), "associative": associative,
            "assoc_witness": list(aw) if aw else None, "fastened": fastened,
            "fastened_witness": list(fw) if fw else None, "regular": regular,
            "total": total, "monoid": regular and len(us) == 1}, pins


def _every_table(n):
    for flat in product([None, *range(n)], repeat=n * n):
        yield build_pm(n, [flat[i * n:(i + 1) * n] for i in range(n)])


def _sampled_three_element_tables():
    """400 seeded tables on three elements: 200 of any kind, most with no
    unit, and 200 of the tables with a unit."""
    rng = random.Random(20)
    idx, tables = unital_table_indices(3)
    rows = rng.sample(range(tables.shape[0]), 200) + rng.sample(idx.tolist(), 200)
    return [pm_from_row(3, tables[r]) for r in rows]


class TestMergedPass:
    """``classify`` decides units' sides once; fastening, the chain rule and
    the pins a category reads must be what separate scans decide."""

    @staticmethod
    def _agree(pm):
        expected, pins = classify_by_separate_scans(pm)
        c = classify(pm)
        assert c.to_dict() == expected and c.pins == pins
        if pins is not None:
            cat = FiniteCategory(pm)
            assert tuple(zip(cat.dom, cat.cod)) == pins
        return c

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_every_table_up_to_two_elements(self, n):
        seen = [self._agree(pm) for pm in _every_table(n)]
        assert len(seen) == (n + 1) ** (n * n)

    def test_every_regular_three_element_table(self):
        for pm in regular_tables(3):
            assert self._agree(pm).regular

    def test_sampled_three_element_tables(self):
        witnesses = [self._agree(pm).fastened_witness
                     for pm in _sampled_three_element_tables()]
        assert (0, "left") in witnesses
        assert any(w is not None and w[1] == "right" for w in witnesses)
        assert witnesses.count(None) > 0


def unique_pins(pm):
    """Each element's one unit on each side, (dom, cod), by a scan of its
    own; None when some element has no unit or two on a side."""
    us = units(pm)
    pins = []
    for x in range(pm.n):
        doms = [u for u in us if pm.defined(x, u)]
        cods = [u for u in us if pm.defined(u, x)]
        if len(doms) != 1 or len(cods) != 1:
            return None
        pins.append((doms[0], cods[0]))
    return tuple(pins)


#: The parts of the pin lemma, as ``_pin_lemma_failure`` names them.
LEMMA_PARTS = ("chain rule", "pin rule", "associativity")


def lemma_parts(pm, pins):
    """Whether each part of the pin lemma holds, each by a scan of its own
    over all pairs or all triples: (a) x.y is defined iff dom x = cod y,
    (b) a defined x.y has pins (dom y, cod x), (c) the two sides of a
    triple with dom x = cod y and dom y = cod z are equal where both are
    defined.  Read with definedness, (a) and (c) would imply (b); read so,
    each part can fail alone."""
    def op(x, y):
        return None if x is None or y is None else pm.op(x, y)

    pairs = list(product(range(pm.n), repeat=2))
    chain = all(pm.defined(x, y) == (pins[x][0] == pins[y][1]) for x, y in pairs)
    pinned = all(pm.op(x, y) is None or pins[pm.op(x, y)] == (pins[y][0], pins[x][1])
                 for x, y in pairs)
    values = all(left is None or right is None or left == right
                 for x, y, z in product(range(pm.n), repeat=3)
                 if pins[x][0] == pins[y][1] and pins[y][0] == pins[z][1]
                 for left, right in [(op(op(x, y), z), op(x, op(y, z)))])
    return chain, pinned, values


def null_monoid(n):
    """0 is the unit and every product of two non-units is 1."""
    return build_pm(n, [[y if x == 0 else x if y == 0 else 1 for y in range(n)]
                        for x in range(n)])


#: Categories to break: every regular magma on two and three elements, the
#: triangle, the square, the null monoids on 3 and 4 elements, and the
#: vertical product of the single-arrow category.
CATEGORY_POOL = (*regular_tables(2), *regular_tables(3), m6()[0], msq()[0],
                 null_monoid(3), null_monoid(4), square_pm(m3()[0]))


@st.composite
def broken_categories(draw):
    """A category with one product of two non-units changed so that the
    named part of the pin lemma fails and the other two hold, and every
    element keeps its pins: (a) by dropping a product or defining one
    whose pins are right, (b) by a value with other pins, (c) by another
    value with the same pins."""
    pm = draw(st.sampled_from(CATEGORY_POOL))
    pins = classify(pm).pins
    part = draw(st.sampled_from(LEMMA_PARTS))
    arrows = [x for x in range(pm.n) if pins[x][0] != x]
    assume(arrows)
    x, y = draw(st.sampled_from(arrows)), draw(st.sampled_from(arrows))
    composable = pins[x][0] == pins[y][1]
    right = [v for v in range(pm.n) if pins[v] == (pins[y][0], pins[x][1])]
    if part == "chain rule":
        values = [None] if composable else right
    elif part == "pin rule":
        values = [v for v in range(pm.n) if v not in right] if composable else []
    else:
        values = [v for v in right if v != pm.op(x, y)] if composable else []
    assume(values)
    table = [list(row) for row in pm.table]
    table[x][y] = draw(st.sampled_from(values))
    broken = build_pm(pm.n, table)
    assume(unique_pins(broken) == pins)
    assume(lemma_parts(broken, pins) == tuple(p != part for p in LEMMA_PARTS))
    return broken, pins, part


class TestPinLemma:
    """Where every element has one unit on each side, ``classify`` decides
    associativity by the pin lemma, and the n^3 loop runs only to find the
    witness of a failure."""

    def test_equals_the_loop_on_every_three_element_table(self):
        pinned = 0
        for flat in product([None, 0, 1, 2], repeat=9):
            if all(flat[4 * x] != x for x in range(3)):
                continue  # no element is its own square, so no unit
            pm = PartialMagma(3, (flat[0:3], flat[3:6], flat[6:9]))
            pins = unique_pins(pm)
            if pins is None:
                continue
            pinned += 1
            loop = partial_magma._associativity(pm)
            c = classify(pm)
            assert (c.associative, c.assoc_witness) == loop
            assert (partial_magma._pin_lemma_failure(pm, pins) is None) == loop[0]
        assert pinned == 817

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_decides_every_regular_table_alone(self, n, monkeypatch):
        tables = regular_tables(n)

        def forbidden(pm):
            raise AssertionError("the loop ran on a regular magma")

        monkeypatch.setattr(partial_magma, "_associativity", forbidden)
        for pm in tables:
            pins = unique_pins(pm)
            assert partial_magma._pin_lemma_failure(pm, pins) is None
            assert all(lemma_parts(pm, pins))
            c = classify(pm)
            assert c.regular and c.associative and c.pins == pins

    @given(broken_categories())
    @settings(max_examples=150, deadline=None)
    def test_one_broken_part_matches_the_loop(self, drawn):
        pm, pins, part = drawn
        failure = partial_magma._pin_lemma_failure(pm, pins)
        assert failure is not None and failure[0] == part
        loop = partial_magma._associativity(pm)
        assert not loop[0]
        c = classify(pm)
        assert (c.associative, c.assoc_witness) == loop and not c.regular

    def test_a_loop_that_misses_a_refuted_law_is_an_internal_error(self, monkeypatch):
        # A32 after A21 in M6 made A21: defined where the pins match, with
        # the pins of A21, not those of A31
        pm, names = m6()
        a32, a21 = names.index("A32"), names.index("A21")
        table = [list(row) for row in pm.table]
        table[a32][a21] = a21
        broken = build_pm(pm.n, table)
        assert not classify(broken).associative
        monkeypatch.setattr(partial_magma, "_associativity", lambda pm: (True, None))
        with pytest.raises(InternalCheckError,
                           match=rf"pin rule fails on a regular magma: \({a32}, {a21}\)"):
            classify(broken)


class TestHomomorphisms:
    def test_identity_is_unital_hom(self):
        pm = m6()[0]
        assert is_pm_hom(list(range(pm.n)), pm, pm, unital=True)

    def test_square_of_function_is_twin_hom(self):
        # a function acts on pairs componentwise
        for u_size in (1, 2, 3):
            for v_size in (1, 2, 3):
                for f in product(range(v_size), repeat=u_size):
                    table = [pair_index(v_size, (f[i], f[j]))
                             for i, j in (index_pair(u_size, e)
                                          for e in range(u_size * u_size))]
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
        c = classify(pm)
        assert single_unit_totality(c)
        assert c.monoid

    def test_two_units_non_total(self):
        pm, _ = matrix_magma([(1, 1), (2, 2)])
        c = classify(pm)
        assert single_unit_totality(c)
        assert len(c.units) == 2 and not c.total

    def test_requires_regularity(self):
        with pytest.raises(ValueError):
            single_unit_totality(classify(nat_subtraction_magma(3)))


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
            assert regular_tables(n) == tuple(pure)
            assert regular_tables(n) is regular_tables(n)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_regular_tables_match_the_brute_force_oracle(self, n):
        # the same magmas in the same (all_tables_array) order
        assert regular_tables(n) == regular_tables_oracle(n)


def _kept(salt, prefix) -> bool:
    """A fixed pseudo-random verdict on each prefix."""
    return random.Random(repr((salt, prefix))).random() < 0.7


def _checking(constraints):
    """Each constraint (a, b, f) asks values[b] == f[values[a]]; checked
    once both are set, forcing nothing."""
    def propagate(values, i):
        return () if all(values[a] is None or values[b] is None or f[values[a]] == values[b]
                         for a, b, f in constraints if i in (a, b)) else None
    return propagate


def _forcing(constraints):
    """The same constraints, each forcing values[b] once values[a] is set,
    on to a fixed point."""
    def propagate(values, i):
        got, queue = {}, [i]
        while queue:
            j = queue.pop()
            for a, b, f in constraints:
                va, vb = (got.get(k, values[k]) for k in (a, b))
                if j not in (a, b) or va is None:
                    continue
                if vb is None:
                    got[b] = f[va]
                    queue.append(b)
                elif f[va] != vb:
                    return None
        return got.items()
    return propagate


_domains = st.lists(st.lists(st.integers(0, 3), unique=True, max_size=3), max_size=5)


@st.composite
def _constrained(draw):
    """Domains and functional constraints between their variables."""
    domains = draw(_domains)
    k = len(domains)
    constraints = draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1),
                                          st.lists(st.integers(0, 3), min_size=4,
                                                   max_size=4)),
                                max_size=4)) if k else []
    return domains, [(a, b, f) for a, b, f in constraints if a != b]


def _satisfying(domains, constraints):
    return [v for v in product(*domains) if all(f[v[a]] == v[b] for a, b, f in constraints)]


class _Outside(list):
    """A domain whose membership test is inverted; iterating it still gives
    its values."""

    def __contains__(self, value):
        return not list.__contains__(self, value)


class TestSearch:
    @given(st.lists(st.lists(st.integers(0, 3), max_size=3), max_size=5),
           st.integers(0, 1000))
    @settings(max_examples=200, deadline=None)
    def test_search_is_the_product_filtered_by_every_prefix(self, domains, salt):
        seen = []

        def propagate(values, i):
            seen.append(tuple(values[:i + 1]))
            return () if _kept(salt, tuple(values[:i + 1])) else None

        solutions, nodes = search(domains, propagate)
        assert solutions == [
            v for v in product(*domains)
            if all(_kept(salt, v[:i + 1]) for i in range(len(v)))]
        # propagate sees each prefix whose shorter prefixes were kept, set
        # from the domains, once per way of reaching it, and each is a node
        reached = Counter(p for k in range(1, len(domains) + 1)
                          for p in product(*domains[:k])
                          if all(_kept(salt, p[:i + 1]) for i in range(k - 1)))
        assert Counter(seen) == reached
        assert nodes == len(seen)

    def test_no_variables_and_an_empty_domain(self):
        assert search([], lambda values, i: None) == ([()], 0)
        assert search([[0, 1], []], lambda values, i: ()) == ([], 2)

    @given(_constrained())
    @settings(max_examples=200, deadline=None)
    def test_forcing_finds_what_checking_finds_in_no_more_nodes(self, problem):
        domains, constraints = problem
        checked, checked_nodes = search(domains, _checking(constraints))
        forced, forced_nodes = search(domains, _forcing(constraints))
        assert forced == checked == _satisfying(domains, constraints)
        assert forced_nodes <= checked_nodes

    @given(_constrained(), st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_a_permuted_order_finds_the_same_solutions(self, problem, rng):
        domains, constraints = problem
        order = list(range(len(domains)))
        rng.shuffle(order)
        for propagate in (_checking(constraints), _forcing(constraints)):
            solutions, _ = search(domains, propagate, order)
            assert sorted(solutions) == sorted(_satisfying(domains, constraints))

    def test_a_forced_value_outside_its_domain_is_a_clash(self):
        forces_two = lambda values, i: [(1, 2)] if i == 0 else ()
        assert search([[0], [0, 1]], forces_two) == ([], 1)
        assert search([[0], [0, 1, 2]], forces_two) == ([(0, 2)], 1)

    def test_a_forced_value_unequal_to_a_set_one_is_a_clash(self):
        # setting variable 1 to v forces variable 0 to v
        forces_back = lambda values, i: [(0, values[1])] if i == 1 else ()
        assert search([[0, 1], [1, 0]], forces_back) == ([(0, 0), (1, 1)], 6)

    def test_a_variable_outside_the_order_is_set_only_by_forcing(self):
        forces_last = lambda values, i: [(2, 5)] if values[0] else ()
        assert search([[0, 1], [0], [5]], forces_last, [0, 1]) == (
            [(0, 0, None), (1, 0, 5)], 4)


@pytest.fixture
def fresh_regular_builds():
    """No build made under a fault stays in the cache."""
    regular_builds.cache_clear()
    regular_tables.cache_clear()
    yield
    regular_builds.cache_clear()
    regular_tables.cache_clear()


def relabellings(pm: PartialMagma) -> list[tuple]:
    """The table of ``pm`` under each bijection p of its elements, in
    ``permutations`` order: p(x).p(y) = p(x.y)."""
    n, out = pm.n, []
    for p in permutations(range(n)):
        table = [[None] * n for _ in range(n)]
        for x, y in product(range(n), repeat=2):
            v = pm.table[x][y]
            table[p[x]][p[y]] = None if v is None else p[v]
        out.append(tuple(map(tuple, table)))
    return out


class TestRegularBuilds:
    @pytest.mark.parametrize("n,classes,labelled",
                             [(1, 1, 1), (2, 3, 5), (3, 11, 52), (4, 55, 973)])
    def test_the_classes_up_to_relabelling_are_the_categories(self, n, classes, labelled):
        # OEIS A125696 counts the categories with n arrows up to
        # isomorphism; a class stands for n!/|Aut| labelled tables, and the
        # tables found are closed under relabelling
        tables = {pm.table for pm in regular_tables(n)}
        orbits = {}
        for pm in regular_tables(n):
            images = relabellings(pm)
            assert tables.issuperset(images)
            orbits[frozenset(images)] = factorial(n) // images.count(pm.table)
        assert len(orbits) == classes
        assert sum(orbits.values()) == labelled == len(tables)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_search_matches_generate_then_classify(self, n):
        # the same magmas, units and pins, in the same order
        assert regular_builds(n) == regular_builds_oracle(n)

    def test_four_elements(self):
        builds = regular_builds(4)
        assert len(builds) == 973
        for b in builds:
            c = classify(b.pm)
            assert c.regular and (c.units, c.pins) == (b.units, b.pins)

    def test_a_unit_cell_forced_off_its_one_value_is_not_kept(self):
        # without the search's domain check, propagation forces the cells
        # (1, 2) and (2, 1) of the unit 1 off their one candidate, 2, and
        # the search keeps this table
        table = ((1, 0, 0), (0, 1, 1), (0, 1, 1))
        assert not classify(PartialMagma(3, table)).regular
        assert table not in [pm.table for pm in regular_tables(3)]

    @pytest.mark.parametrize("fault", [
        # a propagate that never rejects and forces nothing
        lambda domains, propagate, order=None: (domains, lambda values, i: (), order),
        # a search whose clash check is inverted: every forced value it
        # should keep clashes, and every one outside its domain is set
        lambda domains, propagate, order=None: ([_Outside(d) for d in domains],
                                                propagate, order),
    ], ids=["associativity ignored", "clash check inverted"])
    def test_a_faulty_search_is_an_internal_error(self, monkeypatch, fresh_regular_builds,
                                                   fault):
        real = partial_magma.search
        monkeypatch.setattr(partial_magma, "search", lambda *a: real(*fault(*a)))
        with pytest.raises(InternalCheckError, match="search kept a nonregular table"):
            regular_builds(3)
        regular_builds.cache_clear()
        result = CliRunner().invoke(main, ["report"])
        assert result.exit_code == 3
        assert result.stderr.startswith("internal error: search kept a nonregular table")
        assert result.stderr.count("\n") == 1
        assert result.stdout == ""


@given(st.integers(min_value=1, max_value=3), st.data())
@settings(max_examples=40, deadline=None)
def test_interchange_holds_on_random_tables(n, data):
    table = [[data.draw(st.one_of(st.none(), st.integers(0, n - 1)))
              for _ in range(n)] for _ in range(n)]
    assert interchange_check(build_pm(n, table)).holds
