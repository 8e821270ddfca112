import random
from itertools import product
from operator import itemgetter

import pytest
from click.testing import CliRunner

import liftlab.yoneda_finite as yf

from liftlab.cli import main
from liftlab.filter_calculus import (Filter, is_ultrafilter, limit_along,
                                     principal_ultrafilter)
from liftlab.lebesgue_diff import kernel_from_lifting, lower_density_from_kernel
from liftlab.measure_algebra import SetTransform
from liftlab.measure_space import averageable_code, averageable_sets
from liftlab.yoneda_finite import (ProbeFamily, TauCandidate,
                                   adjunction_bijection, all_functions,
                                   beta_space, compose,
                                   composite_indices, default_probes,
                                   enumerate_natural, is_natural, kernel_from_tau,
                                   tau_from_kernel, yoneda_roundtrip)
from liftlab.verdict import CapacityError, InternalCheckError, Verdict

LAMBDA_A = (0, 5, 2, 7, 0, 5, 2, 7)


def delta_kernel(z_len, points):
    """The principal ultrafilters at ``points`` of Z = range(z_len)."""
    return tuple(principal_ultrafilter((1 << z_len) - 1, p) for p in points)


def _loop_is_natural(tau, morphisms=all_functions):
    """The square-by-square loop that ``is_natural`` replaced, kept as its
    oracle; ``morphisms(s, t)`` lists the probe maps s -> t to check."""
    z_len = len(tau.z_ground)
    sizes = tau.probes.sizes
    for s in sizes:
        for t in sizes:
            for phi in morphisms(s, t):
                for fn in all_functions(z_len, s):
                    if tau.value(t, compose(phi, fn)) != compose(phi, tau.value(s, fn)):
                        return Verdict.fail((s, t, phi, fn), "naturality square broken")
    return Verdict.ok()


def _from_tables(z_ground, x_count, probes, tables):
    """A candidate from tuple-keyed tables {size: {input: output}}."""
    rows = {s: tuple(all_functions(x_count, s).index(tables[s][fn])
                     for fn in all_functions(len(z_ground), s))
            for s in probes.sizes}
    return TauCandidate(tuple(z_ground), x_count, probes, rows)


def _raw_candidates(z_len, x_count):
    """Every raw table over the default probes, natural or not, built as
    tuple-keyed tables in their lexicographic order."""
    probes = default_probes(z_len)
    keys = [(s, fn) for s in probes.sizes for fn in all_functions(z_len, s)]
    for combo in product(*(all_functions(x_count, s) for s, _ in keys)):
        tables = {s: {} for s in probes.sizes}
        for (s, fn), out in zip(keys, combo):
            tables[s][fn] = out
        yield _from_tables(range(z_len), x_count, probes, tables)


RAW_CAP = 500_000


def raw_table_space(z_len, x_count, probes):
    total = 1
    for s in probes.sizes:
        total *= (s ** x_count) ** (s ** z_len)
    return total


def enumerate_natural_raw(z_ground, x_count, probes):
    """Brute force, the oracle of the search: every raw table in
    lexicographic order, filtered by naturality."""
    z_ground = tuple(z_ground)
    if raw_table_space(len(z_ground), x_count, probes) > RAW_CAP:
        raise CapacityError("raw table space exceeds the enumeration cap")
    sizes = probes.sizes
    out = []
    for combo in product(*(product(range(s ** x_count), repeat=s ** len(z_ground))
                           for s in sizes)):
        tau = TauCandidate(z_ground, x_count, probes, dict(zip(sizes, combo)))
        if is_natural(tau):
            out.append(tau)
    return out


def _row_set(candidates):
    return {tuple(c.rows.items()) for c in candidates}


def _plain_order(z_len, sizes):
    return [(s, i) for s in sizes for i in range(s ** z_len)]


def _limit_value(filters, fn):
    """The output at ``fn`` taken literally: its limit along each filter.
    Z is range(n), so the input's value at element e is ``fn[e]``."""
    return tuple(limit_along(f, lambda e: fn[e]) for f in filters)


def _kernel_candidates(z_len, x_count):
    return [tau_from_kernel(delta_kernel(z_len, points), default_probes(z_len))
            for points in product(range(z_len), repeat=x_count)]


def _with_entry(tau, s, fn, out):
    row = list(tau.rows[s])
    row[all_functions(len(tau.z_ground), s).index(fn)] = \
        all_functions(tau.x_count, s).index(out)
    return TauCandidate(tau.z_ground, tau.x_count, tau.probes,
                        {**tau.rows, s: tuple(row)})


class TestBetaSpace:
    def test_point_count(self):
        assert len(beta_space(0b110)) == 2

    def test_delta_bijective_on_s1_ground(self, s1):
        points = beta_space(averageable_code(s1))
        assert len(points) == 6
        assert len({p.kernel for p in points}) == 6

    def test_empty_ground_rejected(self):
        with pytest.raises(ValueError):
            beta_space(0)


class TestTauFromKernel:
    def test_constant_kernel_gives_constant_assignment(self):
        probes = default_probes(3)
        tau = tau_from_kernel(delta_kernel(3, (1, 1)), probes)
        for s in probes.sizes:
            for fn in all_functions(3, s):
                assert tau.value(s, fn) == (fn[1], fn[1])

    def test_requires_ultrafilters(self):
        with pytest.raises(ValueError, match="ultrafilter"):
            tau_from_kernel((Filter(0b11, 0b11), ), default_probes(2))

    def test_output_is_natural_for_every_kernel(self):
        probes = default_probes(3)
        for points in product(range(3), repeat=2):
            tau = tau_from_kernel(delta_kernel(3, points), probes)
            assert is_natural(tau)

    @pytest.mark.parametrize("z_len,x_count", [(3, 2), (4, 1)])
    def test_rows_are_the_limits_along_the_kernel(self, z_len, x_count):
        probes = default_probes(z_len)
        for points in product(range(z_len), repeat=x_count):
            kernel = delta_kernel(z_len, points)
            tau = tau_from_kernel(kernel, probes)
            for s in probes.sizes:
                for fn in all_functions(z_len, s):
                    assert tau.value(s, fn) == _limit_value(kernel, fn)


class TestTauCandidate:
    def _rows(self):
        # the (2, 1) candidate of the kernel at point 1
        return {1: (0,), 2: (0, 1, 0, 1)}

    def test_accepts_a_well_shaped_candidate(self):
        tau = TauCandidate((0, 1), 1, default_probes(2), self._rows())
        assert tau.value(2, (1, 0)) == (0,)

    @pytest.mark.parametrize("rows", [{1: (0,)},
                                      {1: (0,), 2: (0, 1, 0, 1), 3: (0,) * 9}],
                             ids=["missing", "extra"])
    def test_rejects_missing_or_extra_sizes(self, rows):
        with pytest.raises(ValueError, match="probe sizes"):
            TauCandidate((0, 1), 1, default_probes(2), rows)

    @pytest.mark.parametrize("row", [(0, 1, 0), (0, 1, 0, 1, 0)])
    def test_rejects_a_row_of_the_wrong_length(self, row):
        with pytest.raises(ValueError, match="needs 4 entries"):
            TauCandidate((0, 1), 1, default_probes(2), {1: (0,), 2: row})

    @pytest.mark.parametrize("row", [(0, 1, 2, 1), (0, 1, -1, 1)],
                             ids=["too-large", "negative"])
    def test_rejects_an_out_of_range_entry(self, row):
        with pytest.raises(ValueError, match="out of range"):
            TauCandidate((0, 1), 1, default_probes(2), {1: (0,), 2: row})


class TestKernelFromTau:
    def test_recovers_the_kernel(self):
        probes = default_probes(2)
        for points in product(range(2), repeat=2):
            kernel = delta_kernel(2, points)
            assert kernel_from_tau(tau_from_kernel(kernel, probes)) == kernel

    def test_requires_the_ultrafilter_probe(self):
        z = (0, 1, 2)
        probes = default_probes(3)
        tau = tau_from_kernel(delta_kernel(3, (0,)), probes)
        small = ProbeFamily((1, 2))
        clipped = TauCandidate(z, 1, small,
                               {s: tau.rows[s] for s in small.sizes})
        with pytest.raises(ValueError, match="ultrafilter probe"):
            kernel_from_tau(clipped)

    def test_non_natural_candidate_fails_roundtrip(self):
        z = (0, 1)
        probes = default_probes(2)
        naturals, _ = enumerate_natural(z, 1, probes)
        # corrupt one non-tautological entry; extraction still runs
        corrupted = _with_entry(naturals[0], 2, (0, 0), (1,))
        assert not is_natural(corrupted)
        kernel = kernel_from_tau(corrupted)
        assert tau_from_kernel(kernel, probes).rows != corrupted.rows


class TestEnumeration:
    def test_raw_counts(self):
        assert len(enumerate_natural_raw((0,), 1, default_probes(1))) == 1
        assert len(enumerate_natural_raw((0, 1), 1, default_probes(2))) == 2
        assert len(enumerate_natural_raw((0, 1), 2, default_probes(2))) == 4

    @pytest.mark.parametrize("z_len,x_count", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_raw_order_is_the_order_of_the_tuple_tables(self, z_len, x_count):
        raw = enumerate_natural_raw(range(z_len), x_count, default_probes(z_len))
        assert [c.rows for c in raw] == [c.rows for c in _raw_candidates(z_len, x_count)
                                         if _loop_is_natural(c)]

    def test_raw_cap_guard(self):
        with pytest.raises(ValueError, match="cap"):
            enumerate_natural_raw((0, 1, 2), 1, default_probes(3))

    @pytest.mark.parametrize("z_len,x_count", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_search_matches_raw_where_raw_runs(self, z_len, x_count):
        z = tuple(range(z_len))
        probes = default_probes(z_len)
        candidates, _ = enumerate_natural(z, x_count, probes)
        assert len(candidates) == len(_row_set(candidates))
        assert _row_set(candidates) == _row_set(enumerate_natural_raw(z, x_count, probes))

    def test_enumerate_picks_the_feasible_mode(self):
        # one search, feasible on both sides of the raw cap that once chose
        # between the brute force and the per-kernel construction
        for z_len, x_count in ((2, 1), (3, 1)):
            z = tuple(range(z_len))
            probes = default_probes(z_len)
            within = raw_table_space(z_len, x_count, probes) <= RAW_CAP
            assert within == (z_len == 2)
            candidates, nodes = enumerate_natural(z, x_count, probes)
            assert len(candidates) == nodes == z_len ** x_count
            assert all(is_natural(c) for c in candidates)

    @pytest.mark.parametrize("z_len,x_count,plain_nodes", [(2, 2, 5), (3, 1, 39)])
    def test_plain_input_order_finds_the_same_candidates(self, monkeypatch, z_len,
                                                         x_count, plain_nodes):
        # the order changes the cost only.  A clash-free complete assignment
        # satisfies every square, so each leaf the search reaches is natural
        z = tuple(range(z_len))
        probes = default_probes(z_len)
        ordered, _ = enumerate_natural(z, x_count, probes)
        verdicts = []
        original = yf.is_natural

        def recorded(tau):
            verdicts.append(original(tau))
            return verdicts[-1]

        monkeypatch.setattr(yf, "is_natural", recorded)
        monkeypatch.setattr(yf, "_search_order", _plain_order)
        plain, nodes = enumerate_natural(z, x_count, probes)
        assert nodes == plain_nodes
        assert len(verdicts) == len(plain) and all(verdicts)
        assert _row_set(plain) == _row_set(ordered)


class TestNaturalityOracle:
    """``is_natural`` against the square-by-square loop: same verdict, same
    first witness, same reason."""

    def test_every_raw_table(self):
        seen = naturals = 0
        for z_len, x_count in ((1, 1), (1, 2), (2, 1), (2, 2)):
            for tau in _raw_candidates(z_len, x_count):
                verdict = is_natural(tau)
                assert verdict == _loop_is_natural(tau)
                seen += 1
                naturals += verdict.holds
        assert (seen, naturals) == (292, 1 + 1 + 2 + 4)

    def test_every_single_entry_corruption_at_3_1(self):
        count = 0
        for base in _kernel_candidates(3, 1):
            assert is_natural(base) == _loop_is_natural(base) == Verdict.ok()
            for s in base.probes.sizes:
                for fn in all_functions(3, s):
                    out = base.value(s, fn)
                    for other in all_functions(1, s):
                        if other != out:
                            tau = _with_entry(base, s, fn, other)
                            verdict = is_natural(tau)
                            assert not verdict
                            assert verdict == _loop_is_natural(tau)
                            count += 1
        assert count == 3 * (8 * 1 + 27 * 2)

    @pytest.mark.parametrize("z_len,x_count,per_base", [(3, 2, 20), (4, 1, 20)])
    def test_seeded_corruptions(self, z_len, x_count, per_base):
        rng = random.Random(10 * z_len + x_count)
        for base in _kernel_candidates(z_len, x_count):
            for _ in range(per_base):
                s = rng.choice([s for s in base.probes.sizes if s > 1])
                fn = rng.choice(all_functions(z_len, s))
                other = rng.choice([o for o in all_functions(x_count, s)
                                    if o != base.value(s, fn)])
                tau = _with_entry(base, s, fn, other)
                verdict = is_natural(tau)
                assert not verdict
                assert verdict == _loop_is_natural(tau)

    @pytest.mark.parametrize("z_len,x_count", [(3, 1), (3, 2), (4, 1)])
    def test_seeded_assignments(self, z_len, x_count):
        rng = random.Random(100 * z_len + x_count)
        probes = default_probes(z_len)
        for _ in range(30):
            rows = {s: tuple(rng.randrange(s ** x_count) for _ in range(s ** z_len))
                    for s in probes.sizes}
            tau = TauCandidate(tuple(range(z_len)), x_count, probes, rows)
            assert is_natural(tau) == _loop_is_natural(tau)

    def test_break_seen_only_through_non_surjective_maps(self):
        # the size-2 table sends each constant input to the other constant:
        # only the squares out of the one-point probe, and the constant
        # maps 2 -> 2, see it; every square with a bijective phi holds
        base = _kernel_candidates(2, 1)[0]
        tau = _with_entry(_with_entry(base, 2, (0, 0), (1,)), 2, (1, 1), (0,))

        def bijections(s, t):
            return tuple(phi for phi in all_functions(s, t) if len(set(phi)) == t == s)

        assert _loop_is_natural(tau, bijections) == Verdict.ok()
        verdict = is_natural(tau)
        assert verdict == _loop_is_natural(tau)
        assert verdict.witness == (1, 2, (0,), (0, 0))

    def test_composite_indices_number_the_composites(self):
        for n, s, t in ((0, 2, 3), (2, 3, 2), (3, 2, 3)):
            targets = all_functions(n, t)
            for phi, row in zip(all_functions(s, t), composite_indices(n, s, t)):
                assert [targets[i] for i in row] == [compose(phi, g)
                                                     for g in all_functions(n, s)]


def _rule_candidate(z_len, rule):
    """The x_count = 1 candidate over the default probes whose output at
    fn: Z -> s is ``rule(s, fn)``."""
    probes = default_probes(z_len)
    return TauCandidate(tuple(range(z_len)), 1, probes,
                        {s: tuple(rule(s, fn) for fn in all_functions(z_len, s))
                         for s in probes.sizes})


def _repeated_value(fn, otherwise):
    """The value fn takes at two points or more, else ``otherwise``."""
    return next((v for v in fn if fn.count(v) > 1), otherwise)


#: Per kind of generating map, a non-natural candidate that all the other
#: kinds let through.  On |Z| = 1 the size-2 table sends both constants to
#: 0 (only the swap sees it) or reverses them (natural for bijections only;
#: the inclusion sees it).  On |Z| = 3 the output is the value taken twice,
#: and at a bijective input its first value (natural for every injective
#: map; merges see it) or the point 2 (only the cycle sees it).
ONLY_SEEN_BY = {
    "transposition": _rule_candidate(1, lambda s, fn: 0),
    "inclusion": _rule_candidate(1, lambda s, fn: s - 1 - fn[0]),
    "merge": _rule_candidate(3, lambda s, fn: _repeated_value(fn, fn[0])),
    "cycle": _rule_candidate(3, lambda s, fn: _repeated_value(fn, 2)),
}


def _kind(s, t, phi):
    if t == s + 1:
        return "inclusion"
    if t == s - 1:
        return "merge"
    return "transposition" if phi[:2] == (1, 0) else "cycle"


class TestGeneratorLemma:
    """The maps that ``is_natural`` checks first generate every probe map,
    and each kind of them is needed."""

    @pytest.fixture(autouse=True)
    def fresh_squares(self):
        yf._generator_squares.cache_clear()
        yield
        yf._generator_squares.cache_clear()

    @pytest.mark.parametrize("k,count", [(1, 0), (2, 3), (3, 7), (4, 11), (5, 15)])
    def test_generators_generate_every_probe_map(self, k, count):
        generators = yf._generating_maps(k)
        assert len(generators) == count
        reached = {(s, s, tuple(range(s))) for s in range(1, k + 1)}
        frontier = set(reached)
        while frontier:
            frontier = {(s, u, compose(psi, phi)) for s, t, phi in frontier
                        for t2, u, psi in generators if t2 == t} - reached
            reached |= frontier
        assert reached == {(s, t, phi) for s in range(1, k + 1) for t in range(1, k + 1)
                           for phi in all_functions(s, t)}

    @pytest.mark.parametrize("dropped", sorted(ONLY_SEEN_BY))
    def test_each_kind_of_generator_is_needed(self, monkeypatch, dropped):
        tau = ONLY_SEEN_BY[dropped]
        verdict = _loop_is_natural(tau)
        assert not verdict and is_natural(tau) == verdict
        original = yf._generating_maps
        monkeypatch.setattr(yf, "_generating_maps", lambda k: tuple(
            g for g in original(k) if _kind(*g) != dropped))
        yf._generator_squares.cache_clear()
        assert is_natural(tau)

    def test_a_generator_failing_where_no_square_does_is_an_internal_error(self,
                                                                          monkeypatch):
        # a fake square: the identity on the one-point probe, with its X
        # side off by one
        monkeypatch.setattr(yf, "_generator_squares",
                            lambda z_len, x_count, k: ((1, 1, itemgetter(0), (1,)),))
        with pytest.raises(InternalCheckError, match="generating map"):
            is_natural(_kernel_candidates(2, 1)[0])

    def test_other_families_run_the_loop(self, monkeypatch):
        monkeypatch.setattr(yf, "_generator_squares", None)
        probes = ProbeFamily((1, 3))
        tau = tau_from_kernel(delta_kernel(2, (1,)), probes)
        assert is_natural(tau) == _loop_is_natural(tau) == Verdict.ok()
        broken = _with_entry(tau, 3, (0, 1), (2,))
        assert is_natural(broken) == _loop_is_natural(broken)
        assert not is_natural(broken)


class TestYonedaRoundtrip:
    @pytest.mark.parametrize("z_size,x_size", [(z, x) for z in (1, 2, 3, 4)
                                               for x in (1, 2, 3)])
    def test_count_and_composites(self, z_size, x_size):
        # one search node per candidate at every CLI size
        report = yoneda_roundtrip(z_size, x_size)
        assert report.candidate_count == report.search_nodes == z_size ** x_size
        assert report.all_pass

    @pytest.mark.parametrize("z_size,x_size", [(2, 2), (3, 2)])
    def test_each_kernel_builds_its_candidate_once(self, monkeypatch, z_size, x_size):
        built = []
        original = yf.tau_from_kernel

        def counted(filters, probes):
            built.append(filters)
            return original(filters, probes)

        monkeypatch.setattr(yf, "tau_from_kernel", counted)
        report = yoneda_roundtrip(z_size, x_size)
        assert report.all_pass
        assert len(built) == len(set(built)) == z_size ** x_size

    @pytest.mark.parametrize("z_size,x_size", [(2, 2), (3, 2), (4, 1)])
    def test_off_by_one_extraction_fails_the_kernel_roundtrip(self, monkeypatch,
                                                              z_size, x_size):
        original = yf.kernel_from_tau

        def off_by_one(tau):
            # the kernel bit of point i is 1 << i; move it to point i + 1
            z_len = len(tau.z_ground)
            return tuple(principal_ultrafilter(f.ground, f.kernel.bit_length() % z_len)
                         for f in original(tau))

        monkeypatch.setattr(yf, "kernel_from_tau", off_by_one)
        report = yoneda_roundtrip(z_size, x_size)
        assert report.roundtrip_kernels_ok is False
        assert report.roundtrip_candidates_ok is False
        assert not report.all_pass


class TestSearchFaults:
    """Each fault in the search or in what the report compares it with
    fails ``yoneda_roundtrip`` at |Z| = 3: a search that keeps a leaf that
    is not natural raises ``InternalCheckError``."""

    @pytest.mark.parametrize("x_size", [1, 2])
    def test_one_forced_value_off_by_one(self, monkeypatch, x_size):
        original = yf._forcings

        def off_by_one(z_len, x_count, sizes):
            maps = original(z_len, x_count, sizes)
            # the last probe map out of size |Z|: the constant onto its last point
            t, on_z, on_x = maps[z_len][-1]
            bumped = ((on_x[0] + 1) % t ** x_count,) + on_x[1:]
            maps[z_len][-1] = (t, on_z, bumped)
            return maps

        monkeypatch.setattr(yf, "_forcings", off_by_one)
        # a clash-free leaf under the wrong forcing breaks a square
        with pytest.raises(InternalCheckError, match="not natural"):
            yoneda_roundtrip(3, x_size)

    @pytest.mark.parametrize("x_size", [1, 2])
    def test_is_natural_rejecting_one_valid_candidate(self, monkeypatch, x_size):
        # a complete clash-free assignment satisfies every square, so a
        # leaf that is_natural rejects is an internal error, not a count
        original = yf.is_natural
        calls = []

        def rejects_the_first(tau):
            calls.append(tau)
            if len(calls) == 1:
                return Verdict.fail(None, "rejected")
            return original(tau)

        monkeypatch.setattr(yf, "is_natural", rejects_the_first)
        with pytest.raises(InternalCheckError, match="not natural"):
            yoneda_roundtrip(3, x_size)
        assert original(calls[0])
        calls.clear()
        result = CliRunner().invoke(main, ["yoneda", "roundtrip", "--z-size", "3",
                                           "--x-size", str(x_size)])
        assert result.exit_code == 3
        assert result.stderr.startswith("internal error: the search kept a candidate")
        assert result.stderr.count("\n") == 1
        assert result.stdout == ""

    @pytest.mark.parametrize("x_size", [1, 2])
    def test_non_natural_kernel_candidate_fails_roundtrip(self, monkeypatch, x_size):
        original = yf.tau_from_kernel

        def corrupted(filters, probes):
            tau = original(filters, probes)
            out = tau.value(2, (0, 0, 0))
            return _with_entry(tau, 2, (0, 0, 0), tuple(1 - v for v in out))

        monkeypatch.setattr(yf, "tau_from_kernel", corrupted)
        assert not is_natural(corrupted(delta_kernel(3, (0,) * x_size),
                                        default_probes(3)))
        report = yoneda_roundtrip(3, x_size)
        assert report.candidate_count == 3 ** x_size and report.bijection_ok
        assert report.roundtrip_kernels_ok
        assert report.roundtrip_candidates_ok is False
        assert not report.all_pass


class TestCrossModuleAgreement:
    def test_lifting_kernel_assignment_reproduces_the_density(self, s1):
        # the two-point-probe assignment of the lifting's kernel, applied
        # to the 0/1 mean-value profile of a set, recovers the set picked
        # by the induced density
        lifting = SetTransform(s1, LAMBDA_A)
        kernel = kernel_from_lifting(lifting)
        density = lower_density_from_kernel(kernel)
        # Z is range(8), every set mask of s1; the kernel's filters live on
        # its averageable members and never read the sets 0 and 0b100
        z_len = s1.full_mask + 1
        ground = averageable_sets(s1)
        probes = ProbeFamily((1, 2))
        tau = tau_from_kernel(kernel.filters, probes)
        assert len(tau.z_ground) == z_len
        from liftlab.measure_space import indicator
        from liftlab.lebesgue_diff import lebesgue_transform
        for s in probes.sizes:
            for fn in all_functions(z_len, s):
                assert tau.value(s, fn) == _limit_value(kernel.filters, fn)
        for q in range(s1.full_mask + 1):
            lam = lebesgue_transform(indicator(s1, q))
            profile = tuple(1 if z in ground and lam(z) == 1 else 0
                            for z in range(z_len))
            picked = tau.value(2, profile)
            mask = sum(1 << x for x in range(s1.n) if picked[x] == 1)
            assert mask == density.table[q]

    def test_kernel_entries_are_ultrafilters(self, s1):
        kernel = kernel_from_lifting(SetTransform(s1, LAMBDA_A))
        assert all(is_ultrafilter(f) for f in kernel.filters)


class TestAdjunction:
    def test_single_point_exponent(self):
        report = adjunction_bijection(1, 4)
        assert report.set_side == report.top_side == 4
        assert report.all_pass

    def test_two_by_three(self):
        report = adjunction_bijection(2, 3)
        assert report.set_side == report.top_side == 9
        assert report.all_pass

    def test_three_by_two(self):
        assert adjunction_bijection(3, 2).all_pass


class TestProbeFamily:
    def test_needs_one_point_space(self):
        with pytest.raises(ValueError):
            ProbeFamily((2, 3))

    def test_default_contains_one_and_z(self):
        assert default_probes(1).sizes == (1, 2)
        assert default_probes(3).sizes == (1, 2, 3)
