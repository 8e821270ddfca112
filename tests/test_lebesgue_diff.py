import json
import random
from collections import Counter
from fractions import Fraction

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import liftlab.lebesgue_diff as leb
import liftlab.measure_algebra as ma
from liftlab.cli import main
from liftlab.filter_calculus import Filter, principal_ultrafilter, tail_filter
from liftlab.lebesgue_diff import (NOT_REACHED, FilterKernel,
                                   basis_from_lifting, differentiates,
                                   kernel_from_lifting, lebesgue_transform,
                                   limiting_operator, lower_density_from_kernel,
                                   random_total_fn, recovers, verify_theorem1)
from liftlab.measure_algebra import BooleanHom, SetTransform, enumerate_liftings
from liftlab.measure_space import (PartialFn, averageable_code, averageable_sets,
                                   bits, build_space, indicator, total_fn)
from liftlab.verdict import THEOREM1_BUDGET, CapacityError, Verdict
from test_measure_space import measure

A, B, N = 1, 2, 4
LAMBDA_A = (0, 5, 2, 7, 0, 5, 2, 7)
LAMBDA_B = (0, 1, 6, 7, 0, 1, 6, 7)


def lambda_a_kernel(s1):
    return kernel_from_lifting(SetTransform(s1, LAMBDA_A))


def trivial_kernel(space):
    ground = averageable_code(space)
    return FilterKernel(space, tuple(Filter(ground, ground)
                                     for _ in range(space.n)))


class TestLebesgueTransform:
    def test_worked_fixture(self, s1):
        lam = lebesgue_transform(total_fn(s1, [2, 4, 100]))
        assert lam.values == {1: 2, 2: 4, 3: 3, 5: 2, 6: 4, 7: 3}

    def test_constant_function_has_constant_means(self, s1):
        lam = lebesgue_transform(total_fn(s1, [5, 5, 5]))
        assert set(lam.values.values()) == {5}

    def test_matches_conditional_probability(self, s1):
        # mean of an indicator over a set = conditional probability
        for q in range(8):
            lam = lebesgue_transform(indicator(s1, q))
            for ref in averageable_sets(s1):
                assert lam(ref) == measure(s1, q & ref) / measure(s1, ref)

    def test_representative_independence(self, s1):
        full = total_fn(s1, [2, 4, 100])
        other = total_fn(s1, [2, 4, -9])
        partial = PartialFn(s1, (Fraction(2), Fraction(4), None))
        assert (lebesgue_transform(full).values
                == lebesgue_transform(other).values
                == lebesgue_transform(partial).values)

    def test_rejects_functions_undefined_on_positive_atoms(self, s1):
        with pytest.raises(ValueError, match="almost everywhere"):
            lebesgue_transform(PartialFn(s1, (Fraction(1), None, None)))

    def test_injective_on_indicator_classes(self, s1):
        seen = {}
        for q in range(8):
            key = tuple(sorted(lebesgue_transform(indicator(s1, q)).values.items()))
            cls = q & s1.pos_mask
            assert seen.setdefault(key, cls) == cls

    def test_injective_on_random_functions(self, s1):
        rng = random.Random(11)
        for _ in range(40):
            f = random_total_fn(s1, rng)
            g = random_total_fn(s1, rng)
            same_class = all(f(i) == g(i) for i in (0, 1))
            same_transform = (lebesgue_transform(f).values
                              == lebesgue_transform(g).values)
            assert same_class == same_transform


#: Weights whose denominators differ, some far apart, and the null weight.
MIXED_WEIGHTS = ("1/3", "0.25", "2/7", "1/999999937", "5", "3/4", "0")


@st.composite
def spaces_and_functions(draw):
    """A space of at most six atoms and a function on it, undefined on a
    drawn part of the null atoms.  Weights and values may mix
    denominators, some of them far apart."""
    weight = st.one_of(st.fractions(0, 5, max_denominator=4),
                       st.sampled_from(MIXED_WEIGHTS).map(Fraction))
    weights = draw(st.lists(weight, min_size=1, max_size=6))
    if not any(weights):
        weights[0] = 1
    space = build_space(weights)
    value = st.one_of(st.fractions(-20, 20, max_denominator=6),
                      st.builds(Fraction, st.integers(-40, 40),
                                st.sampled_from([7, 12, 999999937])))
    values = tuple(draw(value)
                   if (space.pos_mask >> x) & 1 or draw(st.booleans()) else None
                   for x in range(space.n))
    return space, PartialFn(space, values)


def eager_means(space, f):
    return {q: sum((f(i) * space.weights[i] for i in bits(q & f.domain)), Fraction(0))
               / measure(space, q)
            for q in averageable_sets(space)}


class TestLazyMeans:
    @settings(max_examples=100, deadline=None)
    @given(spaces_and_functions(), st.randoms(use_true_random=False))
    def test_every_mean_equals_the_eager_formula(self, case, rng):
        space, f = case
        eager = eager_means(space, f)
        lam = lebesgue_transform(f)
        order = list(averageable_sets(space))
        rng.shuffle(order)
        for q in order + order:  # a second read comes from the cache
            assert lam(q) == lam.values[q] == eager[q]
        assert dict(lam.values) == eager and lam.values == eager

    @settings(max_examples=50, deadline=None)
    @given(spaces_and_functions())
    def test_key_error_off_the_averageable_sets(self, case):
        space, f = case
        values = lebesgue_transform(f).values
        for q in (0, space.full_mask + 1, -1, *range(1, space.full_mask + 1)):
            if q in averageable_sets(space):
                assert q in values
                continue
            assert q not in values
            with pytest.raises(KeyError):
                values[q]

    def test_null_sets_raise_key_error(self, s2):
        values = lebesgue_transform(total_fn(s2, [1, 2, 3, 4])).values
        for q in (0, 4, 8, 12):
            with pytest.raises(KeyError):
                values[q]

    def test_length_and_keys_compute_no_mean(self, s2, monkeypatch):
        lam = lebesgue_transform(total_fn(s2, [1, 2, 3, 4]))
        read = []
        monkeypatch.setattr(leb, "bits", lambda q: read.append(q) or bits(q))
        assert len(lam.values) == len(averageable_sets(s2)) == 12
        assert list(lam.values) == list(averageable_sets(s2))
        assert read == []
        assert lam(3) == Fraction(3, 2) and read == [3]


def mismatched_means(space, f):
    """The averageable sets where a mean of ``f`` differs from Σf·w/Σw
    added up in `Fraction`s."""
    lam = lebesgue_transform(f)
    eager = eager_means(space, f)
    return [q for q in averageable_sets(space) if lam(q) != eager[q]]


class TestIntegerMeans:
    """Means are summed on the space's integer units, one `Fraction` each."""

    def test_units_are_the_weights_on_their_common_denominator(self):
        space = build_space(["1/3", "0.25", "2/7", 0, 5])
        assert space.units == (28, 21, 24, 0, 420)
        assert "units" not in repr(space)

    def test_a_scaled_unit_is_caught(self):
        # doubling one atom's units changes the weights' proportions
        space = build_space(["1/3", "2/7", 0])
        f = total_fn(space, ["1/2", "5/3", 9])
        units = space.units
        object.__setattr__(space, "units", (2 * units[0], *units[1:]))
        try:
            assert mismatched_means(space, f) == [A | B, A | B | N]
        finally:
            object.__setattr__(space, "units", units)
        assert mismatched_means(space, f) == []

    def test_a_dropped_denominator_is_caught(self, monkeypatch):
        # means over f's numerators on a unit denominator are den times too big
        space = build_space(["1/3", "2/7", 0])
        f = total_fn(space, ["1/2", "5/3", 9])
        init = leb.MeanValues.__init__

        def without_denominator(self, g):
            init(self, g)
            self._den = 1

        monkeypatch.setattr(leb.MeanValues, "__init__", without_denominator)
        assert mismatched_means(space, f) == list(averageable_sets(space))


class TestFilterKernel:
    """A kernel's filters live on the averageable sets: the ground mask
    has bit q for each set q of positive measure."""

    def test_ground_is_the_code_of_the_averageable_sets(self, s1):
        assert averageable_code(s1) == sum(1 << q for q in (1, 2, 3, 5, 6, 7))
        assert all(f.ground == averageable_code(s1) for f in trivial_kernel(s1).filters)

    @pytest.mark.parametrize("foreign", [
        # every subset of the atoms, the empty and null-only sets included
        lambda sp: Filter(every := (1 << sp.full_mask + 1) - 1, every),
        # the averageable sets of another space
        lambda sp: Filter(other := averageable_code(build_space([1, 1, 1])), other),
        # one member, the set 0b100 that holds only the null atom
        lambda sp: principal_ultrafilter(averageable_code(sp) | 1 << N, N),
        # a tail filter not pushed onto the averageable sets: its ground is
        # the family alone
        lambda sp: tail_filter([sp.full_mask, A | B]),
    ], ids=["all_subsets", "other_space", "null_only_member", "family_ground"])
    def test_filter_on_another_ground_rejected(self, s1, foreign):
        ground = averageable_code(s1)
        own = Filter(ground, ground)
        with pytest.raises(ValueError, match="must live on the averageable sets"):
            FilterKernel(s1, (own, foreign(s1), own))

    def test_null_only_kernel_is_outside_the_averageable_ground(self, s1):
        with pytest.raises(ValueError, match="kernel is not a subset of the ground"):
            principal_ultrafilter(averageable_code(s1), N)

    def test_one_filter_per_atom(self, s1):
        with pytest.raises(ValueError, match="one filter per atom"):
            FilterKernel(s1, trivial_kernel(s1).filters[:2])


class TestLimitingOperator:
    def test_trivial_kernel_nonconstant_defined_nowhere(self, s1):
        lam = lebesgue_transform(total_fn(s1, [2, 4, 0]))
        out = limiting_operator(trivial_kernel(s1), lam)
        assert out.domain == 0

    def test_trivial_kernel_constant_defined_everywhere(self, s1):
        lam = lebesgue_transform(total_fn(s1, [3, 3, 3]))
        out = limiting_operator(trivial_kernel(s1), lam)
        assert out.domain == s1.full_mask
        assert set(out.values) == {3}

    def test_lifting_kernel_recovers_fixture(self, s1):
        lam = lebesgue_transform(total_fn(s1, [2, 4, 100]))
        out = limiting_operator(lambda_a_kernel(s1), lam)
        assert out.values == (2, 4, 2)

    def test_kernel_and_means_on_different_spaces_rejected(self, s1, s2):
        lam = lebesgue_transform(total_fn(s2, [1, 2, 3, 4]))
        with pytest.raises(ValueError, match="different spaces"):
            limiting_operator(lambda_a_kernel(s1), lam)
        same_weights = build_space(s1.weights)  # equal spaces meet fine
        out = limiting_operator(lambda_a_kernel(s1),
                                lebesgue_transform(total_fn(same_weights, [2, 4, 100])))
        assert out.values == (2, 4, 2)
        with pytest.raises(ValueError, match="different spaces"):
            recovers(lambda_a_kernel(s1), total_fn(s2, [1, 2, 3, 4]))


class TestDifferentiates:
    def test_lifting_kernel_differentiates(self, s1):
        assert differentiates(lambda_a_kernel(s1))

    def test_trivial_kernel_fails_on_an_indicator(self, s1):
        v = differentiates(trivial_kernel(s1))
        assert not v and v.witness[0] == (A, None)[0]

    def test_single_positive_atom_space_always_differentiates(self):
        sp = build_space([1, 0])
        ground = averageable_code(sp)
        kernels = [trivial_kernel(sp)]
        for q in averageable_sets(sp):
            kernels.append(FilterKernel(
                sp, tuple(principal_ultrafilter(ground, q) for _ in range(2))))
        for kernel in kernels:
            assert differentiates(kernel)

    def test_family_reduction_against_random_functions(self):
        # if the positive atoms' indicators are recovered, random
        # rational functions must be recovered too
        rng = random.Random(23)
        for weights in ([1, 1, 0], [1, 2, 0], [1, 1, 1, 0]):
            sp = build_space(weights)
            ground, sets = averageable_code(sp), averageable_sets(sp)
            for trial in range(30):
                filters = tuple(
                    Filter(ground, sum(1 << q for q in rng.sample(sets, rng.randint(1, 3))))
                    for _ in range(sp.n))
                kernel = FilterKernel(sp, filters)
                if differentiates(kernel):
                    for _ in range(60):
                        assert recovers(kernel, random_total_fn(sp, rng))


def differentiates_oracle(space, kernel):
    """The literal family: every indicator in mask order, then one function
    with pairwise distinct values on the atoms."""
    for q in range(space.full_mask + 1):
        v = recovers(kernel, indicator(space, q))
        if not v:
            return Verdict.fail((q, v.witness), f"indicator of {q:#b}: {v.reason}")
    v = recovers(kernel, total_fn(space, [Fraction(i + 1) for i in range(space.n)]))
    if not v:
        return Verdict.fail(("separating", v.witness), v.reason)
    return Verdict.ok()


@st.composite
def spaces_and_kernels(draw):
    """A space of at most five atoms and a kernel whose filters have one to
    three members.  A near-lifting kernel gives each atom members whose
    positive part is one positive atom (the atom itself, if positive), plus
    null atoms and, now and then, other positive atoms as noise; any other
    kernel draws its members from all averageable sets."""
    weights = draw(st.lists(st.sampled_from([1, 0, 2, Fraction(1, 3)]),
                            min_size=1, max_size=5))
    if not any(weights):
        weights[0] = 1
    space = build_space(weights)
    sets = averageable_sets(space)
    pos = list(bits(space.pos_mask))
    near = draw(st.booleans())
    members = []
    for x in range(space.n):
        if not near:
            members.append(draw(st.lists(st.sampled_from(sets), min_size=1,
                                         max_size=3, unique=True)))
            continue
        centre = x if x in pos else draw(st.sampled_from(pos))
        own = []
        for _ in range(draw(st.integers(1, 3))):
            nulls = draw(st.integers(0, space.null_mask)) & space.null_mask
            noise = draw(st.sampled_from([0, 0, 0, space.pos_mask]))
            noise &= draw(st.integers(0, space.pos_mask))
            own.append((1 << centre) | nulls | noise)
        members.append(set(own))
    return space, FilterKernel(space, tuple(
        Filter(averageable_code(space), sum(1 << m for m in ms)) for ms in members))


class TestDifferentiatesOracle:
    """Means and limits along a filter are linear, so the positive atoms'
    indicators decide what all indicators and the separating function
    decide, down to the first witness."""

    def test_every_lifting_kernel(self):
        for weights in ([1, 1, 0], [1, 1, 0, 0], [1, 2, 3, 0], [1, 0, 0],
                        [2, 1, 0, 0], [1, 1, 1, 1, 0, 0], [1, 2, 3]):
            sp = build_space(weights)
            for lift in enumerate_liftings(sp):
                kernel = kernel_from_lifting(lift)
                assert (differentiates(kernel).to_dict()
                        == differentiates_oracle(sp, kernel).to_dict())

    @settings(max_examples=300, deadline=None)
    @given(spaces_and_kernels())
    def test_drawn_kernels(self, case):
        space, kernel = case
        assert (differentiates(kernel).to_dict()
                == differentiates_oracle(space, kernel).to_dict())


class TestLowerDensityFromKernel:
    def test_fixture_table(self, s1):
        kernel = lambda_a_kernel(s1)
        density = lower_density_from_kernel(kernel)
        assert density.table == LAMBDA_A
        assert density.table[A] == (A | N)
        assert density.table[0] == 0
        assert density.table[s1.full_mask] == s1.full_mask
        assert density.table[A] == density.table[A | N]

    def test_rejects_non_differentiating_kernel(self, s1):
        # the trivial kernel's limits exist only where an indicator is a.e. constant
        density = lower_density_from_kernel(trivial_kernel(s1))
        v = ma.is_lower_density(density)
        assert not v and v.reason.startswith("ae_identity")
        assert v.witness == 1


class TestBasisFromLifting:
    def test_fixed_points_of_lambda_a(self, s1):
        families = basis_from_lifting(SetTransform(s1, LAMBDA_A))
        assert sorted(set().union(*families)) == [2, 5, 7]  # the fixed points
        assert families[0] == (5, 7)   # directed, least element {a,n}
        assert families[1] == (2, 7)
        assert families[2] == (5, 7)

    def test_identity_on_null_free_space_fixes_everything(self, no_null):
        [identity] = enumerate_liftings(no_null)
        families = basis_from_lifting(identity)
        assert families == tuple(tuple(q for q in averageable_sets(no_null) if q >> x & 1)
                                 for x in range(no_null.n))

    def test_rejects_non_lifting(self, s1):
        with pytest.raises(ValueError, match="not a lifting"):
            basis_from_lifting(SetTransform(s1, (0, 1, 2, 7, 0, 1, 2, 7)))


class TestKernelFromLifting:
    def test_fixture_kernels(self, s1):
        kernel = lambda_a_kernel(s1)
        assert [list(bits(f.kernel)) for f in kernel.filters] == [[5], [2], [5]]

    def test_all_entries_are_ultrafilters_on_support(self, s1, s2):
        from liftlab.filter_calculus import is_ultrafilter
        for sp in (s1, s2):
            for lift in enumerate_liftings(sp):
                kernel = kernel_from_lifting(lift)
                for f in kernel.filters:
                    assert is_ultrafilter(f)

    def test_single_positive_atom_space(self):
        sp = build_space([1, 0, 0])
        [lift] = enumerate_liftings(sp)
        kernel = kernel_from_lifting(lift)
        # the lifting fixes only the whole space, so every point sees the
        # principal filter at that unique basis minimum
        assert lift.table[sp.full_mask] == sp.full_mask
        assert all(f.kernel == 1 << sp.full_mask for f in kernel.filters)


class TestRoundTrips:
    def test_limit_equals_function_of_retraction(self):
        rng = random.Random(7)
        for weights in ([1, 1, 0], [1, 1, 0, 0], [1, 2, 3, 0], [2, 1, 0, 0],
                        [1, 1, 1, 1, 0, 0]):
            sp = build_space(weights)
            for lift in enumerate_liftings(sp):
                from liftlab.measure_algebra import lifting_retraction
                g = lifting_retraction(lift)
                kernel = kernel_from_lifting(lift)
                for _ in range(10):
                    f = random_total_fn(sp, rng)
                    out = limiting_operator(kernel, lebesgue_transform(f))
                    for x in range(sp.n):
                        assert out(x) == f(g[x])

    def test_density_of_kernel_is_the_lifting(self):
        for weights in ([1, 1, 0], [1, 1, 0, 0], [1, 2, 3, 0], [1, 0, 0],
                        [1, 1, 1, 1, 0, 0]):
            sp = build_space(weights)
            for lift in enumerate_liftings(sp):
                kernel = kernel_from_lifting(lift)
                assert lower_density_from_kernel(kernel).table == lift.table


class TestTheoremOne:
    def test_s1_both_directions_and_round_trip(self, s1):
        report = verify_theorem1(s1)
        assert len(report.entries) == 2
        assert report.all_pass and report.round_trips_identical

    def test_two_null_atoms(self, s2):
        report = verify_theorem1(s2)
        assert len(report.entries) == 4
        assert report.all_pass and report.round_trips_identical

    def test_null_free_space_trivial(self, no_null):
        report = verify_theorem1(no_null)
        assert len(report.entries) == 1
        assert report.all_pass

    def test_too_many_lifting_entries_are_refused(self):
        # 8 positive and 4 null atoms: 8^4 liftings of 2^12 entries each
        with pytest.raises(CapacityError, match="16777216 entries"):
            verify_theorem1(build_space([1] * 8 + [0] * 4))

    def test_the_budget_bounds_the_entries_before_any_lifting(self, s2, monkeypatch):
        # 2^2 liftings of 2^4 entries each; the count is taken before any
        # lifting is enumerated
        monkeypatch.setattr(leb, "THEOREM1_BUDGET", 64)
        assert len(verify_theorem1(s2).entries) == 4
        monkeypatch.setattr(leb, "THEOREM1_BUDGET", 63)
        monkeypatch.setattr(leb, "enumerate_liftings", None)
        with pytest.raises(CapacityError, match="2\\^2 liftings of 2\\^4 entries each "
                                                "are 64 entries, over the theorem-1 "
                                                "budget of 63"):
            verify_theorem1(s2)

    def test_the_budget_keeps_ten_atoms_with_two_null(self):
        # 10^2 liftings of 2^12 entries: the largest split of 12 atoms kept
        assert 10 ** 2 * 2 ** 12 <= THEOREM1_BUDGET < 9 ** 3 * 2 ** 12


#: Names the theorem-1 pipeline calls its stages and statements through.
PIPELINE_NAMES = (
    "kernel_from_lifting", "differentiates", "lower_density_from_kernel",
    "lebesgue_transform", "limiting_operator", "lower_density_to_lifting",
    "is_lower_density", "is_lifting", "lifting_to_right_inverse",
    "is_boolean_homomorphism", "is_right_inverse",
)


def count_calls(monkeypatch) -> Counter:
    """Swap each pipeline name, in every module that calls through it, for
    a wrapper that counts its calls."""
    counts: Counter = Counter()
    for name in PIPELINE_NAMES:
        original = getattr(leb, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module in (leb, ma):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return counts


class TestTheoremOneCallCounts:
    def test_each_statement_decided_once_per_lifting(self, monkeypatch):
        sp = build_space([1, 0, 2, 5, 0, 1])
        counts = count_calls(monkeypatch)
        report = verify_theorem1(sp)
        assert len(report.entries) == 16 and report.all_pass
        per_lifting = {name: counts[name] / 16 for name in PIPELINE_NAMES}
        # The second is_lifting is basis_from_lifting's check of the
        # enumerated lifting, the only check of that object.  The density
        # reads all 2^n indicators' limits; differentiates reads only the
        # indicators of the 4 positive atoms.
        assert per_lifting == {
            "kernel_from_lifting": 1, "differentiates": 1,
            "lower_density_from_kernel": 1,
            "lebesgue_transform": 2 ** 6 + 4, "limiting_operator": 2 ** 6 + 4,
            "lower_density_to_lifting": 1, "is_lower_density": 1,
            "is_lifting": 2, "lifting_to_right_inverse": 1,
            "is_boolean_homomorphism": 1, "is_right_inverse": 1,
        }


def _trivial_kernel_stage(lifting):
    return trivial_kernel(lifting.space)


def _no_ambient_density_stage(kernel):
    table = list(lower_density_from_kernel(kernel).table)
    table[kernel.space.full_mask] = 0
    return SetTransform(kernel.space, tuple(table))


def _identity_lifting_stage(density):
    space = density.space
    return SetTransform(space, tuple(range(space.full_mask + 1)))


def _identity_section_stage(lifting):
    space = lifting.space
    return BooleanHom(space, {c: c for c in ma.algebra_classes(space)})


def _swapped_section_stage(lifting):
    # a Boolean hom that is no section: it swaps the positive atoms 0 and 1
    rho = ma.lifting_to_right_inverse(lifting)

    def swap(c):
        return (c & ~3) | ((c & 1) << 1) | ((c >> 1) & 1)

    return BooleanHom(lifting.space, {c: rho(swap(c)) for c in rho.table})


#: Per entry field: the stage broken to make it fail, and a stand-in.
FAULTS = {
    "differentiates": ("kernel_from_lifting", _trivial_kernel_stage),
    "lower_density": ("lower_density_from_kernel", _no_ambient_density_stage),
    "lifting": ("lower_density_to_lifting", _identity_lifting_stage),
    "boolean_homomorphism": ("lifting_to_right_inverse", _identity_section_stage),
    "right_inverse": ("lifting_to_right_inverse", _swapped_section_stage),
}
FIELDS = tuple(FAULTS)


class TestTheoremOneFaults:
    @pytest.mark.parametrize("field", FIELDS)
    def test_broken_stage_is_reported_not_raised(self, s1, monkeypatch, field):
        stage, broken = FAULTS[field]
        monkeypatch.setattr(leb, stage, broken)
        report = verify_theorem1(s1)
        assert not report.all_pass
        at = FIELDS.index(field)
        for entry in report.entries:
            out = entry.to_dict()
            assert all(out[f]["holds"] for f in FIELDS[:at])
            assert out[field]["holds"] is False
            assert out[field]["witness"] is not None
            assert all(out[f] == NOT_REACHED.to_dict() for f in FIELDS[at + 1:])
            assert not entry.passed

    @pytest.mark.parametrize("field", FIELDS)
    def test_cli_exits_one_with_the_witness(self, s1, monkeypatch, tmp_path, field):
        stage, broken = FAULTS[field]
        monkeypatch.setattr(leb, stage, broken)
        witnesses = [e[field]["witness"]
                     for e in verify_theorem1(s1).to_dict()["entries"]]
        path = tmp_path / "s1.json"
        path.write_text(json.dumps({"kind": "measure_space",
                                    "weights": ["1", "1", "0"]}))
        result = CliRunner().invoke(main, ["space", "theorem1", str(path),
                                           "--format", "json"])
        assert result.exit_code == 1
        assert result.exception is None or isinstance(result.exception, SystemExit)
        report = json.loads(result.stdout)
        assert report["status"] == "fail" and report["all_pass"] is False
        assert [e[field]["witness"] for e in report["entries"]] == witnesses
        assert report["lifting_count"] == 2


def _other_lifting_stage(density):
    # a genuine lifting, but the other one of [1, 1, 0]
    return SetTransform(density.space, LAMBDA_B if density.table == LAMBDA_A else LAMBDA_A)


def test_cli_fails_a_round_trip_that_lands_elsewhere(s1, monkeypatch, tmp_path):
    monkeypatch.setattr(leb, "lower_density_to_lifting", _other_lifting_stage)
    path = tmp_path / "s1.json"
    path.write_text(json.dumps({"kind": "measure_space",
                                "weights": ["1", "1", "0"]}))
    result = CliRunner().invoke(main, ["space", "theorem1", str(path),
                                       "--format", "json"])
    assert result.exit_code == 1
    report = json.loads(result.stdout)
    assert report["status"] == "fail" and report["round_trips_identical"] is False
    # every statement holds of the lifting the round trip reached
    assert all(e[f]["holds"] for e in report["entries"] for f in leb.STATEMENTS)
    assert not any(e["round_trip_identity"] for e in report["entries"])
