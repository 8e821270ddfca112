import json
import random
from collections import Counter

import pytest
from click.testing import CliRunner

import liftlab.lebesgue_diff as leb
import liftlab.measure_algebra as ma
from liftlab.cli import main
from liftlab.filter_calculus import (Filter, principal_ultrafilter,
                                     trivial_filter)
from liftlab.lebesgue_diff import (NOT_REACHED, FilterKernel,
                                   basis_from_lifting, differentiates,
                                   kernel_from_lifting, lebesgue_transform,
                                   limiting_operator, lower_density_from_kernel,
                                   random_total_fn, recovers,
                                   separating_function, verify_theorem1)
from liftlab.measure_algebra import (BooleanHom, SetTransform,
                                     enumerate_liftings, identity_transform)
from liftlab.measure_space import (averageable_sets, build_space,
                                   conditional_prob, indicator, partial_fn,
                                   total_fn)

A, B, N = 1, 2, 4
LAMBDA_A = (0, 5, 2, 7, 0, 5, 2, 7)


def lambda_a_kernel(s1):
    return kernel_from_lifting(s1, SetTransform(s1, LAMBDA_A))


def trivial_kernel(space):
    ground = averageable_sets(space)
    return FilterKernel(space, tuple(trivial_filter(ground)
                                     for _ in range(space.n)))


class TestLebesgueTransform:
    def test_worked_fixture(self, s1):
        lam = lebesgue_transform(s1, total_fn(s1, [2, 4, 100]))
        assert lam.values == {1: 2, 2: 4, 3: 3, 5: 2, 6: 4, 7: 3}

    def test_constant_function_has_constant_means(self, s1):
        lam = lebesgue_transform(s1, total_fn(s1, [5, 5, 5]))
        assert set(lam.values.values()) == {5}

    def test_matches_conditional_probability(self, s1):
        # mean of an indicator over a set = conditional probability
        for q in range(8):
            lam = lebesgue_transform(s1, indicator(s1, q))
            for ref in averageable_sets(s1):
                assert lam(ref) == conditional_prob(s1, q, ref)

    def test_representative_independence(self, s1):
        full = total_fn(s1, [2, 4, 100])
        other = total_fn(s1, [2, 4, -9])
        partial = partial_fn(s1, {0: 2, 1: 4})
        assert (lebesgue_transform(s1, full).values
                == lebesgue_transform(s1, other).values
                == lebesgue_transform(s1, partial).values)

    def test_rejects_functions_undefined_on_positive_atoms(self, s1):
        with pytest.raises(ValueError, match="almost everywhere"):
            lebesgue_transform(s1, partial_fn(s1, {0: 1}))

    def test_injective_on_indicator_classes(self, s1):
        seen = {}
        for q in range(8):
            key = tuple(sorted(lebesgue_transform(s1, indicator(s1, q)).values.items()))
            cls = q & s1.pos_mask
            assert seen.setdefault(key, cls) == cls

    def test_injective_on_random_functions(self, s1):
        rng = random.Random(11)
        for _ in range(40):
            f = random_total_fn(s1, rng)
            g = random_total_fn(s1, rng)
            same_class = all(f(i) == g(i) for i in (0, 1))
            same_transform = (lebesgue_transform(s1, f).values
                              == lebesgue_transform(s1, g).values)
            assert same_class == same_transform


class TestLimitingOperator:
    def test_trivial_kernel_nonconstant_defined_nowhere(self, s1):
        lam = lebesgue_transform(s1, total_fn(s1, [2, 4, 0]))
        out = limiting_operator(s1, trivial_kernel(s1), lam)
        assert out.domain == 0

    def test_trivial_kernel_constant_defined_everywhere(self, s1):
        lam = lebesgue_transform(s1, total_fn(s1, [3, 3, 3]))
        out = limiting_operator(s1, trivial_kernel(s1), lam)
        assert out.domain == s1.full_mask
        assert set(out.values) == {3}

    def test_lifting_kernel_recovers_fixture(self, s1):
        lam = lebesgue_transform(s1, total_fn(s1, [2, 4, 100]))
        out = limiting_operator(s1, lambda_a_kernel(s1), lam)
        assert out.values == (2, 4, 2)


class TestDifferentiates:
    def test_lifting_kernel_differentiates(self, s1):
        assert differentiates(s1, lambda_a_kernel(s1))

    def test_trivial_kernel_fails_on_an_indicator(self, s1):
        v = differentiates(s1, trivial_kernel(s1))
        assert not v and v.witness[0] == (A, None)[0]

    def test_single_positive_atom_space_always_differentiates(self):
        sp = build_space([1, 0])
        ground = averageable_sets(sp)
        kernels = [trivial_kernel(sp)]
        for q in ground:
            kernels.append(FilterKernel(
                sp, tuple(principal_ultrafilter(ground, q) for _ in range(2))))
        for kernel in kernels:
            assert differentiates(sp, kernel)

    def test_family_reduction_against_random_functions(self):
        # if the indicator + separating family is recovered, random
        # rational functions must be recovered too
        rng = random.Random(23)
        for weights in ([1, 1, 0], [1, 2, 0], [1, 1, 1, 0]):
            sp = build_space(weights)
            ground = averageable_sets(sp)
            for trial in range(30):
                filters = tuple(
                    Filter(ground, sum(1 << i for i in rng.sample(range(len(ground)),
                                                                  rng.randint(1, 3))))
                    for _ in range(sp.n))
                kernel = FilterKernel(sp, filters)
                if differentiates(sp, kernel):
                    for _ in range(60):
                        assert recovers(sp, kernel, random_total_fn(sp, rng))

    def test_separating_function_values_distinct(self, s1):
        f = separating_function(s1)
        values = [f(i) for i in range(s1.n)]
        assert len(set(values)) == s1.n


class TestLowerDensityFromKernel:
    def test_fixture_table(self, s1):
        kernel = lambda_a_kernel(s1)
        density = lower_density_from_kernel(s1, kernel)
        assert density.table == LAMBDA_A
        assert density.table[A] == (A | N)
        assert density.table[0] == 0
        assert density.table[s1.full_mask] == s1.full_mask
        assert density.table[A] == density.table[A | N]

    def test_rejects_non_differentiating_kernel(self, s1):
        with pytest.raises(ValueError, match="differentiate"):
            lower_density_from_kernel(s1, trivial_kernel(s1))


class TestBasisFromLifting:
    def test_fixed_points_of_lambda_a(self, s1):
        basis = basis_from_lifting(s1, SetTransform(s1, LAMBDA_A))
        assert basis.collection == (2, 5, 7)
        assert basis.support == s1.full_mask
        assert basis.families[0] == (5, 7)   # directed, least element {a,n}
        assert basis.families[1] == (2, 7)
        assert basis.families[2] == (5, 7)

    def test_identity_on_null_free_space_fixes_everything(self, no_null):
        [identity] = enumerate_liftings(no_null)
        basis = basis_from_lifting(no_null, identity)
        assert basis.collection == averageable_sets(no_null)

    def test_rejects_non_lifting(self, s1):
        with pytest.raises(ValueError, match="not a lifting"):
            basis_from_lifting(s1, SetTransform(s1, (0, 1, 2, 7, 0, 1, 2, 7)))


class TestKernelFromLifting:
    def test_fixture_kernels(self, s1):
        kernel = lambda_a_kernel(s1)
        assert [f.kernel_elements() for f in kernel.filters] == [(5,), (2,), (5,)]

    def test_all_entries_are_ultrafilters_on_support(self, s1, s2):
        from liftlab.filter_calculus import is_ultrafilter
        for sp in (s1, s2):
            for lift in enumerate_liftings(sp):
                kernel = kernel_from_lifting(sp, lift)
                for f in kernel.filters:
                    assert is_ultrafilter(f)

    def test_single_positive_atom_space(self):
        sp = build_space([1, 0, 0])
        [lift] = enumerate_liftings(sp)
        kernel = kernel_from_lifting(sp, lift)
        # the lifting fixes only the whole space, so every point sees the
        # principal filter at that unique basis minimum
        assert lift.table[sp.full_mask] == sp.full_mask
        assert all(f.kernel_elements() == (sp.full_mask,) for f in kernel.filters)


class TestRoundTrips:
    def test_limit_equals_function_of_retraction(self):
        rng = random.Random(7)
        for weights in ([1, 1, 0], [1, 1, 0, 0], [1, 2, 3, 0], [2, 1, 0, 0],
                        [1, 1, 1, 1, 0, 0]):
            sp = build_space(weights)
            for lift in enumerate_liftings(sp):
                from liftlab.measure_algebra import lifting_retraction
                g = lifting_retraction(lift)
                kernel = kernel_from_lifting(sp, lift)
                for _ in range(10):
                    f = random_total_fn(sp, rng)
                    out = limiting_operator(sp, kernel,
                                            lebesgue_transform(sp, f))
                    for x in range(sp.n):
                        assert out(x) == f(g[x])

    def test_density_of_kernel_is_the_lifting(self):
        for weights in ([1, 1, 0], [1, 1, 0, 0], [1, 2, 3, 0], [1, 0, 0],
                        [1, 1, 1, 1, 0, 0]):
            sp = build_space(weights)
            for lift in enumerate_liftings(sp):
                kernel = kernel_from_lifting(sp, lift)
                assert lower_density_from_kernel(sp, kernel).table == lift.table


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
        # The second differentiates, is_lower_density and is_lifting are
        # public functions checking their own input; one mean-value pass
        # per kernel costs 2^n transforms, plus the separating function
        # once per differentiates.
        assert per_lifting == {
            "kernel_from_lifting": 1, "differentiates": 2,
            "lower_density_from_kernel": 1,
            "lebesgue_transform": 2 ** 6 + 2, "limiting_operator": 2 ** 6 + 2,
            "lower_density_to_lifting": 1, "is_lower_density": 2,
            "is_lifting": 3, "lifting_to_right_inverse": 1,
            "is_boolean_homomorphism": 1, "is_right_inverse": 1,
        }


def _trivial_kernel_stage(space, lifting):
    return trivial_kernel(space)


def _no_ambient_density_stage(space, kernel):
    table = list(lower_density_from_kernel(space, kernel).table)
    table[space.full_mask] = 0
    return SetTransform(space, tuple(table))


def _identity_lifting_stage(space, density):
    return identity_transform(space)


def _identity_section_stage(space, lifting):
    return BooleanHom(space, {c: c for c in ma.algebra_classes(space)})


def _swapped_section_stage(space, lifting):
    # a Boolean hom that is no section: it swaps the positive atoms 0 and 1
    rho = ma.lifting_to_right_inverse(space, lifting)

    def swap(c):
        return (c & ~3) | ((c & 1) << 1) | ((c >> 1) & 1)

    return BooleanHom(space, {c: rho(swap(c)) for c in rho.table})


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
