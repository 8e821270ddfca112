"""Every check in the report battery can fail.

One case per key of ``suite.CHECKS``: each injects a fault into one name
the check relies on and expects ``pass: False`` with a ``witness``, not a
pass and not an exception.  A check added without a case here fails its
own case.
"""

import importlib
import pkgutil
from dataclasses import replace

import pytest

import liftlab
import liftlab.category_kernel as category_kernel
import liftlab.filter_calculus as filter_calculus
import liftlab.lebesgue_diff as lebesgue_diff
import liftlab.measure_algebra as measure_algebra
import liftlab.measure_space as measure_space
import liftlab.partial_magma as partial_magma
import liftlab.suite as suite
import liftlab.yoneda_finite as yoneda_finite
from liftlab.measure_algebra import SetTransform

CACHED = (partial_magma.regular_builds, partial_magma.regular_tables,
          category_kernel.twin_hom_cases,
          yoneda_finite.all_functions, yoneda_finite.composite_indices,
          yoneda_finite._generator_squares,
          measure_space.averageable_sets, measure_space.averageable_code)


@pytest.fixture(autouse=True)
def fresh_caches():
    """No cache carries a value built under a fault, or hides one."""
    for fn in CACHED:
        fn.cache_clear()
    yield
    for fn in CACHED:
        fn.cache_clear()


def test_every_module_cache_is_cleared():
    # a value built under one fault, such as a twin-arrow search under a
    # patched hom_set, must not reach the tests that follow
    cached = {value for info in pkgutil.iter_modules(liftlab.__path__)
              for value in vars(importlib.import_module(f"liftlab.{info.name}")).values()
              if hasattr(value, "cache_clear")}
    assert cached == set(CACHED)


def wrap(monkeypatch, module, name, fault):
    """Replace ``module.name`` by ``fault(real, *args)``."""
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: fault(real, *args))


def _whole_ground_kernel(real, ground, base):
    return filter_calculus.Filter(ground, ground)


def _empty_set_not_fixed(real, space, g):
    table = real(space, g).table
    return SetTransform(space, (table[0] | 1,) + table[1:])


def _trivial_kernel(real, lifting):
    space = lifting.space
    ground = measure_space.averageable_code(space)
    return lebesgue_diff.FilterKernel(
        space, (filter_calculus.Filter(ground, ground),) * space.n)


def _limit_off_by_one(real, f, lam):
    value = real(f, lam)
    return None if value is None else value + 1


def _last_unit_dropped(real, pm):
    return real(pm)[:-1]


def _one_product_wrong(real, x, y):
    # (0,1) after (1,0) is (1,1); answer (0,0) instead
    return (0, 0) if (x, y) == ((0, 1), (1, 0)) else real(x, y)


def _totality_flipped(real, pm):
    c = real(pm)
    return replace(c, total=not c.total)


def _units_reversed(real, pm):
    c = real(pm)
    return replace(c, units=c.units[::-1])


def _twin_of_one_object(real, cat):
    return real(suite.named_category("1"))


def _first_transformation_lost(real, t, s):
    return real(t, s)[1:]


def _kernel_shifted(real, tau):
    # each filter moves to the next point of Z: the kernel bit of point i
    # is 1 << i
    z_len = len(tau.z_ground)
    return tuple(yoneda_finite.principal_ultrafilter(
        f.ground, f.kernel.bit_length() % z_len) for f in real(tau))


def _image_collapsed(real, fmap, f, target):
    lowest = (target & -target).bit_length() - 1
    return real(lambda e: lowest, f, target)


#: check -> (module, name, fault): the name is replaced by a wrapper that
#: calls ``fault(real, *args)``.
FAULTS = {
    "filter_principality": (filter_calculus, "filter_from_base",
                            _whole_ground_kernel),
    "s1_lifting_oracle": (measure_algebra, "lifting_from_retraction",
                          _empty_set_not_fixed),
    "s2_sampled_lifting_oracle": (measure_algebra, "lifting_from_retraction",
                                  _empty_set_not_fixed),
    "theorem1_s1": (lebesgue_diff, "kernel_from_lifting", _trivial_kernel),
    "theorem1_s2": (lebesgue_diff, "kernel_from_lifting", _trivial_kernel),
    "theorem1_no_null": (lebesgue_diff, "kernel_from_lifting", _trivial_kernel),
    "random_function_recovery": (lebesgue_diff, "limit_along", _limit_off_by_one),
    "pm_fixtures": (partial_magma, "units", _last_unit_dropped),
    "interchange_n2": (partial_magma, "hmul", _one_product_wrong),
    "interchange_n3": (partial_magma, "hmul", _one_product_wrong),
    "single_unit_totality": (partial_magma, "classify", _totality_flipped),
    "cat_rpm_roundtrips": (category_kernel, "classify", _units_reversed),
    # a fault inside twin_category raises InternalCheckError by design
    # (cat twin exits 3 on it), so the fault goes into the name the check calls
    "twin_categories": (suite, "twin_category", _twin_of_one_object),
    "natequiv_2_3": (suite, "enumerate_nat_trans", _first_transformation_lost),
    "yoneda_roundtrips": (yoneda_finite, "kernel_from_tau", _kernel_shifted),
    "adjunction": (yoneda_finite, "direct_image", _image_collapsed),
}


@pytest.mark.parametrize("name", list(suite.CHECKS))
def test_injected_fault_fails_the_check(monkeypatch, name):
    assert name in FAULTS, f"check {name!r} has no fault-injection case"
    module, target, fault = FAULTS[name]
    wrap(monkeypatch, module, target, fault)
    out = suite.run_check(name)
    assert out["pass"] is False
    assert out["witness"] is not None


def _lowest_kernel_bit_ignored(real, f, member):
    k = f.kernel
    if k & (k - 1):  # a kernel of two or more points loses its lowest one
        f = filter_calculus.Filter(f.ground, k & (k - 1))
    return real(f, member)


def _whole_ground_maximal(real, f):
    return real(f) or f.kernel == f.ground


@pytest.mark.parametrize("module, target, fault", [
    (filter_calculus.Filter, "contains", _lowest_kernel_bit_ignored),
    (filter_calculus, "is_ultrafilter", _whole_ground_maximal)])
def test_principality_half_reads_the_program(monkeypatch, module, target, fault):
    # the literal filter {0b11} on a two-element ground is the first whose
    # up-set or maximality either fault gets wrong
    wrap(monkeypatch, module, target, fault)
    out = suite.run_check("filter_principality")
    assert out["pass"] is False
    assert out["principality"]["holds"] is False
    assert out["witness"] == (2, [0b11])


def test_regular_half_sees_the_object_list(monkeypatch):
    # units listed in reverse change only the order of the objects, so
    # the first regular magma with two units is the witness
    wrap(monkeypatch, category_kernel, "classify", _units_reversed)
    monkeypatch.setattr(suite, "NAMED_SHAPES", {})
    first = next(pm.table for n in (1, 2, 3) for pm in partial_magma.regular_tables(n)
                 if len(partial_magma.units(pm)) > 1)
    out = suite.run_check("cat_rpm_roundtrips")
    assert out["pass"] is False
    assert out["witness"] == first


def _last_arrow_lost(real, cat, u, v):
    return real(cat, u, v)[:-1]


def test_twin_check_reads_the_hom_sets(monkeypatch):
    # a hom-set that loses its last arrow no longer matches the twin arrows
    # found between the identities, already on the one-object category
    wrap(monkeypatch, category_kernel, "hom_set", _last_arrow_lost)
    out = suite.run_check("twin_categories")
    assert out["pass"] is False
    assert out["witness"] == ["1", (0, 0)]


def test_a_lost_regular_magma_fails_both_count_checks(monkeypatch):
    real = partial_magma.regular_builds

    def one_lost(n):
        return real(n)[1:] if n == 3 else real(n)

    monkeypatch.setattr(partial_magma, "regular_builds", one_lost)
    monkeypatch.setattr(suite, "regular_builds", one_lost)
    for name in ("single_unit_totality", "cat_rpm_roundtrips"):
        out = suite.run_check(name)
        assert out["pass"] is False
        assert out["witness"] == out["regular_counts"] == {"1": 1, "2": 5, "3": 51}


def _identity_components(real, alpha):
    # every converted transformation comes out as the identity on its source
    return real(category_kernel.identity_nat_hom(alpha.source))


def test_a_pair_failing_both_comparisons_is_listed_once(monkeypatch):
    # off the diagonal, both the component sets and the round trip differ
    wrap(monkeypatch, suite, "nat_from_hom", _identity_components)
    rep = suite.natequiv_report("2", "3")
    assert rep["pass"] is False
    pairs = [str(pair) for pair in rep["mismatched_pairs"]]
    assert len(pairs) == len(set(pairs)) == 14
