"""Acceptance battery: one test per release criterion.

Each test prints a PASS/FAIL line (visible with ``pytest -s`` or on
failure) and enforces its runtime budget.  All comparisons are exact;
nothing is tolerance-based because every quantity is an exact rational or
a finite structure.
"""

import hashlib
import json
import random
import time

import pytest
from click.testing import CliRunner

from liftlab.cli import main as cli_main
from liftlab.filter_calculus import (base_generation_oracle,
                                     principality_oracle)
from liftlab.lebesgue_diff import (kernel_from_lifting,
                                   lower_density_from_kernel,
                                   random_total_fn, recovers)
from liftlab.measure_algebra import (algebra_classes, brute_force_liftings,
                                     enumerate_liftings,
                                     is_boolean_homomorphism, is_lifting,
                                     is_lower_density, is_right_inverse,
                                     lifting_to_right_inverse,
                                     lower_density_to_lifting, project)
from liftlab.measure_space import build_space, indicator
from liftlab.partial_magma import (classify, interchange_sweep, regular_tables,
                                   single_unit_totality)
from liftlab.suite import natequiv_report, run_check
from liftlab.yoneda_finite import yoneda_roundtrip


def _report(num: int, label: str, ok: bool, elapsed: float, limit: float | None):
    status = "PASS" if ok else "FAIL"
    budget = f", limit {limit:.0f}s" if limit else ""
    print(f"[criterion {num:02d}] {status} {label} ({elapsed:.1f}s{budget})")
    assert ok, f"criterion {num} failed: {label}"
    if limit is not None:
        assert elapsed < limit, f"criterion {num} exceeded {limit}s ({elapsed:.1f}s)"


def fixture_spaces():
    """Spaces with at most 5 atoms and at most 2 null atoms: uniform and
    pairwise-distinct weights, plus interleaved null positions."""
    spaces = []
    for pos in range(1, 6):
        for null in range(0, 3):
            if pos + null > 5:
                continue
            profiles = [[1] * pos + [0] * null]
            if pos > 1:
                profiles.append(list(range(1, pos + 1)) + [0] * null)
            spaces.extend(build_space(p) for p in profiles)
    spaces.append(build_space([0, 1, 2]))
    spaces.append(build_space([1, 0, 2, 0]))
    return spaces


def lifting_kernels():
    for space in fixture_spaces():
        for lifting in enumerate_liftings(space):
            yield space, lifting, kernel_from_lifting(space, lifting)


def test_criterion_01_lifting_enumeration_oracle(s1):
    start = time.monotonic()
    brute = brute_force_liftings(s1)
    enumerated = sorted(t.table for t in enumerate_liftings(s1))
    ok = len(brute) == 2 and [t.table for t in brute] == enumerated
    _report(1, "brute force over all 8^8 transforms matches the 2 enumerated "
               "liftings on [1,1,0]", ok, time.monotonic() - start, 60)


def test_criterion_02_kernels_differentiate():
    start = time.monotonic()
    rng = random.Random(0)
    ok = True
    checked = 0
    for space, lifting, kernel in lifting_kernels():
        for q in range(space.full_mask + 1):
            if not recovers(space, kernel, indicator(space, q)):
                ok = False
        for _ in range(100):
            if not recovers(space, kernel, random_total_fn(space, rng)):
                ok = False
        checked += 1
    _report(2, f"kernels of all {checked} liftings on <=5-atom spaces recover "
               "every indicator and 100 random functions exactly",
            ok, time.monotonic() - start, 120)


def test_criterion_03_kernels_induce_sections():
    start = time.monotonic()
    ok = True
    for space, lifting, kernel in lifting_kernels():
        density = lower_density_from_kernel(space, kernel)
        if not is_lower_density(density):
            ok = False
        rebuilt = lower_density_to_lifting(space, density)
        if not is_lifting(rebuilt):
            ok = False
        rho = lifting_to_right_inverse(space, rebuilt)
        if not (is_boolean_homomorphism(space, rho)
                and is_right_inverse(space, rho)):
            ok = False
        if not all(project(space, rho(c)) == c for c in algebra_classes(space)):
            ok = False
    for weights in ([1, 1, 0], [1, 1, 0, 0]):
        space = build_space(weights)
        for lifting in enumerate_liftings(space):
            kernel = kernel_from_lifting(space, lifting)
            rebuilt = lower_density_to_lifting(
                space, lower_density_from_kernel(space, kernel))
            if rebuilt.table != lifting.table:
                ok = False
    _report(3, "every kernel from criterion 2 yields a verified Boolean "
               "section; round trips are identities on [1,1,0] and [1,1,0,0]",
            ok, time.monotonic() - start, None)


def test_criterion_04_filter_principality_oracle():
    start = time.monotonic()
    ok = bool(principality_oracle(4)) and bool(base_generation_oracle(4))
    _report(4, "kernel membership equals literal upward closure for every "
               "base on grounds of size <= 4", ok, time.monotonic() - start, 30)


def test_criterion_05_interchange_exhaustive():
    start = time.monotonic()
    sweep = interchange_sweep(3)
    ok = sweep.tables == 4 ** 9 and sweep.violations == 0
    _report(5, f"interchange law holds on all {sweep.tables} three-element "
               f"tables ({sweep.both_defined} doubly-defined quadruples)",
            ok, time.monotonic() - start, 180)


def test_criterion_06_single_unit_iff_total():
    start = time.monotonic()
    ok = True
    total = 0
    for n in (1, 2, 3):
        for pm in regular_tables(n):
            total += 1
            if not single_unit_totality(classify(pm)):
                ok = False
    _report(6, f"single unit <=> totality on all {total} regular magmas with "
               "at most 3 elements", ok, time.monotonic() - start, None)


def test_criterion_07_category_magma_roundtrips():
    start = time.monotonic()
    out = run_check("cat_rpm_roundtrips")
    count = sum(out.get("regular_counts", {}).values())
    _report(7, "categories read from arrow magmas match an independent "
               "presentation: pins and matrix products on the named examples, "
               f"tables rebuilt from dom, cod and composites on all {count} "
               "regular magmas of size <= 3",
            out["pass"], time.monotonic() - start, None)


def test_criterion_08_transformation_encodings_agree():
    start = time.monotonic()
    ok = True
    counts = {}
    for source, target in (("2", "3"), ("3", "3"), ("2", "SQ")):
        rep = natequiv_report(source, target)
        counts[f"{source}->{target}"] = rep["arrow_indexed"]
        if not rep["pass"]:
            ok = False
    _report(8, "arrow-indexed and object-indexed transformation counts agree "
               f"and converters invert each other ({counts})",
            ok, time.monotonic() - start, 120)


def test_criterion_09_yoneda_roundtrip():
    start = time.monotonic()
    ok = True
    for z_size in (1, 2, 3):
        for x_size in (1, 2):
            rep = yoneda_roundtrip(z_size, x_size)
            if rep.candidate_count != z_size ** x_size or not rep.all_pass:
                ok = False
            if any(s > 3 for s in rep.probe_sizes):
                ok = False
    _report(9, "natural candidate counts equal |Z|^|X| with identity "
               "composites for |Z| <= 3, |X| <= 2, probes <= 3",
            ok, time.monotonic() - start, 120)


#: sha256 of the report's stdout at seed 0, per command line.  A refactor
#: that claims unchanged output keeps these; a change that means to alter
#: the report updates them and says why.
REPORT_DIGESTS = {
    ("--format", "json"):
        "0fe953f9a8604ffc9b372a08bc67c163c1ba9244fe9765a7a16d86c0a92f7963",
    ("--format", "text"):
        "581f18881f7e94cdea41a2343de72eb865d8f05662daa3dbf251c36c0ca17a21",
    ("--format", "json", "--quick"):
        "9150ea1245404ee09ee12ad932e768bfc118680da4b4e106fdd6df31cbea33ff",
}


def _digest(result) -> str:
    return hashlib.sha256(result.stdout_bytes).hexdigest()


def test_criterion_10_determinism_and_wallclock():
    start = time.monotonic()
    runner = CliRunner()
    first = runner.invoke(cli_main, ["report", "--format", "json", "--seed", "0"])
    second = runner.invoke(cli_main, ["report", "--format", "json", "--seed", "0"])
    elapsed = time.monotonic() - start
    ok = (first.exit_code == 0 and second.exit_code == 0
          and first.stdout_bytes == second.stdout_bytes)
    if ok:
        payload = json.loads(first.stdout)
        ok = payload["all_pass"] and not payload["quick"]
    _report(10, "two full-suite runs with one seed are byte-identical",
            ok, elapsed, 600)
    assert _digest(first) == REPORT_DIGESTS[("--format", "json")]


# json_parallel runs every check of the full battery, interchange_n3 and
# s1_lifting_oracle included, in a worker; it must give the serial bytes
@pytest.mark.parametrize("args, pinned", [
    (("--format", "text"), ("--format", "text")),
    (("--format", "json", "--quick"), ("--format", "json", "--quick")),
    (("--format", "json", "--parallel", "2"), ("--format", "json")),
], ids=["text", "json_quick", "json_parallel"])
def test_report_bytes_match_the_pinned_digest(args, pinned):
    result = CliRunner().invoke(cli_main, ["report", *args, "--seed", "0"])
    assert result.exit_code == 0
    assert _digest(result) == REPORT_DIGESTS[pinned]
