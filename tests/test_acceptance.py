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

from liftlab.category_kernel import named_magmas
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
            yield space, lifting, kernel_from_lifting(lifting)


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
            if not recovers(kernel, indicator(space, q)):
                ok = False
        for _ in range(100):
            if not recovers(kernel, random_total_fn(space, rng)):
                ok = False
        checked += 1
    _report(2, f"kernels of all {checked} liftings on <=5-atom spaces recover "
               "every indicator and 100 random functions exactly",
            ok, time.monotonic() - start, 120)


def test_criterion_03_kernels_induce_sections():
    start = time.monotonic()
    ok = True
    for space, lifting, kernel in lifting_kernels():
        density = lower_density_from_kernel(kernel)
        if not is_lower_density(density):
            ok = False
        rebuilt = lower_density_to_lifting(density)
        if not is_lifting(rebuilt):
            ok = False
        rho = lifting_to_right_inverse(rebuilt)
        if not (is_boolean_homomorphism(rho)
                and is_right_inverse(rho)):
            ok = False
        if not all(project(space, rho(c)) == c for c in algebra_classes(space)):
            ok = False
    for weights in ([1, 1, 0], [1, 1, 0, 0]):
        space = build_space(weights)
        for lifting in enumerate_liftings(space):
            kernel = kernel_from_lifting(lifting)
            rebuilt = lower_density_to_lifting(lower_density_from_kernel(kernel))
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
               f"objects, dom and cod against the units and pins built on all "
               f"{count} regular magmas of size <= 3",
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


def _relabelled(pm, perm) -> list:
    """The table of ``pm`` with element i renamed perm[i]."""
    out = [[None] * pm.n for _ in range(pm.n)]
    for x in range(pm.n):
        for y in range(pm.n):
            xy = pm.op(x, y)
            out[perm[x]][perm[y]] = None if xy is None else perm[xy]
    return out


#: Input documents of the pinned commands: M6 (the category 3) and MSQ (the
#: square) relabelled so that their units are not listed first, truncated
#: subtraction, the null monoid on four elements (0 is the unit, every
#: product of two non-units is 1), an empty table on two elements (not a
#: category), three measure spaces with null atoms and two transforms on
#: [1,1,0] (a lifting and the zero map).
COMMAND_DOCUMENTS = {
    "m6": {"kind": "partial_magma", "n": 6,
           "table": _relabelled(named_magmas()["M6"], [4, 1, 3, 2, 5, 0])},
    "nat_sub": {"kind": "partial_magma", "n": 4,
                "table": _relabelled(named_magmas()["nat_sub"], range(4))},
    "sq": {"kind": "category", "n": 9,
           "table": _relabelled(named_magmas()["MSQ"], [2, 1, 8, 6, 4, 5, 3, 7, 0])},
    "null4": {"kind": "category", "n": 4,
              "table": [[y if x == 0 else x if y == 0 else 1 for y in range(4)]
                        for x in range(4)]},
    "loose2": {"kind": "category", "n": 2, "table": [[None, None], [None, None]]},
    "s1": {"kind": "measure_space", "weights": ["1", "1", "0"]},
    "s2": {"kind": "measure_space", "weights": ["1", "1", "0", "0"]},
    "six_atoms": {"kind": "measure_space", "weights": ["1", "0", "2", "5", "0", "1"]},
    "lambda_a": {"kind": "measure_space", "weights": ["1", "1", "0"],
                 "transform": [0, 5, 2, 7, 0, 5, 2, 7]},
    "zero_map": {"kind": "measure_space", "weights": ["1", "1", "0"],
                 "transform": [0] * 8},
}

#: (exit code, sha256 of stdout) per command line, as ``REPORT_DIGESTS``;
#: "-" reads the named document from stdin.
COMMAND_DIGESTS = {
    ("pm", "classify", "-", "m6", "json"):
        (0, "e849ea17f3e6cf983cfcc36151920206bc10bf950d5e196f5fad8156c89ecb05"),
    ("pm", "classify", "-", "m6", "text"):
        (0, "f7534ed0b77093c861189dc5cc43e288c335e1c2a4115fa4e021128cb3b252b2"),
    ("pm", "classify", "-", "nat_sub", "json"):
        (0, "82745cc1c3d73ae835eb42007e04ad98185c983d9e36dbb61b3cc358be5c7761"),
    ("pm", "classify", "-", "nat_sub", "text"):
        (0, "a414255109cdc7f3d250b61804a17cff173a59814e1c80612625f46f059b3e11"),
    ("cat", "twin", "-", "--max-elems", "9", "sq", "json"):
        (0, "debc9df08050d8d7dd7b3b0393c261ebf5312d974637cae5290a6a0645e1f733"),
    ("cat", "twin", "-", "--max-elems", "9", "sq", "text"):
        (0, "096b4068635f5a4fc5b8d9050a99bc2b1355309bf409ba93f96519d172d5f8d9"),
    ("cat", "twin", "-", "null4", "json"):
        (0, "cfc1c90dd1deecb577f12ef3f1d96924228da76f7173d3db4951cd8cf305c84b"),
    ("cat", "twin", "-", "null4", "text"):
        (0, "766049af3b9665b9cbb53c763bf74a868577cdf739200c393b88e97852d311a0"),
    ("cat", "natequiv", "--source", "3", "--target", "SQ", None, "json"):
        (0, "765d3d70283a1defd47faef5dbc3c6459d190ad7a3d229355a90255997a3d297"),
    ("cat", "natequiv", "--source", "3", "--target", "SQ", None, "text"):
        (0, "1b1400f582d9ac2c9055825afdbf2413f1516bcd45c33488668a3da5363c1894"),
    ("space", "theorem1", "-", "s1", "json"):
        (0, "c3c7249b5957e3c38bb9bb95e3b353b94954a4da01c5558771e05f8c01598564"),
    ("space", "theorem1", "-", "s1", "text"):
        (0, "83ee680a6ca71fb23b6cc53f839464f0d8fc34cf9d8fda8e29ca909af399ca29"),
    ("space", "theorem1", "-", "six_atoms", "json"):
        (0, "d3b3203a85e7b2db2ee9f1dd5c3b27ccf451d9be10ef07c373feb72aadff12c9"),
    ("space", "theorem1", "-", "six_atoms", "text"):
        (0, "6b15bf7cc990509106ddc102e739edf6df4f43419ccb0f3ef7f78feb361448db"),
    ("space", "check", "-", "lambda_a", "json"):
        (0, "799239cf824e041f36973efec8d4fee3ca52abb315ab739d02676f3659480c5e"),
    ("space", "check", "-", "lambda_a", "text"):
        (0, "057ebab46bfe593c3138a85fa8f2b8c8fa2b655d685817479fea99b1a924625d"),
    ("space", "check", "-", "zero_map", "json"):
        (1, "dc1cea5da9bb1f7870d8d7e90edc13d64a96d314dd66a6ffaf9047363c46a3e6"),
    ("space", "check", "-", "zero_map", "text"):
        (1, "3922e937c90e04ded881ba5a6ba10644cbe5168294c695d9314f93b379bb12c0"),
    ("space", "liftings", "-", "--oracle", "s1", "json"):
        (0, "2456f78976210485d50dbe79ab2a4875f078af493edb83d2f68f8193c66d92bc"),
    ("space", "liftings", "-", "--oracle", "s1", "text"):
        (0, "223cc7faeca42ea4429600e4779923f5b05f4bd0eda2673cda009e83da8f4842"),
    ("space", "liftings", "-", "--oracle", "s2", "json"):
        (0, "bbc8a79e92f0759e171d9d173990c27f3318b86d90e5105ef8b3f399043be5d1"),
    ("space", "liftings", "-", "--oracle", "s2", "text"):
        (0, "4cff921be8af6e7d833d021f360730b28f054963687fb7d77fe3d524d1d12755"),
    ("pm", "interchange", "-", "m6", "json"):
        (0, "23f57c2c0dc2734eb4c232cc674ef02d9658164ec74be09603725e2a8aa76ccf"),
    ("pm", "interchange", "-", "m6", "text"):
        (0, "d2d6b175f2ea66aa62a07808b4172da876963dba3dd51139eb369aa6452315ac"),
    ("yoneda", "roundtrip", "--z-size", "2", "--x-size", "1", None, "json"):
        (0, "c7a4c0e5b41c7612723519fe589b6fa901af42e43546772e5de22702401bc620"),
    ("yoneda", "roundtrip", "--z-size", "2", "--x-size", "1", None, "text"):
        (0, "0af5ee598ab5cbfed00d8a7cb8433bd9cf07a941f14989766bb66d378277f743"),
    ("yoneda", "roundtrip", "--z-size", "3", "--x-size", "1", None, "json"):
        (0, "85314ba560052a3fd59fb94d885e7f51aac4f0f28417c79878768c139cbb37d4"),
    ("yoneda", "roundtrip", "--z-size", "3", "--x-size", "1", None, "text"):
        (0, "a0d9ae8683ab5a268844328a8789140e7d87f7b4d27dfe07e027ff857555d6ef"),
    ("cat", "twin", "-", "loose2", "json"):
        (1, "6066bb6eb90b2c0480115929e2293e144000136454b36d5c6f672822e23afb79"),
    ("cat", "twin", "-", "loose2", "text"):
        (1, "be7d08cb98968dfe291ec5333b807751f881143d164cc0ea67f169372bfb2fe5"),
}


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


@pytest.mark.parametrize("args, pinned", [
    (("--format", "text"), ("--format", "text")),
    (("--format", "json", "--quick"), ("--format", "json", "--quick")),
], ids=["text", "json_quick"])
def test_report_bytes_match_the_pinned_digest(args, pinned):
    result = CliRunner().invoke(cli_main, ["report", *args, "--seed", "0"])
    assert result.exit_code == 0
    assert _digest(result) == REPORT_DIGESTS[pinned]


def _command_id(key) -> str:
    """Subcommand, document (else the flags' values) and format."""
    *args, document, fmt = key
    source = document or "_".join(a for a in args[2:] if not a.startswith("--"))
    return f"{args[1]}_{source}_{fmt}"


@pytest.mark.parametrize("key", list(COMMAND_DIGESTS), ids=_command_id)
def test_command_bytes_match_the_pinned_digest(key):
    *args, document, fmt = key
    stdin = json.dumps(COMMAND_DOCUMENTS[document]) if document else None
    result = CliRunner().invoke(cli_main, [*args, "--format", fmt], input=stdin)
    code, digest = COMMAND_DIGESTS[key]
    assert result.exit_code == code
    assert _digest(result) == digest
    if fmt == "json":
        assert (json.loads(result.stdout)["status"] == "pass") == (code == 0)
