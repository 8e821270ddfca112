import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import click
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings, strategies as st

import liftlab.category_kernel as category_kernel
import liftlab.cli
import liftlab.measure_algebra as measure_algebra
import liftlab.suite
from liftlab.cli import main
from liftlab.measure_algebra import TransformProperty
from liftlab.verdict import InternalCheckError
from test_partial_magma import null_monoid

LAMBDA_A = [0, 5, 2, 7, 0, 5, 2, 7]


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def cli_mix_documents(monkeypatch):
    """The documents of the benchmark's cli_mix workload at seed 1."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "liftbench"))
    from inputs import cli_inputs
    return cli_inputs(1)


def _source_env():
    """The environment with this checkout's ``src`` first on the path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestInputHandling:
    def test_negative_weight_is_input_error(self, runner, tmp_path):
        doc = write(tmp_path, "bad.json",
                    {"kind": "measure_space", "weights": ["-1", "1"]})
        result = runner.invoke(main, ["space", "liftings", doc])
        assert result.exit_code == 2

    def test_invalid_json_is_input_error(self, runner, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        result = runner.invoke(main, ["space", "liftings", str(path)])
        assert result.exit_code == 2

    def test_wrong_kind_is_input_error(self, runner, tmp_path):
        doc = write(tmp_path, "pm.json",
                    {"kind": "partial_magma", "n": 1, "table": [[0]]})
        result = runner.invoke(main, ["space", "liftings", doc])
        assert result.exit_code == 2

    def test_atom_cap_enforced_and_overridable(self, runner, tmp_path):
        doc = write(tmp_path, "big.json",
                    {"kind": "measure_space", "weights": ["1"] * 13})
        result = runner.invoke(main, ["space", "liftings", doc])
        assert result.exit_code == 2
        result = runner.invoke(main, ["space", "liftings", doc,
                                      "--max-atoms", "13"])
        assert result.exit_code == 0

    def test_stdin_input(self, runner):
        payload = json.dumps({"kind": "measure_space", "weights": ["1", "1", "0"]})
        result = runner.invoke(main, ["space", "liftings", "-"], input=payload)
        assert result.exit_code == 0

    def test_boolean_weight_is_input_error(self, runner, tmp_path):
        doc = write(tmp_path, "bool.json",
                    {"kind": "measure_space", "weights": [True, "1"]})
        result = runner.invoke(main, ["space", "liftings", doc])
        assert result.exit_code == 2
        assert result.stderr.count("\n") == 1
        assert "bad weights" in result.stderr

    def test_boolean_transform_entry_is_input_error(self, runner, tmp_path):
        doc = write(tmp_path, "bool.json",
                    {"kind": "measure_space", "weights": ["1", "1"],
                     "transform": [0, 1, 2, True]})
        result = runner.invoke(main, ["space", "check", doc])
        assert result.exit_code == 2
        assert result.stderr.count("\n") == 1
        assert "set bitmasks" in result.stderr

    def test_non_utf8_document_is_input_error(self, runner, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"kind": "measure_space", "weights": ["1", "\xff"]}')
        result = runner.invoke(main, ["space", "liftings", str(path)])
        assert result.exit_code == 2
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert result.stderr.count("\n") == 1
        assert "cannot read" in result.stderr

    def test_missing_transform_for_check(self, runner, tmp_path):
        doc = write(tmp_path, "s1.json",
                    {"kind": "measure_space", "weights": ["1", "1", "0"]})
        result = runner.invoke(main, ["space", "check", doc])
        assert result.exit_code == 2


def _doc(payload) -> str:
    return json.dumps(payload)


def _table(kind) -> str:
    return _doc({"kind": kind, "n": 2, "table": [[0, 0.5], [None, 1]]})


# Bad input that once exited 1 with a traceback, hung, or ran as valid input.
BAD_INPUT = {
    "huge_exponent_weight": (["space", "liftings", "-"],
                             _doc({"kind": "measure_space", "weights": ["1e9999999", "1"]})),
    "huger_exponent_weight": (["space", "liftings", "-"],
                              _doc({"kind": "measure_space", "weights": ["1e999999999", "1"]})),
    "pm_float_entry": (["pm", "classify", "-"], _table("partial_magma")),
    "twin_float_entry": (["cat", "twin", "-"], _table("category")),
    "pm_boolean_n": (["pm", "classify", "-"],
                     _doc({"kind": "partial_magma", "n": True, "table": [[0]]})),
    "over_long_json_integer": (["space", "liftings", "-"],
                               '{"kind": "measure_space", "weights": [1%s]}' % ("0" * 5000)),
    "deeply_nested_json": (["space", "liftings", "-"], "[" * 100_000 + "]" * 100_000),
}

_NATEQUIV = (["cat", "natequiv"], ["--source", "2", "--target", "3"])
_YONEDA = (["yoneda", "roundtrip"], ["--z-size", "2", "--x-size", "1"])


def _scenario(name, **fields) -> dict:
    return {"kind": "scenario", "name": name, **fields}


#: (command, valid flags, document): documents that ``cat natequiv`` and
#: ``yoneda roundtrip`` once read in place of their flags, four of them bad
#: input that once escaped the boundary.  Both commands take flags only, so
#: a path is a usage error.
SCENARIO_DOCUMENTS = {
    "natequiv_2_3": (*_NATEQUIV, _scenario("natequiv", source="2", target="3")),
    "natequiv_list_source": (*_NATEQUIV, _scenario("natequiv", source=["x"], target="3")),
    "yoneda_3_1": (*_YONEDA, _scenario("yoneda", z_size=3, x_size=1)),
    "yoneda_string_size": (*_YONEDA, _scenario("yoneda", z_size="2", x_size=1)),
    "yoneda_float_size": (*_YONEDA, _scenario("yoneda", z_size=2.5, x_size=1)),
    "yoneda_boolean_size": (*_YONEDA, _scenario("yoneda", z_size=True, x_size=1)),
}


class TestExceptionBoundary:
    @pytest.mark.parametrize("case", sorted(BAD_INPUT))
    def test_bad_input_exits_2_with_one_line(self, runner, case):
        args, stdin = BAD_INPUT[case]
        result = runner.invoke(main, args, input=stdin)
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith("input error: ")
        assert result.stderr.count("\n") == 1
        assert result.stdout == ""

    @pytest.mark.parametrize("stage, args", [
        ("classify", ["pm", "classify", "-"]),
        ("run_suite", ["report", "--quick"]),
    ])
    def test_internal_error_exits_3_with_the_witness(self, runner, monkeypatch,
                                                     stage, args):
        def broken(*a, **k):
            raise InternalCheckError("chain rule broken at (0, 1)")

        monkeypatch.setattr(liftlab.cli, stage, broken)
        result = runner.invoke(main, args, input=_doc(
            {"kind": "partial_magma", "n": 1, "table": [[0]]}))
        assert result.exit_code == 3
        assert result.stderr == "internal error: chain rule broken at (0, 1)\n"
        assert result.stdout == ""

    @pytest.mark.parametrize("args, message", [
        (["report", "--format", "xml"], "'--format': 'xml' is not one of 'json', 'text'."),
        (["yoneda", "roundtrip", "--z-size", "abc"],
         "'--z-size': 'abc' is not a valid integer range."),
        (["yoneda", "roundtrip", "--z-size", "1", "--x-size", "0"],
         "'--x-size': 0 is not in the range 1<=x<=3."),
        (["cat", "natequiv", "--source", "nope", "--target", "3"],
         "'--source': 'nope' is not one of '1', '2', '3', 'II', 'SQ'."),
        (["space", "check", "-", "--max-atoms", "0"], "'--max-atoms': 0 is not in the range x>=1."),
        (["space", "liftings", "-", "--max-atoms", "-5"],
         "'--max-atoms': -5 is not in the range x>=1."),
        (["space", "theorem1", "-", "--max-atoms", "-5"],
         "'--max-atoms': -5 is not in the range x>=1."),
        (["pm", "classify", "-", "--max-elems", "0"], "'--max-elems': 0 is not in the range x>=1."),
        (["pm", "interchange", "-", "--max-elems", "-1"],
         "'--max-elems': -1 is not in the range x>=1."),
        (["cat", "twin", "-", "--max-elems", "0"], "'--max-elems': 0 is not in the range x>=1."),
    ], ids=["format_xml", "z_size_abc", "x_size_0", "source_nope",
            "check_max_atoms_zero",
            "liftings_max_atoms_negative", "theorem1_max_atoms_negative",
            "classify_max_elems_zero", "interchange_max_elems_negative", "twin_max_elems_zero"])
    def test_usage_error_exits_2_with_one_line(self, runner, args, message):
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert result.stderr == f"input error: Invalid value for {message}\n"
        assert result.stdout == ""

    def test_a_missing_choice_option_is_one_line_without_tabs(self, runner):
        result = runner.invoke(main, ["cat", "natequiv", "--source", "2"])
        assert result.exit_code == 2
        assert result.stderr == ("input error: Missing option '--target'. "
                                 "Choose from: 1, 2, 3, II, SQ\n")
        assert result.stdout == ""

    @pytest.mark.parametrize("case", sorted(SCENARIO_DOCUMENTS))
    @pytest.mark.parametrize("with_flags", [False, True], ids=["alone", "after_flags"])
    def test_a_document_path_is_a_usage_error(self, runner, tmp_path, case, with_flags):
        command, flags, doc = SCENARIO_DOCUMENTS[case]
        path = write(tmp_path, "scenario.json", doc)
        result = runner.invoke(main, [*command, *(flags if with_flags else []), path])
        assert result.exit_code == 2
        first = "Got unexpected extra argument" if with_flags else "Missing option"
        assert result.stderr.startswith(f"input error: {first}")
        assert result.stderr.count("\n") == 1
        assert result.stdout == ""

    @pytest.mark.parametrize("args", [["--help"], ["report", "--help"],
                                      ["yoneda", "roundtrip", "--help"]])
    def test_help_still_prints_click_help(self, runner, args):
        result = runner.invoke(main, args)
        assert result.exit_code == 0
        assert result.stdout.startswith("Usage: ") and "Options:" in result.stdout
        assert result.stderr == ""

    def test_a_bare_group_still_prints_its_help(self, runner):
        result = runner.invoke(main, ["yoneda"])
        assert result.exit_code == 2
        assert "Usage: " in result.output and "roundtrip" in result.output
        assert "input error" not in result.output

    def test_readme_size_cap_example_exits_2(self, runner):
        result = runner.invoke(main, ["yoneda", "roundtrip", "--z-size", "5",
                                      "--x-size", "1"])
        assert result.exit_code == 2
        assert result.stderr == ("input error: Invalid value for '--z-size': "
                                 "5 is not in the range 1<=x<=4.\n")
        assert result.stdout == ""

    def test_a_bug_is_not_passed_off_as_bad_input(self, runner, monkeypatch):
        def buggy(*a, **k):
            raise ValueError("a bug, not bad input")

        monkeypatch.setattr(liftlab.cli, "classify", buggy)
        result = runner.invoke(main, ["pm", "classify", "-"], input=_doc(
            {"kind": "partial_magma", "n": 1, "table": [[0]]}))
        assert result.exit_code == 1
        assert isinstance(result.exception, ValueError)

    def test_oracle_falls_back_to_sampling_past_the_cap(self, runner):
        result = runner.invoke(main, ["space", "liftings", "-", "--oracle",
                                      "--format", "json"],
                               input=_doc({"kind": "measure_space",
                                           "weights": ["1", "1", "0", "0"]}))
        assert result.exit_code == 0
        oracle = json.loads(result.stdout)["oracle"]
        assert oracle["mode"] == "sampled" and oracle["holds"] is True

    def test_huge_exponent_exits_2_fast_in_a_fresh_process(self, tmp_path):
        doc = write(tmp_path, "huge.json",
                    {"kind": "measure_space", "weights": ["1e9999999", "1"]})
        # timeout=1.5 fails the test (TimeoutExpired) if parsing hangs
        proc = subprocess.run([sys.executable, "-m", "liftlab.cli", "space", "liftings", doc],
                              env=_source_env(), capture_output=True, text=True, timeout=1.5)
        assert proc.returncode == 2
        assert proc.stderr.startswith("input error: bad weights")
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("command", ["liftings", "theorem1"])
    def test_too_many_lifting_entries_exit_2_fast_in_a_fresh_process(self, tmp_path,
                                                                     command):
        # 8 positive and 4 null atoms: 8^4 liftings of 2^12 entries each
        doc = write(tmp_path, "8_4.json",
                    {"kind": "measure_space", "weights": ["1"] * 8 + ["0"] * 4})
        proc = subprocess.run([sys.executable, "-m", "liftlab.cli", "space", command, doc],
                              env=_source_env(), capture_output=True, text=True, timeout=1.5)
        cap = {"liftings": "cap of 10000000", "theorem1": "theorem-1 budget of 1000000"}
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == ("input error: 8^4 liftings of 2^12 entries each are "
                               f"16777216 entries, over the {cap[command]}\n")

    def test_theorem1_over_its_budget_exits_2_fast_in_a_fresh_process(self, tmp_path):
        # 9 positive and 3 null atoms: within both atom and enumeration caps,
        # but 9^3 liftings of 2^12 entries each would take minutes
        doc = write(tmp_path, "9_3.json",
                    {"kind": "measure_space", "weights": ["1"] * 9 + ["0"] * 3})
        proc = subprocess.run([sys.executable, "-m", "liftlab.cli", "space", "theorem1", doc],
                              env=_source_env(), capture_output=True, text=True, timeout=1.5)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == ("input error: 9^3 liftings of 2^12 entries each are "
                               "2985984 entries, over the theorem-1 budget of 1000000\n")

    def test_commands_leave_numpy_unimported(self, tmp_path):
        # importing numpy costs about 0.18 s and 14 MB of RSS, more than
        # any of these commands needs
        space = write(tmp_path, "space.json",
                      {"kind": "measure_space", "weights": ["1", "1", "0"]})
        magma = write(tmp_path, "magma.json", {
            "kind": "partial_magma", "n": 3,
            "table": [[(i + j) % 3 for j in range(3)] for i in range(3)]})
        commands = [["yoneda", "roundtrip", "--z-size", "4", "--x-size", "1"],
                    ["cat", "natequiv", "--source", "3", "--target", "SQ"],
                    ["space", "theorem1", space],
                    ["space", "liftings", "--oracle", space],
                    ["pm", "classify", magma],
                    ["pm", "interchange", magma],
                    ["report", "--quick"]]
        script = ("import json, sys\n"
                  "from click.testing import CliRunner\n"
                  "from liftlab.cli import main\n"
                  "for args in json.loads(sys.argv[1]):\n"
                  "    result = CliRunner().invoke(main, args)\n"
                  "    assert result.exit_code == 0, (args, result.output)\n"
                  "assert 'numpy' not in sys.modules, 'numpy was imported'\n")
        proc = subprocess.run([sys.executable, "-c", script, json.dumps(commands)],
                              env=_source_env(), capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr

    def test_category_checks_leave_numpy_unimported(self):
        # the whole battery, the interchange sweeps and the regular magmas
        # included, runs without numpy
        script = ("import sys\n"
                  "from liftlab.suite import run_suite\n"
                  "report = run_suite()\n"
                  "assert report['all_pass'] is True\n"
                  "assert 'interchange_n3' in [c['name'] for c in report['checks']]\n"
                  "assert 'numpy' not in sys.modules, 'numpy was imported'\n")
        proc = subprocess.run([sys.executable, "-c", script], env=_source_env(),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr

    def test_serial_runs_leave_the_process_pool_unimported(self):
        # a process pool's import loads 36 standard-library modules (about
        # 2 MB of RSS and 20-30 ms of start-up) that the report has no use for
        script = ("import sys\n"
                  "from click.testing import CliRunner\n"
                  "import liftlab.cli\n"
                  "from liftlab.suite import run_suite\n"
                  "result = CliRunner().invoke(liftlab.cli.main, ['report', '--quick'])\n"
                  "assert result.exit_code == 0, result.output\n"
                  "run_suite(quick=True)\n"
                  "pool_modules = ['concurrent.futures.process', 'multiprocessing',\n"
                  "                'socket', 'pickle']\n"
                  "loaded = [m for m in pool_modules if m in sys.modules]\n"
                  "assert not loaded, f'serial run imported {loaded}'\n")
        proc = subprocess.run([sys.executable, "-c", script], env=_source_env(),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr


# Malformed documents: a valid document of each kind with one part, at any
# depth, replaced by a wrong JSON type or dropped.  Valid documents stay small
# (at most 4 atoms, 3 elements, cheap categories and sizes).
_JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 3), st.floats(width=16),
    st.sampled_from([0.5, "1", "x", [], {}, [0]]),
    st.builds("1e{}{}".format, st.sampled_from(["", "-"]), st.integers(4301, 10 ** 12)))

_DROP = object()


def _corrupt(value):
    """``value``, or a copy with one part replaced by junk or dropped."""
    if isinstance(value, (dict, list)) and value:
        keys = sorted(value) if isinstance(value, dict) else range(len(value))

        def replace(key, part):
            copy = dict(value) if isinstance(value, dict) else list(value)
            if part is _DROP:
                del copy[key]
            else:
                copy[key] = part
            return copy

        return st.one_of(st.just(value), st.sampled_from(keys).flatmap(
            lambda key: st.builds(replace, st.just(key),
                                  st.one_of(st.just(_DROP), _JUNK, _corrupt(value[key])))))
    return st.just(value)


def _space_doc(weights):
    size = 2 ** len(weights)
    transform = st.lists(st.integers(0, size - 1), min_size=size, max_size=size)
    return st.fixed_dictionaries({"kind": st.just("measure_space"),
                                  "weights": st.just(weights)},
                                 optional={"transform": transform})


def _magma_doc(n):
    row = st.lists(st.one_of(st.none(), st.integers(0, n - 1)), min_size=n, max_size=n)
    return st.fixed_dictionaries({"kind": st.sampled_from(["partial_magma", "category"]),
                                  "n": st.just(n),
                                  "table": st.lists(row, min_size=n, max_size=n)})


_CASES = [
    (["space", "check"], ["space", "liftings"], ["space", "theorem1"],
     st.lists(st.sampled_from(["0", "1", "2", "1/2", "0.25"]), min_size=1, max_size=4)
     .flatmap(_space_doc)),
    (["pm", "classify"], ["pm", "interchange"], ["cat", "twin"],
     st.integers(1, 3).flatmap(_magma_doc)),
]
_ANY_DOCUMENT = st.one_of(*(st.tuples(st.sampled_from(case[:-1]),
                                      st.one_of(case[-1].flatmap(_corrupt), _JUNK))
                            for case in _CASES))


@given(_ANY_DOCUMENT)
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_malformed_documents_never_escape_the_boundary(case):
    command, doc = case
    result = CliRunner().invoke(main, [*command, "-"], input=json.dumps(doc))
    assert result.exception is None or isinstance(result.exception, SystemExit), doc
    assert result.exit_code in (0, 1, 2)
    if result.exit_code == 2:
        assert result.stderr.count("\n") == 1


class TestSpaceCommands:
    def test_check_pass_on_lifting(self, runner, tmp_path):
        doc = write(tmp_path, "s1.json",
                    {"kind": "measure_space", "weights": ["1", "1", "0"],
                     "transform": LAMBDA_A})
        result = runner.invoke(main, ["space", "check", doc, "--format", "json"])
        assert result.exit_code == 0
        report = json.loads(result.stdout)
        assert report["status"] == "pass"
        assert report["lifting"]["holds"] is True

    def test_check_fail_carries_witness(self, runner, tmp_path):
        doc = write(tmp_path, "s1.json",
                    {"kind": "measure_space", "weights": ["1", "1", "0"],
                     "transform": [0] * 8})
        result = runner.invoke(main, ["space", "check", doc, "--format", "json"])
        assert result.exit_code == 1
        report = json.loads(result.stdout)
        assert report["properties"]["ae_identity"]["holds"] is False
        assert report["properties"]["ae_identity"]["witness"] == 1

    @pytest.mark.parametrize("name, code", [
        ("lifting", 0), ("density", 1), ("ae_identity", 1)])
    def test_check_decides_each_property_once(self, runner, monkeypatch,
                                              cli_mix_documents, name, code):
        # the bundles and the implications read the nine verdicts decided
        decided = []
        for prop, checker in list(measure_algebra._CHECKERS.items()):
            monkeypatch.setitem(measure_algebra._CHECKERS, prop,
                                lambda t, _p=prop, _c=checker: decided.append(_p) or _c(t))
        result = runner.invoke(main, ["space", "check", "-"],
                               input=json.dumps(cli_mix_documents[name]))
        assert result.exit_code == code
        assert sorted(p.value for p in decided) == sorted(p.value for p in TransformProperty)

    def test_liftings_with_oracle(self, runner, tmp_path):
        doc = write(tmp_path, "s1.json",
                    {"kind": "measure_space", "weights": ["1", "1", "0"]})
        result = runner.invoke(main, ["space", "liftings", doc, "--oracle",
                                      "--format", "json"])
        assert result.exit_code == 0
        report = json.loads(result.stdout)
        assert report["count"] == 2
        assert report["oracle"] == {"mode": "exhaustive", "count": 2,
                                    "agrees": True}

    def test_theorem1_s1(self, runner, tmp_path):
        doc = write(tmp_path, "s1.json",
                    {"kind": "measure_space", "weights": ["1", "1", "0"]})
        result = runner.invoke(main, ["space", "theorem1", doc, "--format", "json"])
        assert result.exit_code == 0
        report = json.loads(result.stdout)
        assert report["lifting_count"] == 2
        assert report["round_trips_identical"] is True

    def test_theorem1_on_ten_atoms(self, runner, tmp_path):
        doc = write(tmp_path, "s10.json",
                    {"kind": "measure_space",
                     "weights": ["3", "1", "0", "2", "5", "1", "4", "2", "7", "1"]})
        result = runner.invoke(main, ["space", "theorem1", doc, "--format", "json"])
        assert result.exit_code == 0
        report = json.loads(result.stdout)
        assert report["lifting_count"] == 9
        assert report["all_pass"] is True and report["round_trips_identical"] is True


class TestPmCommands:
    def test_classify_subtraction_fixture(self, runner, tmp_path):
        doc = write(tmp_path, "sub.json", {
            "kind": "partial_magma", "n": 4,
            "table": [[0, None, None, None], [1, 0, None, None],
                      [2, 1, 0, None], [3, 2, 1, 0]]})
        result = runner.invoke(main, ["pm", "classify", doc, "--format", "json"])
        assert result.exit_code == 0
        report = json.loads(result.stdout)
        assert report["classification"]["associative"] is False
        assert report["classification"]["units"] == [0]

    def test_interchange(self, runner, tmp_path):
        doc = write(tmp_path, "pm.json", {
            "kind": "partial_magma", "n": 2,
            "table": [[0, None], [None, 1]]})
        result = runner.invoke(main, ["pm", "interchange", doc, "--format", "json"])
        assert result.exit_code == 0
        assert json.loads(result.stdout)["holds"] is True

    def test_element_cap(self, runner, tmp_path):
        doc = write(tmp_path, "pm.json", {
            "kind": "partial_magma", "n": 9,
            "table": [[None] * 9 for _ in range(9)]})
        result = runner.invoke(main, ["pm", "classify", doc])
        assert result.exit_code == 2


class TestCatCommands:
    def test_twin_of_single_arrow_category(self, runner, tmp_path):
        doc = write(tmp_path, "cat.json", {
            "kind": "category", "n": 3,
            "table": [[0, None, None], [None, 1, 2], [2, None, None]]})
        result = runner.invoke(main, ["cat", "twin", doc, "--format", "json"])
        assert result.exit_code == 0
        report = json.loads(result.stdout)
        assert report["twin_objects"] == 3
        assert report["hom_recapture"] is True

    def test_twin_rejects_non_regular_as_check_failure(self, runner, tmp_path):
        doc = write(tmp_path, "cat.json", {
            "kind": "category", "n": 2,
            "table": [[None, None], [None, None]]})
        result = runner.invoke(main, ["cat", "twin", doc, "--format", "json"])
        assert result.exit_code == 1
        assert json.loads(result.stdout)["regular"] is False

    def test_twin_searches_each_square_once(self, runner, monkeypatch, cli_mix_documents):
        # the square's 9 x 9 (x, y) searches of 81 pairs each; the hom
        # recapture reads the twin arrows they found
        calls = []
        real = category_kernel.is_twin_arrow
        monkeypatch.setattr(category_kernel, "is_twin_arrow",
                            lambda *args: calls.append(args) or real(*args))
        category_kernel.twin_hom_cases.cache_clear()
        result = runner.invoke(main, ["cat", "twin", "-", "--max-elems", "9"],
                               input=json.dumps(cli_mix_documents["sq"]))
        assert result.exit_code == 0
        assert len(calls) == 6561

    def test_twin_fails_when_a_hom_set_loses_an_arrow(self, runner, monkeypatch):
        real = category_kernel.hom_set
        monkeypatch.setattr(category_kernel, "hom_set",
                            lambda cat, u, v: real(cat, u, v)[:-1])
        result = runner.invoke(main, ["cat", "twin", "-", "--format", "json"], input=_doc({
            "kind": "category", "n": 3,
            "table": [[0, None, None], [None, 1, 2], [2, None, None]]}))
        assert result.exit_code == 1
        report = json.loads(result.stdout)
        assert report["hom_recapture"] is False and report["status"] == "fail"

    def test_natequiv_classifies_each_named_category_once(self, runner, monkeypatch):
        classified = []
        real = category_kernel.classify
        monkeypatch.setattr(category_kernel, "classify",
                            lambda pm: classified.append(pm) or real(pm))
        result = runner.invoke(main, ["cat", "natequiv", "--source", "3",
                                      "--target", "SQ"])
        assert result.exit_code == 0
        assert len(classified) == 2

    def test_twin_of_the_five_element_null_monoid(self, runner, tmp_path):
        # 337 twin arrows and 1,887,797 composable triples, under the cap
        doc = write(tmp_path, "null.json", {"kind": "category", "n": 5,
                                            "table": null_monoid(5).table})
        result = runner.invoke(main, ["cat", "twin", doc, "--format", "json"])
        assert result.exit_code == 0
        report = json.loads(result.stdout)
        assert (report["twin_objects"], report["twin_arrows"]) == (5, 337)
        assert report["hom_recapture"] is True

    def test_twin_past_the_cap_exits_2_within_seconds(self, runner, tmp_path):
        # the null monoid on 8 elements (the default --max-elems): 0 is the
        # unit and every product of two non-units is 1, which gives 2626
        # twin arrows, too many composable triples to check associativity on
        doc = write(tmp_path, "null.json", {"kind": "category", "n": 8,
                                            "table": null_monoid(8).table})
        started = time.monotonic()
        result = runner.invoke(main, ["cat", "twin", doc])
        assert time.monotonic() - started < 5
        assert result.exit_code == 2 and result.stdout == ""
        assert result.stderr.startswith("input error: twin category too large: 2626")
        assert result.stderr.count("\n") == 1

    def test_natequiv_flags(self, runner):
        result = runner.invoke(main, ["cat", "natequiv", "--source", "2",
                                      "--target", "3", "--format", "json"])
        assert result.exit_code == 0
        report = json.loads(result.stdout)
        assert report["arrow_indexed"] == report["object_indexed"] == 20

    def test_natequiv_unknown_category(self, runner):
        result = runner.invoke(main, ["cat", "natequiv", "--source", "2",
                                      "--target", "nope"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("source, target, functors, transformations", [
        ("SQ", "3", 20, 168),
        ("SQ", "SQ", 36, 400),
    ], ids=["sq_to_3", "sq_to_sq"])
    def test_natequiv_from_the_square(self, runner, source, target, functors,
                                      transformations):
        result = runner.invoke(main, ["cat", "natequiv", "--source", source,
                                      "--target", target, "--format", "json"])
        assert result.exit_code == 0
        report = json.loads(result.stdout)
        assert report["functors"] == functors
        assert report["arrow_indexed"] == report["object_indexed"] == transformations


class TestYonedaCommand:
    def test_roundtrip_flags(self, runner):
        result = runner.invoke(main, ["yoneda", "roundtrip", "--z-size", "2",
                                      "--x-size", "1", "--format", "json"])
        assert result.exit_code == 0
        report = json.loads(result.stdout)
        assert report["candidate_count"] == report["search_nodes"] == 2

    def test_largest_supported_sizes(self, runner):
        started = time.monotonic()
        result = runner.invoke(main, ["yoneda", "roundtrip", "--z-size", "4",
                                      "--x-size", "3", "--format", "json"])
        assert time.monotonic() - started < 10
        assert result.exit_code == 0
        report = json.loads(result.stdout)
        assert report["candidate_count"] == 64 and report["all_pass"] is True

    def test_requires_sizes(self, runner):
        result = runner.invoke(main, ["yoneda", "roundtrip"])
        assert result.exit_code == 2


class TestReport:
    def test_quick_report_passes(self, runner):
        result = runner.invoke(main, ["report", "--quick"])
        assert result.exit_code == 0
        assert "checks passed" in result.output

    def test_quick_report_deterministic(self, runner):
        one = runner.invoke(main, ["report", "--quick", "--format", "json",
                                   "--seed", "5"])
        two = runner.invoke(main, ["report", "--quick", "--format", "json",
                                   "--seed", "5"])
        assert one.exit_code == two.exit_code == 0
        assert one.stdout_bytes == two.stdout_bytes

    def test_seed_recorded_in_report(self, runner):
        result = runner.invoke(main, ["report", "--quick", "--format", "json",
                                      "--seed", "9"])
        assert json.loads(result.stdout)["seed"] == 9


def _readme_command_lines() -> list[str]:
    """Every ``liftlab ...`` line of the README's ``sh`` blocks, also one
    piped into, without its ``#`` comment."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    lines = []
    for block in re.findall(r"^```sh\n(.*?)^```", readme, re.M | re.S):
        for line in block.splitlines():
            command = line.split("#", 1)[0].split("|")[-1].strip()
            if command.startswith("liftlab "):
                lines.append(command)
    return lines


def test_the_readme_lists_its_commands():
    # the parser below sees the piped example, so a stale line cannot hide there
    lines = _readme_command_lines()
    assert "liftlab space check -" in lines and len(lines) >= 10


@pytest.mark.parametrize("line", _readme_command_lines())
def test_readme_command_parses(line):
    # resolve the subcommand, then parse its options and arguments; nothing runs
    name, args = "liftlab", shlex.split(line)[1:]
    ctx, command = None, main
    while isinstance(command, click.Group):
        ctx = click.Context(command, info_name=name, parent=ctx)
        name, command, args = command.resolve_command(ctx, args)
    command.make_context(name, args, parent=ctx)
