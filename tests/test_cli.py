import json

import pytest
from click.testing import CliRunner

from liftlab.cli import main

LAMBDA_A = [0, 5, 2, 7, 0, 5, 2, 7]


@pytest.fixture
def runner():
    return CliRunner()


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
            "kind": "category", "n": 3, "check_regular": True,
            "table": [[0, None, None], [None, 1, 2], [2, None, None]]})
        result = runner.invoke(main, ["cat", "twin", doc, "--format", "json"])
        assert result.exit_code == 0
        report = json.loads(result.stdout)
        assert report["twin_objects"] == 3
        assert report["hom_recapture"] is True

    def test_twin_rejects_non_regular_as_check_failure(self, runner, tmp_path):
        doc = write(tmp_path, "cat.json", {
            "kind": "category", "n": 2, "check_regular": True,
            "table": [[None, None], [None, None]]})
        result = runner.invoke(main, ["cat", "twin", doc, "--format", "json"])
        assert result.exit_code == 1
        assert json.loads(result.stdout)["regular"] is False

    def test_natequiv_flags(self, runner):
        result = runner.invoke(main, ["cat", "natequiv", "--source", "2",
                                      "--target", "3", "--format", "json"])
        assert result.exit_code == 0
        report = json.loads(result.stdout)
        assert report["arrow_indexed"] == report["object_indexed"] == 20

    def test_natequiv_scenario_document(self, runner, tmp_path):
        doc = write(tmp_path, "scenario.json", {
            "kind": "scenario", "name": "natequiv",
            "source": "2", "target": "3"})
        result = runner.invoke(main, ["cat", "natequiv", doc])
        assert result.exit_code == 0

    def test_natequiv_unknown_category(self, runner):
        result = runner.invoke(main, ["cat", "natequiv", "--source", "2",
                                      "--target", "nope"])
        assert result.exit_code == 2


class TestYonedaCommand:
    def test_roundtrip_flags(self, runner):
        result = runner.invoke(main, ["yoneda", "roundtrip", "--z-size", "2",
                                      "--x-size", "1", "--format", "json"])
        assert result.exit_code == 0
        report = json.loads(result.stdout)
        assert report["candidate_count"] == 2 and report["mode"] == "raw"

    def test_roundtrip_scenario(self, runner, tmp_path):
        doc = write(tmp_path, "scenario.json", {
            "kind": "scenario", "name": "yoneda", "z_size": 3, "x_size": 1})
        result = runner.invoke(main, ["yoneda", "roundtrip", doc])
        assert result.exit_code == 0

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

    def test_parallel_agrees_with_serial(self, runner):
        serial = runner.invoke(main, ["report", "--quick", "--format", "json"])
        fanned = runner.invoke(main, ["report", "--quick", "--format", "json",
                                      "--parallel", "3"])
        assert fanned.exit_code == 0
        assert serial.stdout_bytes == fanned.stdout_bytes
