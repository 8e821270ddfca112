"""liftlab benchmark: run one workload from a source checkout and print its
metrics.

Usage (from the repository root):

    python3 liftbench/run.py --workload {report_full|theorem1_ladder|cli_mix}
                             --seed N --seconds S --trace {0|1}

Untraced (``--trace 0``): fresh child interpreters, one at a time, each run
one pass of the workload: at least two passes, so that every run checks
that two passes of one seed print the same bytes, and more while a typical
pass still ends within S seconds; then a few set-up-only children.  Prints
pass_ref_s (the sum over operations of each one's median reference time
over the passes; see calibrate.py), the median setup_s and peak_rss_mb,
and ok_share (operations whose output checked out, over operations
attempted, per pass).  cli_mix also runs the five bad-input probes once,
after the passes, each in its own ``python -m liftlab.cli``; they count
as part of every pass.

Traced (``--trace 1``): one untraced pass of the workload, then one child
that runs every workload's operations and the layer calls below them with
spans, then the probes once.  The traced operations must print the same
bytes as the untraced pass.  Prints every per-layer metric listed in
BENCHMARK.json, writes the spans to .liftbench/trace-<workload>-<seed>.json,
and reports the tracing overhead.  A traced run does this fixed work once,
whatever S is.

The last stdout line is one JSON object: correct, attempted, failed and
metrics.  ``correct`` is false when liftlab gave a wrong answer in any
operation.  ``failed`` counts every operation that did not do what it
should, including bad-input probes that liftlab mishandles.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calibrate
from checks import check_probe, check_same_bytes
from tracer import layer_metric

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("report_full", "theorem1_ladder", "cli_mix")
MIN_PASSES = 2
SETUP_ONLY_CHILDREN = 5
CHILD_TIMEOUT_S = 170
PROBE_TIMEOUT_S = 1.5

#: Bad input that must exit 2 with one stderr line: (name, arguments with
#: {doc} for the document path, document bytes, exit 0 also acceptable).
PROBES = (
    ("non_utf8_document", ["space", "liftings", "{doc}"],
     b'{"kind": "measure_space", "weights": ["1", "\xff"]}', False),
    ("yoneda_string_size", ["yoneda", "roundtrip", "{doc}"],
     b'{"kind": "scenario", "name": "yoneda", "z_size": "2", "x_size": 1}', False),
    ("boolean_weight", ["space", "liftings", "{doc}"],
     b'{"kind": "measure_space", "weights": [true, "1"]}', False),
    ("huge_exponent_weight", ["space", "liftings", "{doc}"],
     b'{"kind": "measure_space", "weights": ["1e9999999", "1"]}', False),
    ("natequiv_over_cap", ["cat", "natequiv", "--source", "SQ", "--target", "3"],
     None, True),
)


class BenchError(Exception):
    pass


def spawn(mode: str, workload: str, seed: int) -> dict:
    """Run child.py in a fresh interpreter and return its JSON result."""
    cmd = [sys.executable, str(HERE / "child.py"), mode, workload, str(seed)]
    cmd.append(repr(time.monotonic()))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} child ran past {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{mode} child exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_probes(workdir: Path) -> list[dict]:
    """Each probe in its own ``python -m liftlab.cli``, under a time bound."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    records = []
    for name, args, doc, exit_zero_ok in PROBES:
        path = workdir / f"{name}.json"
        if doc is not None:
            path.write_bytes(doc)
        argv = [a.replace("{doc}", str(path)) for a in args]
        start = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, "-m", "liftlab.cli", *argv],
                                  cwd=ROOT, env=env, capture_output=True,
                                  timeout=PROBE_TIMEOUT_S)
            code, stderr = proc.returncode, proc.stderr.decode(errors="replace")
        except subprocess.TimeoutExpired:
            code, stderr = None, ""
        end = time.monotonic()
        records.append({"name": f"probe.{name}", "s": end - start, "probe": True,
                        "problems": check_probe(code, stderr, exit_zero_ok),
                        "start": start, "end": end})
    return records


def mark_nondeterminism(passes: list[dict]) -> None:
    """Every pass of one seed must print the same bytes, operation by
    operation; a difference fails that operation in the later pass."""
    first = passes[0]["ops"]
    for later in passes[1:]:
        for a, b in zip(first, later["ops"]):
            if a["digest"] and b["digest"]:
                b["problems"] += check_same_bytes(a["digest"], b["digest"])


def untraced(workload: str, seed: int, seconds: int, workdir: Path) -> tuple[list, dict, dict]:
    passes: list[dict] = []
    walls: list[float] = []
    start = time.monotonic()
    # MIN_PASSES always run; another only if a typical one still ends within
    # the measuring time.
    while (len(walls) < MIN_PASSES
           or time.monotonic() - start + statistics.median(walls) <= seconds):
        began = time.monotonic()
        passes.append(spawn("pass", workload, seed))
        walls.append(time.monotonic() - began)
    mark_nondeterminism(passes)
    probes = run_probes(workdir) if workload == "cli_mix" else []
    setups = [p["setup_s"] for p in passes]
    setups += [spawn("setup", workload, seed)["setup_s"]
               for _ in range(SETUP_ONLY_CHILDREN)]
    ops = [op for p in passes for op in p["ops"]] + probes
    failed = sum(1 for op in ops if op["problems"])
    # The probes belong to every pass but, being deterministic, run once.
    probes_ok = sum(1 for op in probes if not op["problems"])
    pass_ok = [(sum(1 for op in p["ops"] if not op["problems"]) + probes_ok)
               / (len(p["ops"]) + len(probes)) for p in passes]
    # The host's speed drifts with other tenants' load, so the pass time
    # (each operation's median over the passes, added up) is divided by the
    # host's speed over the run, read from the calibration kernels.
    op_columns = list(zip(*(p["ops"] for p in passes)))
    wall = sum(statistics.median(op["s"] for op in column) for column in op_columns)
    timings: dict[str, list[float]] = {}
    for p in passes:
        for name, times in p["calibration"].items():
            timings.setdefault(name, []).extend(times)
    speed = calibrate.speed(timings, workload)
    values = {
        "pass_ref_s": wall / speed,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "ok_share": statistics.mean(pass_ok),
    }
    notes = {
        "pass_ref_s": f"sum over {len(op_columns)} operations of each one's median "
                      f"over {len(passes)} passes: wall {wall:.6g} s at host speed "
                      f"{speed:.4g} (" + ", ".join(f"{len(t)} {n} kernel timings"
                                                   for n, t in timings.items()) + ")",
        "setup_s": f"median of {len(setups)}",
        "peak_rss_mb": f"median of {len(passes)}",
        "ok_share": f"per pass, probes included; {len(ops) - failed} of "
                    f"{len(ops)} operations in the run",
    }
    return ops, values, notes


def traced(workload: str, seed: int, layer_names: list[str], workdir: Path) -> tuple[list, dict, dict]:
    plain = spawn("pass", workload, seed)
    run = spawn("trace", workload, seed)
    probes = run_probes(workdir)
    spans = run["spans"] + [
        {"name": "cli.bad_input", "tag": None, "workload": "cli_mix", "seed": seed,
         "parent": None, "counts": {}, "start": p["start"], "end": p["end"]}
        for p in probes]
    same_ops = [op for op in run["ops"] if op["workload"] == workload]
    for a, b in zip(plain["ops"], same_ops, strict=True):
        if a["digest"] and b["digest"]:
            b["problems"] += check_same_bytes(a["digest"], b["digest"])
    overhead = run["sections"][workload] - plain["pass_s"]
    values = {}
    for name in layer_names:
        values[name] = overhead if name == "trace_overhead_s" else layer_metric(name, spans)
    trace_path = ROOT / ".liftbench" / f"trace-{workload}-{seed}.json"
    trace_path.write_text(json.dumps(spans))
    print(f"spans: {len(spans)} written to {trace_path.relative_to(ROOT)}")
    ops = plain["ops"] + run["ops"] + probes
    return ops, values, {}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Turn SIGTERM into SystemExit, so subprocess.run kills and reaps the
    # running child before this process ends.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "liftlab" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"liftbench: {ROOT} is not a liftlab checkout: it needs "
              "src/liftlab and BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    metric_specs = spec["per_layer"] if args.trace else spec["end_to_end"]

    (ROOT / ".liftbench").mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=ROOT / ".liftbench") as tmp:
            if args.trace:
                ops, values, notes = traced(args.workload, args.seed,
                                             [m["name"] for m in metric_specs], Path(tmp))
            else:
                ops, values, notes = untraced(args.workload, args.seed,
                                               args.seconds, Path(tmp))
    except BenchError as exc:
        print(f"liftbench: {exc}", file=sys.stderr)
        return 1

    failed = [op for op in ops if op["problems"]]
    wrong = [op for op in failed if not op.get("probe")]
    for op in failed:
        print(f"FAILED {op['name']}: {'; '.join(op['problems'])}")
    for m in metric_specs:
        note = f" ({notes[m['name']]})" if m["name"] in notes else ""
        print(f"{m['name']}: {values[m['name']]:.6g} {m['unit']}{note}")
    print(f"fail_share: {len(failed) / len(ops):.6g} ({len(failed)} of {len(ops)} operations)")
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metric_specs},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
