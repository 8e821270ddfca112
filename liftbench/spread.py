"""Run one workload on several seeds and report each end-to-end metric's
median, quartiles and spread (interquartile distance over the median).

Usage (from the repository root):

    python3 liftbench/spread.py --workload cli_mix --seeds 1-10 [--seconds S]

S defaults to run_seconds in BENCHMARK.json.  Each run's result line is
appended to .liftbench/spread-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    log = ROOT / ".liftbench" / f"spread-{args.workload}.jsonl"
    log.parent.mkdir(exist_ok=True)

    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        with log.open("a") as out:
            out.write(json.dumps({"seed": seed, **result}) + "\n")
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} " + " ".join(
                  f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name, vals in values.items():
        q1, median, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / median
        print(f"{name}: median {median:.6g}  quartiles {q1:.6g} .. {q3:.6g}  "
              f"spread {share:.4f}  (bound {bounds[name]}, "
              f"{share / bounds[name]:.2f} of it)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
