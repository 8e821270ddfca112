"""One fresh interpreter of the benchmark: set a workload up, then run one
untraced pass of it, a traced pass over every workload, or nothing.

Usage: python3 liftbench/child.py {setup|pass|trace} WORKLOAD SEED SPAWNED

SPAWNED is the parent's time.monotonic() just before it started this
process, so set-up time covers interpreter start, ``import liftlab`` and
input generation.  A pass also times the calibration kernels
(calibrate.py) every 0.1 s.  Prints one JSON object on its last stdout
line.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(mode: str, workload: str, seed: int, spawned: float) -> dict:
    # One vCPU for the whole child, so the calibration kernels time the
    # same core as the operations they interrupt.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from inputs import INPUTS

    if mode == "trace":
        inputs = {name: make(seed) for name, make in INPUTS.items()}
    else:
        inputs = {workload: INPUTS[workload](seed)}
    out = {"setup_s": time.monotonic() - spawned}
    if mode == "pass":
        from calibrate import Sampler

        with Sampler(workload) as sampler:
            out["pass_s"], out["ops"] = workloads.run_ops(
                workloads.OPS[workload](inputs[workload]), clock=sampler.clock)
        out["calibration"] = sampler.timings
    elif mode == "trace":
        from tracer import Tracer

        tracer = Tracer(seed)
        out["sections"], out["ops"] = workloads.traced_run(inputs, tracer)
        out["spans"] = tracer.spans
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1], sys.argv[2], int(sys.argv[3]),
                          float(sys.argv[4]))))
