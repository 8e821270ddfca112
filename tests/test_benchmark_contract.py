"""Every per-layer metric the benchmark declares can still be read.

liftbench times liftlab's layers by wrapping the names liftlab's modules
call through, and ``tracer.layer_metric`` raises ``KeyError`` for a metric
with no span.  So a change that stops calling a wrapped name fails here,
not only when the benchmark runs.  The test only reads ``liftbench/``.
"""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Metrics that ``liftbench/run.py`` computes outside the traced child: the
#: overhead from two passes, and the bad-input probes from their own processes.
NOT_TRACED = {"trace_overhead_s", "cli.bad_input.s"}


def test_traced_run_yields_every_per_layer_metric(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "liftbench"))
    import tracer
    import workloads
    from inputs import INPUTS

    recorder = tracer.Tracer(seed=1)
    _, records = workloads.traced_run({name: make(1) for name, make in INPUTS.items()},
                                      recorder)
    assert [(r["name"], r["problems"]) for r in records if r["problems"]] == []
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    for metric in declared:
        if metric["name"] not in NOT_TRACED:
            tracer.layer_metric(metric["name"], recorder.spans)
