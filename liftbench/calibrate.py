"""How fast the host runs right now, from two fixed reference kernels.

The host's speed drifts by up to 2x over seconds and minutes, as other
tenants load the physical cores under our vCPUs, so two sets of runs of
the same code can disagree by more than any useful bound.  While a pass
runs, a timer therefore interrupts it every INTERVAL_S of wall time to
time a short kernel that never changes, in the same process and on the
same vCPU:

- ``interp``: interpreter-bound Python of the kind liftlab runs: integer
  and bit arithmetic, ``Fraction`` sums, frozensets and dict updates;
- ``array``: numpy gathers and comparisons over an int8 table, the kind
  of work the ``partial_magma`` sweep does.  Only workloads with an array
  share sample it.

The samples are spread evenly over the pass, as its operations are, so
``speed`` reads off them the host's speed over the same time: 1.0 when
the kernels run as fast as on the reference host, 1.5 when they take half
as long again.  Wall seconds divided by that factor are reference
seconds, the time the work would have taken on the reference host.  The
operations are timed on ``Sampler.clock``, which stops while a kernel
runs.  Nothing here imports liftlab, so a change to the program cannot
move the yardstick.
"""

from __future__ import annotations

import functools
import gc
import signal
import time
from fractions import Fraction
from statistics import fmean

#: Median kernel times on the reference host (2-vCPU microVM, Intel Xeon,
#: Python 3.11.7, numpy 2.4.6), in seconds.  They set the scale of
#: reference seconds; any fixed value gives the same comparisons.
REFERENCE_S = {"interp": 0.0016, "array": 0.001}

#: Wall seconds between two kernel timings.
INTERVAL_S = 0.1

#: Share of the timings dropped at each end before averaging.
TRIM = 0.1

#: Share of each workload's time spent in numpy array code, which sets how
#: ``speed`` weighs the kernels: for report_full, the interchange sweep's
#: share of ``liftlab report`` in a traced run
#: (partial_magma.interchange_sweep.s.n3 over cli.report.s).
ARRAY_SHARE = {"report_full": 0.77, "theorem1_ladder": 0.0, "cli_mix": 0.0}


@functools.cache
def _arrays():
    """The array kernel's inputs, made on first use: a workload without
    array code never imports numpy for it, and its peak RSS stays the
    program's own."""
    import numpy as np

    rng = np.random.default_rng(20240420)
    return (np,
            rng.integers(-1, 3, size=(64, 81), dtype=np.int8),
            rng.integers(0, 81, size=6561, dtype=np.int64),
            rng.integers(0, 81, size=6561, dtype=np.int64))


def interp_kernel() -> int:
    counts: dict[frozenset, int] = {}
    total = Fraction(0)
    for i in range(1, 160):
        total += Fraction(i % 97 + 1, i % 13 + 1)
        key = frozenset(j for j in range(10) if (i >> j) & 1)
        counts[key] = counts.get(key, 0) + 1
    acc = 0
    for i in range(6_000):
        acc += i * i % 7
    return acc + len(counts) + total.denominator


def array_kernel() -> int:
    np, table, left, right = _arrays()
    agree = 0
    for start in range(0, len(table), 64):
        rows = table[start:start + 64]
        a, b = rows[:, left], rows[:, right]
        agree += int(np.count_nonzero((a >= 0) & (b >= 0) & (a == b)))
    return agree


KERNELS = {"interp": interp_kernel, "array": array_kernel}


class Sampler:
    """Time a kernel every INTERVAL_S from a SIGALRM handler, taking turns
    between the workload's kernels, while the ``with`` block runs."""

    def __init__(self, workload: str):
        self.names = ("interp", "array") if ARRAY_SHARE[workload] else ("interp",)
        self.timings: dict[str, list[float]] = {name: [] for name in self.names}
        self._paused = 0.0
        self._turn = 0

    def clock(self) -> float:
        """perf_counter minus the time spent in kernels."""
        return time.perf_counter() - self._paused

    def _tick(self, signum, frame) -> None:
        entered = time.perf_counter()
        name = self.names[self._turn % len(self.names)]
        self._turn += 1
        # No collection inside a timing: it would walk the program's heap
        # and make the yardstick depend on what the program holds.
        collecting = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            KERNELS[name]()
            self.timings[name].append(time.perf_counter() - started)
        finally:
            if collecting:
                gc.enable()
            self._paused += time.perf_counter() - entered

    def __enter__(self) -> Sampler:
        for name in self.names:
            KERNELS[name]()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def trimmed_mean(values: list[float], cut: float = TRIM) -> float:
    ordered = sorted(values)
    drop = int(len(ordered) * cut)
    return fmean(ordered[drop:len(ordered) - drop])


def speed(timings: dict[str, list[float]], workload: str) -> float:
    """Slowdown against the reference host over a run of ``workload``.

    Each kernel's slowdown is the trimmed mean of its timings over its
    reference time: the mean, because the operations are slowed by the
    host's average state over the run, and trimmed, so that one kernel
    preempted midway does not count for more than the time it covers.  The
    workload's array share weighs the two kernels geometrically.
    """
    def slow(name: str) -> float:
        return trimmed_mean(timings[name]) / REFERENCE_S[name]

    share = ARRAY_SHARE[workload]
    if not share:
        return slow("interp")
    return slow("interp") ** (1 - share) * slow("array") ** share
