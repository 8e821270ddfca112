"""Spans recorded by the benchmark around its calls into liftlab.

A span has a name (``<module>.<function>``), an optional size tag such as
``n6`` or ``z4x1``, start and end times, its parent span, the workload and
seed, and counts read from the call's result.  Spans stay in memory; the
parent process writes them out as JSON when a traced run ends.
"""

from __future__ import annotations

import functools
import re
import time
from contextlib import contextmanager

_TAG = re.compile(r"n\d+|z\d+x\d+")


class Tracer:
    def __init__(self, seed: int):
        self.seed = seed
        self.workload = None
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, tag: str | None = None):
        """Time the body; it may add counts to the yielded dict."""
        record = {"name": name, "tag": tag, "workload": self.workload,
                  "seed": self.seed, "parent": self._open[-1] if self._open else None,
                  "counts": {}, "start": time.monotonic()}
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record["counts"]
        finally:
            record["end"] = time.monotonic()
            self._open.pop()

    @contextmanager
    def wrapping(self, module, attr: str, label, counts=None):
        """Replace ``module.attr`` by a version that records a span per call.

        Used on the names a liftlab module calls its layers through (say
        ``liftlab.lebesgue_diff.differentiates``), so the spans time the
        program's own calls and nothing runs a second time.  ``label`` maps
        the call's arguments to (span name, tag).
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            name, tag = label(*args, **kwargs)
            with self.span(name, tag) as found:
                result = original(*args, **kwargs)
                if counts is not None:
                    found.update(counts(result))
            return result

        setattr(module, attr, traced)
        try:
            yield
        finally:
            setattr(module, attr, original)


def layer_metric(metric: str, spans: list[dict]) -> float:
    """Read a per-layer metric off the spans.

    ``<span>.<stat>[.<tag>]``: without a tag every span of that name
    counts.  ``s`` is total inclusive seconds, ``<key>_per_s`` a count per
    second, ``s_per_<key>`` seconds per counted item (``liftings`` for
    ``s_per_lifting``), and any other stat the summed count ``<stat>``.
    """
    parts = metric.split(".")
    tag = parts.pop() if _TAG.fullmatch(parts[-1]) else None
    stat = parts.pop()
    name = ".".join(parts)
    chosen = [s for s in spans if s["name"] == name and tag in (None, s["tag"])]
    if not chosen:
        raise KeyError(f"no span {name!r} with tag {tag!r} for metric {metric!r}")
    seconds = sum(s["end"] - s["start"] for s in chosen)

    def count(key: str) -> int:
        return sum(s["counts"].get(key, 0) for s in chosen)

    if stat == "s":
        return seconds
    if stat.endswith("_per_s"):
        return count(stat[:-len("_per_s")]) / seconds
    if stat.startswith("s_per_"):
        return seconds / count(stat[len("s_per_"):] + "s")
    return count(stat)
