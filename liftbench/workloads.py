"""The operations of each workload, untraced and traced.

Importing this module imports liftlab, so it counts as set-up; only
child.py imports it, in a fresh interpreter per pass.  Every operation
goes through liftlab's public API, and its output is checked by
checks.py.  CLI commands run in-process through click's runner.
"""

from __future__ import annotations

import hashlib
import json
import time
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable

from click.testing import CliRunner

import liftlab.cli
import liftlab.lebesgue_diff
import liftlab.suite
import liftlab.yoneda_finite
from liftlab.lebesgue_diff import verify_theorem1
from liftlab.measure_space import build_space

import checks
from inputs import YONEDA_CLI

_RUNNER = CliRunner()


@dataclass
class Op:
    """One checked call into liftlab; ``span`` and ``tag`` name it."""

    span: str
    tag: str | None
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]
    digest: Callable[[Any], str]
    counts: Callable[[Any], dict] = field(default=lambda out: {})


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli_op(command: str, args: list[str], doc, check) -> Op:
    """``liftlab <command> <args> --format json``, reading ``doc`` from
    stdin when given; ``check(exit_code, report)`` judges the output."""
    argv = command.split() + args + ["--format", "json"]
    stdin = None
    if doc is not None:
        argv.append("-")
        stdin = json.dumps(doc)

    def judge(result) -> list[str]:
        try:
            report = json.loads(result.stdout_bytes)
        except ValueError:
            return [f"exit {result.exit_code} without a JSON report "
                    f"({result.exception!r})"]
        return check(result.exit_code, report)

    return Op("cli." + command.replace(" ", "_"), None,
              lambda: _RUNNER.invoke(liftlab.cli.main, argv, input=stdin),
              judge, lambda result: _sha(result.stdout_bytes))


def _json_digest(report: dict) -> str:
    return _sha(json.dumps(report, sort_keys=True).encode())


def _atoms_tag(weights) -> str:
    return f"n{len(weights)}"


def report_ops(inp: dict) -> list[Op]:
    return [_cli_op("report", ["--seed", str(inp["seed"])], None, checks.check_report)]


def ladder_ops(inp: dict) -> list[Op]:
    return [Op("lebesgue_diff.verify_theorem1", _atoms_tag(weights),
               lambda w=weights: verify_theorem1(build_space(w)).to_dict(),
               lambda rep, w=weights: checks.check_theorem1(w, rep),
               _json_digest, lambda rep: {"liftings": rep["lifting_count"]})
            for weights in inp["spaces"]]


def cli_ops(inp: dict) -> list[Op]:
    lw = inp["liftings_weights"]
    ops = [_cli_op("space check", [], inp[case],
                   lambda code, rep, c=case: checks.check_space_check(c, code, rep))
           for case in ("lifting", "density", "ae_identity")]
    ops += [
        _cli_op("space liftings", [], inp["liftings"],
                lambda code, rep: checks.check_liftings(lw, code, rep)),
        _cli_op("pm classify", [], inp["m6"],
                lambda code, rep: checks.check_classify(inp["m6_perm"], code, rep)),
        _cli_op("pm interchange", [], inp["m6"],
                lambda code, rep: checks.check_interchange(inp["m6"]["table"], code, rep)),
        _cli_op("cat twin", ["--max-elems", "9"], inp["sq"], checks.check_twin),
        _cli_op("cat natequiv", ["--source", "3", "--target", "SQ"], None,
                lambda code, rep: checks.check_natequiv("3", "SQ", code, rep)),
    ]
    ops += [_cli_op("yoneda roundtrip", ["--z-size", str(z), "--x-size", str(x)], None,
                    lambda code, rep, z=z, x=x: checks.check_yoneda(z, x, code, rep))
            for z, x in YONEDA_CLI]
    return ops


OPS = {"report_full": report_ops, "theorem1_ladder": ladder_ops, "cli_mix": cli_ops}


def run_ops(ops: list[Op], tracer=None, clock=time.perf_counter) -> tuple[float, list[dict]]:
    """Run the operations in order; returns the seconds spent inside them,
    read off ``clock``, and one record per operation.  Checks run outside
    the timed region.

    An exception, from liftlab or from a check reading a report that lacks
    a field, fails that operation; the next one still runs.
    """
    total = 0.0
    records = []
    for op in ops:
        problems, digest = [], ""
        with tracer.span(op.span, op.tag) if tracer else nullcontext({}) as found:
            started = clock()
            try:
                out = op.run()
            except Exception as exc:
                problems = [f"raised {exc!r}"]
            seconds = clock() - started
        if not problems:
            try:
                problems = op.check(out)
                digest = op.digest(out)
                found.update(op.counts(out))
            except Exception as exc:
                problems = [f"check raised {exc!r}"]
        total += seconds
        records.append({"name": op.span + (f".{op.tag}" if op.tag else ""),
                        "s": seconds, "problems": problems, "digest": digest})
    return total, records


# ---------------------------------------------------------------------------
# Traced run: the same operations with spans.  The layer calls below them
# are timed by swapping the names the program's own modules call through
# for wrappers (Tracer.wrapping), so every span comes from liftlab's code
# path and nothing runs twice.
# ---------------------------------------------------------------------------

def _fixed(name):
    return lambda *a, **k: (name, None)


def _sized(name):
    """Tag n<k>: the size argument of a partial_magma sweep (default 3)."""
    return lambda n=3, *a, **k: (name, f"n{n}")


def _atoms(name):
    """Tag n<atoms>: the first argument is a measure space or a transform."""
    def label(first, *a, **k):
        return name, f"n{getattr(first, 'space', first).n}"
    return label


def _count(key):
    return lambda result: {key: len(result)}


_SUITE, _CLI = liftlab.suite, liftlab.cli
_LEB, _YONEDA = liftlab.lebesgue_diff, liftlab.yoneda_finite

#: Per workload: (module, name it calls through, label, counts or None).
#: A label maps the call's arguments to (span name, tag).
WRAPS = {
    "report_full": [
        (_SUITE, "run_check", lambda name, *a, **k: (f"suite.run_check.{name}", None), None),
        (_SUITE, "interchange_sweep", _sized("partial_magma.interchange_sweep"),
         lambda r: {"tables": r.tables, "both_defined": r.both_defined}),
        (_SUITE, "brute_force_liftings", _fixed("measure_algebra.brute_force_liftings"), None),
        (_SUITE, "regular_tables", _sized("partial_magma.regular_tables"), None),
        (_SUITE, "principality_oracle", _fixed("filter_calculus.principality_oracle"), None),
        (_SUITE, "base_generation_oracle", _fixed("filter_calculus.base_generation_oracle"),
         None),
        (_SUITE, "jsonable", _fixed("verdict.jsonable"), None),
        (_CLI, "jsonable", _fixed("verdict.jsonable"), None),
    ],
    "theorem1_ladder": [
        (_LEB, "enumerate_liftings", _atoms("measure_algebra.enumerate_liftings"), None),
        (_LEB, "kernel_from_lifting", _atoms("lebesgue_diff.kernel_from_lifting"), None),
        (_LEB, "differentiates", _atoms("lebesgue_diff.differentiates"), None),
        (_LEB, "lower_density_from_kernel", _atoms("lebesgue_diff.lower_density_from_kernel"),
         None),
        (_LEB, "lebesgue_transform", _atoms("lebesgue_diff.lebesgue_transform"),
         lambda lam: {"mean_values": len(lam.values)}),
        (_LEB, "limiting_operator", _atoms("lebesgue_diff.limiting_operator"), None),
        (_LEB, "lower_density_to_lifting", _atoms("measure_algebra.lower_density_to_lifting"),
         None),
        (_LEB, "is_lifting", _atoms("measure_algebra.is_lifting"), None),
        (_LEB, "lifting_to_right_inverse", _atoms("measure_algebra.lifting_to_right_inverse"),
         None),
        (_LEB, "is_boolean_homomorphism", _atoms("measure_algebra.is_boolean_homomorphism"),
         None),
    ],
    "cli_mix": [
        (_CLI, "check_property", lambda t, prop, *a, **k: (
            f"measure_algebra.check_property.{prop.value}", f"n{t.space.n}"), None),
        (_CLI, "is_lifting", _atoms("measure_algebra.is_lifting"), None),
        (_CLI, "implication_suite", _atoms("measure_algebra.implication_suite"), None),
        (_CLI, "enumerate_liftings", _atoms("measure_algebra.enumerate_liftings"), None),
        (_CLI, "classify", _fixed("partial_magma.classify"), None),
        (_CLI, "interchange_check", _fixed("partial_magma.interchange_check"),
         lambda rep: {"quadruples": rep.quadruples}),
        (_SUITE, "enumerate_functors", _fixed("category_kernel.enumerate_functors"),
         _count("functors")),
        (_SUITE, "enumerate_nat_homs", _fixed("category_kernel.enumerate_nat_homs"),
         _count("transformations")),
        (_SUITE, "enumerate_nat_trans", _fixed("category_kernel.enumerate_nat_trans"),
         _count("transformations")),
        (_SUITE, "nat_from_hom", _fixed("category_kernel.nat_from_hom"), None),
        (_YONEDA, "enumerate_natural", lambda z, x, *a, **k: (
            "yoneda_finite.enumerate_natural", f"z{len(z)}x{x}"),
         lambda result: {"candidates": len(result[0])}),
        (_YONEDA, "is_natural", _fixed("yoneda_finite.is_natural"), None),
    ],
}


def traced_run(inputs: dict, tracer) -> tuple[dict, list[dict]]:
    """Every workload's operations with spans, each with its layer wraps.

    Returns the traced seconds per workload (operations only, comparable
    with an untraced pass) and the operation records.
    """
    sections = {}
    records = []
    for workload, ops_of in OPS.items():
        tracer.workload = workload
        with ExitStack() as stack:
            for module, attr, label, counts in WRAPS[workload]:
                stack.enter_context(tracer.wrapping(module, attr, label, counts))
            sections[workload], done = run_ops(ops_of(inputs[workload]), tracer)
        records += [dict(record, workload=workload) for record in done]
    return sections, records
