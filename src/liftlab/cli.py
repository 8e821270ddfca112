"""Batch front end: JSON documents in, deterministic reports out.

Documents carry spaces and magmas; flags carry parameters.  Reports go to
stdout; diagnostics and timing go to stderr so that two runs with the same
input and seed are byte-identical on stdout.  Exit codes: 0 all checks
pass, 1 a check failed (witness in the report), 2 bad input (including a
search refused as too large), 3 internal error (a theorem failed on
concrete data, so the code is wrong).  Every command runs behind one
exception boundary, ``_command``; exits 2 and 3 write one stderr line, and
so do click's usage errors (a bad option value, a missing option, an
unknown command).
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from pathlib import Path

import click

from .category_kernel import (NAMED_SHAPES, FiniteCategory, hom_recapture,
                              twin_category)
from .lebesgue_diff import verify_theorem1
from .measure_algebra import (SetTransform, TransformProperty,
                              brute_force_liftings, check_property,
                              enumerate_liftings, implication_suite,
                              is_lifting, is_lower_density,
                              lifting_retraction, sampled_lifting_oracle)
from .measure_space import build_space
from .partial_magma import (build_pm, classify, interchange_check,
                            single_unit_totality)
from .suite import natequiv_report, run_suite
from .verdict import CapacityError, InternalCheckError, jsonable

EXIT_PASS, EXIT_FAIL, EXIT_INPUT, EXIT_INTERNAL = 0, 1, 2, 3


class InputError(Exception):
    pass


def _read_document(path: str, kind: str) -> dict:
    """The JSON object at ``path`` ("-" reads stdin), which must be of ``kind``."""
    try:
        raw = sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}")
    try:
        doc = json.loads(raw)
    except (ValueError, RecursionError) as exc:  # also over-long ints, deep nesting
        raise InputError(f"invalid JSON: {exc}")
    if not isinstance(doc, dict) or "kind" not in doc:
        raise InputError("document must be a JSON object with a 'kind' field")
    if doc["kind"] != kind:
        raise InputError(f"expected kind {kind!r}, got {doc['kind']!r}")
    return doc


def _read_space(path: str, max_atoms: int):
    doc = _read_document(path, "measure_space")
    weights = doc.get("weights")
    if not isinstance(weights, list) or not weights:
        raise InputError("'weights' must be a non-empty list of rational strings")
    if len(weights) > max_atoms:
        raise InputError(f"{len(weights)} atoms exceeds the cap of {max_atoms}; "
                         "raise it with --max-atoms")
    try:
        space = build_space(weights)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise InputError(f"bad weights: {exc}")
    transform = None
    if doc.get("transform") is not None:
        table = doc["transform"]
        if not isinstance(table, list) or not all(type(v) is int for v in table):
            raise InputError("'transform' must be a list of set bitmasks")
        try:
            transform = SetTransform(space, tuple(table))
        except ValueError as exc:
            raise InputError(f"bad transform: {exc}")
    return space, transform


def _read_pm(path: str, max_elems: int, kind: str):
    doc = _read_document(path, kind)
    n = doc.get("n")
    table = doc.get("table")
    if type(n) is not int or n < 1:
        raise InputError("'n' must be a positive integer")
    if n > max_elems:
        raise InputError(f"{n} elements exceeds the cap of {max_elems}; "
                         "raise it with --max-elems")
    if not isinstance(table, list):
        raise InputError("'table' must be a list of rows (null = undefined)")
    try:
        return build_pm(n, table)
    except (ValueError, TypeError) as exc:
        raise InputError(f"bad table: {exc}")


def _emit(report: dict, fmt: str, text) -> None:
    payload = jsonable(report)
    if fmt == "json":
        click.echo(json.dumps(payload, sort_keys=True, indent=2))
    else:
        click.echo("\n".join(text(payload)))


def _scalar(v) -> str:
    # an exact int's str is its JSON, without json.dumps's cost per call
    return str(v) if type(v) is int else json.dumps(v)


def _text_lines(obj, depth: int = 0) -> list[str]:
    pad = "  " * depth
    lines: list[str] = []
    if isinstance(obj, dict):
        for k in obj:
            v = obj[k]
            if isinstance(v, (dict, list)) and v:
                lines.append(f"{pad}{k}:")
                lines.extend(_text_lines(v, depth + 1))
            else:
                lines.append(f"{pad}{k}: {_scalar(v)}")
    elif isinstance(obj, list):
        for v in obj:
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_text_lines(v, depth + 1))
            else:
                lines.append(f"{pad}- {_scalar(v)}")
    else:
        lines.append(f"{pad}{_scalar(obj)}")
    return lines


def _report_lines(result: dict) -> list[str]:
    checks = result["checks"]
    return [f"{result['suite']} (version {result['version']}, "
            f"seed {result['seed']}, quick={str(result['quick']).lower()})",
            *(f"{'PASS' if c['pass'] else 'FAIL'} {c['name']}" for c in checks),
            f"{sum(1 for c in checks if c['pass'])}/{len(checks)} checks passed"]


def format_option(fn):
    return click.option("--format", "fmt", type=click.Choice(["json", "text"]),
                        default="text", show_default=True,
                        help="Report format on stdout.")(fn)


def seed_option(fn):
    return click.option("--seed", type=int, default=0, show_default=True,
                        help="Seed for the randomized sub-checks.")(fn)


def _command(group, name: str, text=_text_lines, envelope: bool = True):
    """Register the decorated body as ``group``'s command ``name``, behind
    the CLI's exception boundary.

    The body validates its input and computes, then returns ``(report,
    ok)``.  The boundary adds ``--format``, puts the report in its envelope
    (``command`` first and ``status``, read off ``ok``, last; ``envelope=
    False`` keeps the body's document as it is), prints it (``text``
    renders the text format) and exits 0 if ``ok``, else 1; stderr gets
    the elapsed time.  Bad input and refused capacity exit 2, and a failed
    theorem exits 3, each with one stderr line and no report.
    """
    def register(body):
        @functools.wraps(body)
        def run(fmt, **params):
            started = time.monotonic()
            try:
                report, ok = body(**params)
            except (InputError, CapacityError) as exc:
                code, line = EXIT_INPUT, f"input error: {exc}"
            except InternalCheckError as exc:
                code, line = EXIT_INTERNAL, f"internal error: {exc}"
            else:
                if envelope:
                    report = {"command": f"{group.name} {name}", **report,
                              "status": "pass" if ok else "fail"}
                _emit(report, fmt, text)
                code = EXIT_PASS if ok else EXIT_FAIL
                line = f"elapsed_seconds: {time.monotonic() - started:.2f}"
            click.echo(" ".join(line.splitlines()), err=True)
            sys.exit(code)

        return group.command(name)(format_option(run))
    return register


@contextlib.contextmanager
def _usage_errors_on_one_line():
    try:
        yield
    except click.exceptions.NoArgsIsHelpError:
        raise
    except click.UsageError as exc:
        # one line: click puts each listed choice on its own tab-indented line
        click.echo(f"input error: {' '.join(exc.format_message().split())}", err=True)
        sys.exit(EXIT_INPUT)


class _Main(click.Group):
    """The top-level group: any usage error in the command line exits 2
    with one ``input error`` line; a bare group still prints its help."""

    def make_context(self, *args, **kwargs):
        with _usage_errors_on_one_line():
            return super().make_context(*args, **kwargs)

    def invoke(self, ctx):
        with _usage_errors_on_one_line():
            return super().invoke(ctx)


@click.group(cls=_Main)
def main():
    """Exhaustive finite-scale verification of measure-algebra liftings,
    filter limit operators, and partial-magma categories."""


@main.group()
def space():
    """Checks on finite measure spaces and set transforms."""


@_command(space, "check")
@click.argument("input_path")
@click.option("--max-atoms", type=click.IntRange(min=1), default=12, show_default=True)
def space_check(input_path, max_atoms):
    """Evaluate all nine transform properties plus the two bundles."""
    sp, transform = _read_space(input_path, max_atoms)
    if transform is None:
        raise InputError("'space check' needs a 'transform' table")
    properties = {p.value: check_property(transform, p) for p in TransformProperty}
    implications = implication_suite(transform)
    ok = (all(v.holds for v in properties.values())
          and all(r.status != "violated" for r in implications))
    report = {
        "weights": [str(w) for w in sp.weights],
        "properties": {k: v.to_dict() for k, v in properties.items()},
        "lower_density": is_lower_density(transform).to_dict(),
        "lifting": is_lifting(transform).to_dict(),
        "implications": [r.to_dict() for r in implications],
    }
    return report, ok


@_command(space, "liftings")
@click.argument("input_path")
@seed_option
@click.option("--max-atoms", type=click.IntRange(min=1), default=12, show_default=True)
@click.option("--oracle/--no-oracle", default=False,
              help="Also run the brute-force (or sampled) oracle.")
def space_liftings(input_path, seed, max_atoms, oracle):
    """Enumerate all liftings and verify each one."""
    sp, _ = _read_space(input_path, max_atoms)
    liftings = enumerate_liftings(sp)
    verified = [bool(is_lifting(t)) for t in liftings]
    ok = all(verified)
    report = {
        "weights": [str(w) for w in sp.weights],
        "count": len(liftings),
        "liftings": [{"retraction": list(lifting_retraction(t)),
                      "table": list(t.table)} for t in liftings],
    }
    if oracle:
        try:
            brute = brute_force_liftings(sp)
        except CapacityError:
            v = sampled_lifting_oracle(sp, liftings, samples=500, seed=seed)
            report["oracle"] = {"mode": "sampled", **v.to_dict()}
            ok = ok and bool(v)
        else:
            agree = [t.table for t in brute] == sorted(t.table for t in liftings)
            report["oracle"] = {"mode": "exhaustive", "count": len(brute),
                                "agrees": agree}
            ok = ok and agree
    return report, ok


@_command(space, "theorem1")
@click.argument("input_path")
@click.option("--max-atoms", type=click.IntRange(min=1), default=12, show_default=True)
def space_theorem1(input_path, max_atoms):
    """Run the full two-way lifting/limit-operator pipeline."""
    sp, _ = _read_space(input_path, max_atoms)
    rep = verify_theorem1(sp)
    return {"notes": {"ultrafilter_tiebreak": "lowest-index"}, **rep.to_dict()}, rep.all_pass


@main.group()
def pm():
    """Checks on partial magmas."""


@_command(pm, "classify")
@click.argument("input_path")
@click.option("--max-elems", type=click.IntRange(min=1), default=8, show_default=True)
def pm_classify(input_path, max_elems):
    """Classify a partial magma (units, associativity, fastening)."""
    magma = _read_pm(input_path, max_elems, "partial_magma")
    c = classify(magma)
    report = {"n": magma.n, "classification": c.to_dict()}
    ok = True
    if c.regular:
        v = single_unit_totality(c)
        report["single_unit_totality"] = v.to_dict()
        ok = bool(v)
    return report, ok


@_command(pm, "interchange")
@click.argument("input_path")
@click.option("--max-elems", type=click.IntRange(min=1), default=8, show_default=True)
def pm_interchange(input_path, max_elems):
    """Check the interchange law on all quadruples of pairs."""
    magma = _read_pm(input_path, max_elems, "partial_magma")
    rep = interchange_check(magma)
    return {"n": magma.n, **rep.to_dict()}, rep.holds


@main.group()
def cat():
    """Checks on finite categories."""


@_command(cat, "twin")
@click.argument("input_path")
@click.option("--max-elems", type=click.IntRange(min=1), default=8, show_default=True)
def cat_twin(input_path, max_elems):
    """Build the twin category and confirm it recaptures the hom-sets."""
    magma = _read_pm(input_path, max_elems, "category")
    try:
        base = FiniteCategory(magma)
    except ValueError as exc:
        return {"regular": False, "detail": str(exc)}, False
    tw = twin_category(base)
    ok = bool(hom_recapture(base, tw))
    report = {
        "regular": True,
        "objects": len(base.objects),
        "arrows": magma.n,
        "twin_objects": len(tw.category.objects),
        "twin_arrows": tw.category.pm.n,
        "hom_recapture": ok,
    }
    return report, ok


@_command(cat, "natequiv")
@click.option("--source", required=True, type=click.Choice(sorted(NAMED_SHAPES)),
              help="Named source category.")
@click.option("--target", required=True, type=click.Choice(sorted(NAMED_SHAPES)),
              help="Named target category.")
def cat_natequiv(source, target):
    """Count both encodings of transformations and verify the bijection."""
    rep = natequiv_report(source, target)
    ok = rep.pop("pass")
    return {"source": source, "target": target, **rep}, ok


@main.group()
def yoneda():
    """Checks on natural limit assignments over discrete probes."""


@_command(yoneda, "roundtrip")
@click.option("--z-size", required=True, type=click.IntRange(1, 4))
@click.option("--x-size", required=True, type=click.IntRange(1, 3))
def yoneda_roundtrip_cmd(z_size, x_size):
    """Count natural candidates and verify both round trips."""
    from .yoneda_finite import yoneda_roundtrip

    rep = yoneda_roundtrip(z_size, x_size)
    return rep.to_dict(), rep.all_pass


@_command(main, "report", text=_report_lines, envelope=False)
@seed_option
@click.option("--quick", is_flag=True, help="Skip the heavy exhaustive sweeps.")
def report_cmd(seed, quick):
    """Run the whole verification battery over the built-in fixtures."""
    result = run_suite(seed=seed, quick=quick)
    return result, result["all_pass"]


if __name__ == "__main__":
    main()
