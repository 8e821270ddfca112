"""Batch front end: JSON documents in, deterministic reports out.

Reports go to stdout; diagnostics and timing go to stderr so that two runs
with the same input and seed are byte-identical on stdout.  Exit codes:
0 all checks pass, 1 a check failed (witness in the report), 2 bad input
(including a search refused as too large), 3 internal error (a theorem
failed on concrete data, so the code is wrong).  Every command runs behind
one exception boundary, ``_command``; exits 2 and 3 write one stderr line.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

import click

from .category_kernel import (cat_from_rpm, hom_set, named_categories,
                              twin_category, twin_hom_cases)
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


def _read_document(path: str) -> dict:
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
    return doc


def _space_from_doc(doc: dict, max_atoms: int):
    if doc["kind"] != "measure_space":
        raise InputError(f"expected kind 'measure_space', got {doc['kind']!r}")
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


def _pm_from_doc(doc: dict, max_elems: int, kind: str):
    if doc["kind"] != kind:
        raise InputError(f"expected kind {kind!r}, got {doc['kind']!r}")
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
                lines.append(f"{pad}{k}: {json.dumps(v)}")
    elif isinstance(obj, list):
        for v in obj:
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_text_lines(v, depth + 1))
            else:
                lines.append(f"{pad}- {json.dumps(v)}")
    else:
        lines.append(f"{pad}{json.dumps(obj)}")
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


def _command(group, name: str, text=_text_lines):
    """Register the decorated body as ``group``'s command ``name``, behind
    the CLI's only exception boundary.

    The body validates its input and computes, then returns ``(report,
    ok)``.  The boundary adds ``--format``, prints the report (``text``
    renders the text format) and exits 0 if ``ok``, else 1; stderr gets the
    elapsed time.  Bad input and refused capacity exit 2, and a failed
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
                _emit(report, fmt, text)
                code = EXIT_PASS if ok else EXIT_FAIL
                line = f"elapsed_seconds: {time.monotonic() - started:.2f}"
            click.echo(" ".join(line.splitlines()), err=True)
            sys.exit(code)

        return group.command(name)(format_option(run))
    return register


@click.group()
def main():
    """Exhaustive finite-scale verification of measure-algebra liftings,
    filter limit operators, and partial-magma categories."""


@main.group()
def space():
    """Checks on finite measure spaces and set transforms."""


@_command(space, "check")
@click.argument("input_path")
@click.option("--max-atoms", type=int, default=12, show_default=True)
def space_check(input_path, max_atoms):
    """Evaluate all nine transform properties plus the two bundles."""
    sp, transform = _space_from_doc(_read_document(input_path), max_atoms)
    if transform is None:
        raise InputError("'space check' needs a 'transform' table")
    properties = {p.value: check_property(transform, p) for p in TransformProperty}
    implications = implication_suite(transform)
    ok = (all(v.holds for v in properties.values())
          and all(r.status != "violated" for r in implications))
    report = {
        "command": "space check",
        "weights": [str(w) for w in sp.weights],
        "properties": {k: v.to_dict() for k, v in properties.items()},
        "lower_density": is_lower_density(transform).to_dict(),
        "lifting": is_lifting(transform).to_dict(),
        "implications": [r.to_dict() for r in implications],
        "status": "pass" if ok else "fail",
    }
    return report, ok


@_command(space, "liftings")
@click.argument("input_path")
@seed_option
@click.option("--max-atoms", type=int, default=12, show_default=True)
@click.option("--oracle/--no-oracle", default=False,
              help="Also run the brute-force (or sampled) oracle.")
def space_liftings(input_path, seed, max_atoms, oracle):
    """Enumerate all liftings and verify each one."""
    sp, _ = _space_from_doc(_read_document(input_path), max_atoms)
    liftings = enumerate_liftings(sp)
    verified = [bool(is_lifting(t)) for t in liftings]
    ok = all(verified)
    report = {
        "command": "space liftings",
        "weights": [str(w) for w in sp.weights],
        "count": len(liftings),
        "liftings": [{"retraction": list(lifting_retraction(t)),
                      "table": list(t.table)} for t in liftings],
    }
    if oracle:
        try:
            brute = brute_force_liftings(sp)
        except CapacityError:
            v = sampled_lifting_oracle(sp, samples=500, seed=seed)
            report["oracle"] = {"mode": "sampled", **v.to_dict()}
            ok = ok and bool(v)
        else:
            agree = [t.table for t in brute] == sorted(t.table for t in liftings)
            report["oracle"] = {"mode": "exhaustive", "count": len(brute),
                                "agrees": agree}
            ok = ok and agree
    report["status"] = "pass" if ok else "fail"
    return report, ok


@_command(space, "theorem1")
@click.argument("input_path")
@click.option("--max-atoms", type=int, default=12, show_default=True)
def space_theorem1(input_path, max_atoms):
    """Run the full two-way lifting/limit-operator pipeline."""
    sp, _ = _space_from_doc(_read_document(input_path), max_atoms)
    rep = verify_theorem1(sp)
    ok = rep.all_pass
    report = {"command": "space theorem1",
              "notes": {"ultrafilter_tiebreak": "lowest-index"},
              **rep.to_dict(),
              "status": "pass" if ok else "fail"}
    return report, ok


@main.group()
def pm():
    """Checks on partial magmas."""


@_command(pm, "classify")
@click.argument("input_path")
@click.option("--max-elems", type=int, default=8, show_default=True)
def pm_classify(input_path, max_elems):
    """Classify a partial magma (units, associativity, fastening)."""
    magma = _pm_from_doc(_read_document(input_path), max_elems, "partial_magma")
    c = classify(magma)
    report = {"command": "pm classify", "n": magma.n,
              "classification": c.to_dict()}
    ok = True
    if c.regular:
        v = single_unit_totality(magma)
        report["single_unit_totality"] = v.to_dict()
        ok = bool(v)
    report["status"] = "pass" if ok else "fail"
    return report, ok


@_command(pm, "interchange")
@click.argument("input_path")
@click.option("--max-elems", type=int, default=8, show_default=True)
def pm_interchange(input_path, max_elems):
    """Check the interchange law on all quadruples of pairs."""
    magma = _pm_from_doc(_read_document(input_path), max_elems, "partial_magma")
    rep = interchange_check(magma, force=True)
    report = {"command": "pm interchange", "n": magma.n, **rep.to_dict(),
              "status": "pass" if rep.holds else "fail"}
    return report, rep.holds


@main.group()
def cat():
    """Checks on finite categories."""


@_command(cat, "twin")
@click.argument("input_path")
@click.option("--max-elems", type=int, default=8, show_default=True)
def cat_twin(input_path, max_elems):
    """Build the twin category and confirm it recaptures the hom-sets."""
    magma = _pm_from_doc(_read_document(input_path), max_elems, "category")
    try:
        base = cat_from_rpm(magma)
    except ValueError as exc:
        return {"command": "cat twin", "regular": False, "detail": str(exc),
                "status": "fail"}, False
    tw = twin_category(base)
    recapture_ok = True
    for u in base.objects:
        for v in base.objects:
            plain = hom_set(base, u, v)
            doubled = twin_hom_cases(base, u, v)
            if (len(plain) != len(doubled)
                    or {(x, x) for x in plain} != {t.pair for t in doubled}):
                recapture_ok = False
    ok = recapture_ok
    report = {
        "command": "cat twin",
        "regular": True,
        "objects": len(base.objects),
        "arrows": magma.n,
        "twin_objects": len(tw.category.objects),
        "twin_arrows": tw.category.pm.n,
        "hom_recapture": recapture_ok,
        "status": "pass" if ok else "fail",
    }
    return report, ok


@_command(cat, "natequiv")
@click.argument("input_path", required=False)
@click.option("--source", "source_name", default=None,
              help="Named source category (1, 2, II, 3, SQ).")
@click.option("--target", "target_name", default=None,
              help="Named target category.")
def cat_natequiv(input_path, source_name, target_name):
    """Count both encodings of transformations and verify the bijection."""
    if input_path:
        doc = _read_document(input_path)
        if doc["kind"] != "scenario" or doc.get("name") != "natequiv":
            raise InputError("expected a scenario document named 'natequiv'")
        source_name = doc.get("source", source_name)
        target_name = doc.get("target", target_name)
    if not source_name or not target_name:
        raise InputError("need --source and --target (or a scenario document)")
    names = named_categories()
    if not all(type(c) is str and c in names for c in (source_name, target_name)):
        raise InputError(f"unknown category; pick from {sorted(names)}")
    rep = natequiv_report(source_name, target_name)
    ok = rep.pop("pass")
    report = {"command": "cat natequiv", "source": source_name,
              "target": target_name, **rep, "status": "pass" if ok else "fail"}
    return report, ok


@main.group()
def yoneda():
    """Checks on natural limit assignments over discrete probes."""


@_command(yoneda, "roundtrip")
@click.argument("input_path", required=False)
@click.option("--z-size", type=int, default=None)
@click.option("--x-size", type=int, default=None)
def yoneda_roundtrip_cmd(input_path, z_size, x_size):
    """Count natural candidates and verify both round trips."""
    if input_path:
        doc = _read_document(input_path)
        if doc["kind"] != "scenario" or doc.get("name") != "yoneda":
            raise InputError("expected a scenario document named 'yoneda'")
        z_size = doc.get("z_size", z_size)
        x_size = doc.get("x_size", x_size)
    if z_size is None or x_size is None:
        raise InputError("need --z-size and --x-size (or a scenario document)")
    if type(z_size) is not int or type(x_size) is not int:
        raise InputError("sizes must be integers")
    if not (1 <= z_size <= 4 and 1 <= x_size <= 3):
        raise InputError("sizes out of the supported range (z <= 4, x <= 3)")
    from .yoneda_finite import yoneda_roundtrip

    rep = yoneda_roundtrip(z_size, x_size)
    report = {"command": "yoneda roundtrip", **rep.to_dict(),
              "status": "pass" if rep.all_pass else "fail"}
    return report, rep.all_pass


@_command(main, "report", text=_report_lines)
@seed_option
@click.option("--quick", is_flag=True, help="Skip the heavy exhaustive sweeps.")
@click.option("--parallel", type=int, default=1, show_default=True,
              help="Worker processes for independent checks.")
def report_cmd(seed, quick, parallel):
    """Run the whole verification battery over the built-in fixtures."""
    result = run_suite(seed=seed, quick=quick, parallel=parallel)
    return result, result["all_pass"]


if __name__ == "__main__":
    main()
