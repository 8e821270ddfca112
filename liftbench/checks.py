"""Output checks: each compares one liftlab result with a fact that the
benchmark derives itself, from the input's construction or a closed form.

A check returns a list of problems; an empty list means the output is
right.  Nothing here imports liftlab.  selftest.py feeds every check a
tampered result to show that it can fail.
"""

from __future__ import annotations

from itertools import product
from math import comb

from inputs import SHAPES, lifting_table, positive_and_null, retractions


def interchange_both_defined(n: int) -> int:
    """Doubly-defined interchange quadruples over all tables on n elements.

    A table with D defined cells contributes D^3 (fixing the two middle
    terms forces both sides' definedness to the same three cells), so the
    total is sum over D of C(n^2, D) * n^D * D^3.
    """
    cells = n * n
    return sum(comb(cells, d) * n ** d * d ** 3 for d in range(cells + 1))


def expected_liftings(weights) -> int:
    """Liftings are the retractions onto the positive atoms: pos^null."""
    pos, nulls = positive_and_null(weights)
    return len(pos) ** len(nulls)


def thin_category(shapes):
    """Objects, the order relation, and arrows as (source, target)."""
    objects = sorted({r for r, c in shapes if r == c})
    arrows = [(c, r) for r, c in shapes]
    return objects, set(arrows), arrows


def monotone_maps(source, target) -> list[tuple[int, ...]]:
    """Functors between thin categories are the monotone object maps."""
    s_obj, s_leq, _ = thin_category(SHAPES[source])
    t_obj, t_leq, _ = thin_category(SHAPES[target])
    pos = {o: i for i, o in enumerate(s_obj)}
    return [f for f in product(t_obj, repeat=len(s_obj))
            if all((f[pos[a]], f[pos[b]]) in t_leq for a, b in s_leq)]


def natequiv_counts(source: str, target: str) -> tuple[int, int]:
    """(functors, transformations): between thin categories there is one
    transformation t => s exactly when t <= s objectwise."""
    _, t_leq, _ = thin_category(SHAPES[target])
    functors = monotone_maps(source, target)
    pairs = sum(1 for t in functors for s in functors
                if all((a, b) in t_leq for a, b in zip(t, s)))
    return len(functors), pairs


def twin_arrow_count(shapes) -> int:
    """Commuting squares between arrows of a thin category: every square
    commutes, so a twin arrow x -> y exists iff both sides' endpoints are
    ordered."""
    _, leq, arrows = thin_category(shapes)
    return sum(1 for (sx, tx) in arrows for (sy, ty) in arrows
               if (sx, sy) in leq and (tx, ty) in leq)


def _expect(problems: list, label: str, got, want) -> None:
    if got != want:
        problems.append(f"{label}: got {got!r}, expected {want!r}")


def _exit(problems: list, exit_code: int, want: int) -> None:
    _expect(problems, "exit code", exit_code, want)


def check_report(exit_code: int, report: dict) -> list[str]:
    """``liftlab report --format json``: every check passes and the counts
    match the closed forms."""
    problems: list[str] = []
    _exit(problems, exit_code, 0)
    checks = {c["name"]: c for c in report.get("checks", [])}
    _expect(problems, "check count", len(checks), 16)
    for name, c in checks.items():
        _expect(problems, f"{name} pass", c["pass"], True)
    _expect(problems, "all_pass", report.get("all_pass"), True)
    for n in (2, 3):
        sweep = checks.get(f"interchange_n{n}", {}).get("details", {}).get("sweep", {})
        _expect(problems, f"interchange_n{n} both_defined",
                sweep.get("both_defined"), interchange_both_defined(n))
        _expect(problems, f"interchange_n{n} tables", sweep.get("tables"),
                (n + 1) ** (n * n))
    oracle = checks.get("s1_lifting_oracle", {}).get("details", {})
    s1_count = expected_liftings(["1", "1", "0"])
    _expect(problems, "s1 brute_force", oracle.get("brute_force"), s1_count)
    _expect(problems, "s1 enumerated", oracle.get("enumerated"), s1_count)
    configs = checks.get("yoneda_roundtrips", {}).get("details", {}).get("configs", [])
    _expect(problems, "yoneda configs", len(configs), 6)
    for c in configs:
        _expect(problems, f"yoneda {c['z_size']}x{c['x_size']} candidates",
                c["candidate_count"], c["z_size"] ** c["x_size"])
    nat = checks.get("natequiv_2_3", {}).get("details", {})
    functors, pairs = natequiv_counts("2", "3")
    _expect(problems, "natequiv_2_3 functors", nat.get("functors"), functors)
    _expect(problems, "natequiv_2_3 arrow_indexed", nat.get("arrow_indexed"), pairs)
    _expect(problems, "natequiv_2_3 object_indexed", nat.get("object_indexed"), pairs)
    return problems


def check_same_bytes(first: str, second: str) -> list[str]:
    """Two runs of one operation on one seed must print identical output;
    the arguments are digests of those bytes."""
    return [] if first == second else [f"output digest {second[:12]} != {first[:12]}"]


def check_theorem1(weights, report: dict) -> list[str]:
    """verify_theorem1: pos^null liftings, one per retraction, each passing
    both directions and round-tripping to itself."""
    problems: list[str] = []
    expected = retractions(weights)
    _expect(problems, "lifting_count", report.get("lifting_count"),
            expected_liftings(weights))
    got = sorted(tuple(e["retraction"]) for e in report.get("entries", []))
    _expect(problems, "retractions", got, sorted(expected))
    for e in report.get("entries", []):
        for key in ("differentiates", "lower_density", "lifting",
                    "boolean_homomorphism", "right_inverse"):
            _expect(problems, f"{e['retraction']} {key}", e[key]["holds"], True)
        _expect(problems, f"{e['retraction']} round trip",
                e["round_trip_identity"], True)
    _expect(problems, "all_pass", report.get("all_pass"), True)
    return problems


def check_space_check(case: str, exit_code: int, report: dict) -> list[str]:
    """``space check``: the lifting passes everything; the lower density is
    one but fails preserves_unions; the a.e.-identity table fails
    preserves_empty_set."""
    problems: list[str] = []
    props = {k: v["holds"] for k, v in report.get("properties", {}).items()}
    if case == "lifting":
        _exit(problems, exit_code, 0)
        _expect(problems, "failing properties",
                sorted(k for k, v in props.items() if not v), [])
        _expect(problems, "lifting", report.get("lifting", {}).get("holds"), True)
    elif case == "density":
        _exit(problems, exit_code, 1)
        _expect(problems, "lower_density",
                report.get("lower_density", {}).get("holds"), True)
        _expect(problems, "lifting", report.get("lifting", {}).get("holds"), False)
        _expect(problems, "preserves_unions", props.get("preserves_unions"), False)
    else:
        _exit(problems, exit_code, 1)
        _expect(problems, "ae_identity", props.get("ae_identity"), True)
        _expect(problems, "preserves_empty_set", props.get("preserves_empty_set"),
                False)
    return problems


def check_liftings(weights, exit_code: int, report: dict) -> list[str]:
    """``space liftings``: one lifting per retraction, with its table."""
    problems: list[str] = []
    _exit(problems, exit_code, 0)
    expected = retractions(weights)
    _expect(problems, "count", report.get("count"), expected_liftings(weights))
    got = report.get("liftings", [])
    _expect(problems, "retractions", sorted(tuple(e["retraction"]) for e in got),
            sorted(expected))
    for e in got:
        if e["table"] != lifting_table(e["retraction"]):
            problems.append(f"table of retraction {e['retraction']} is wrong")
    return problems


def check_classify(perm, exit_code: int, report: dict) -> list[str]:
    """``pm classify`` on a relabelled M6 (the category 3): regular, with
    the three identity shapes as units, not total."""
    problems: list[str] = []
    _exit(problems, exit_code, 0)
    c = report.get("classification", {})
    units = sorted(perm[i] for i, (r, col) in enumerate(SHAPES["3"]) if r == col)
    _expect(problems, "units", c.get("units"), units)
    for key, want in (("regular", True), ("associative", True),
                      ("total", False), ("monoid", False)):
        _expect(problems, key, c.get(key), want)
    _expect(problems, "single_unit_totality",
            report.get("single_unit_totality", {}).get("holds"), True)
    return problems


def check_interchange(table, exit_code: int, report: dict) -> list[str]:
    """``pm interchange``: n^8 quadruples, D^3 of them doubly defined."""
    problems: list[str] = []
    _exit(problems, exit_code, 0)
    n = len(table)
    defined = sum(v is not None for row in table for v in row)
    _expect(problems, "quadruples", report.get("quadruples"), n ** 8)
    _expect(problems, "both_defined", report.get("both_defined"), defined ** 3)
    _expect(problems, "holds", report.get("holds"), True)
    return problems


def check_twin(exit_code: int, report: dict) -> list[str]:
    """``cat twin`` on the square: 4 objects, 9 arrows, one twin object
    per arrow, and every commuting square as a twin arrow."""
    problems: list[str] = []
    _exit(problems, exit_code, 0)
    shapes = SHAPES["SQ"]
    objects, _, _ = thin_category(shapes)
    for key, want in (("objects", len(objects)), ("arrows", len(shapes)),
                      ("twin_objects", len(shapes)),
                      ("twin_arrows", twin_arrow_count(shapes)),
                      ("hom_recapture", True)):
        _expect(problems, key, report.get(key), want)
    return problems


def check_natequiv(source: str, target: str, exit_code: int, report: dict) -> list[str]:
    """``cat natequiv``: both encodings count one transformation per
    objectwise-ordered pair of monotone maps."""
    problems: list[str] = []
    _exit(problems, exit_code, 0)
    functors, pairs = natequiv_counts(source, target)
    _expect(problems, "functors", report.get("functors"), functors)
    _expect(problems, "arrow_indexed", report.get("arrow_indexed"), pairs)
    _expect(problems, "object_indexed", report.get("object_indexed"), pairs)
    _expect(problems, "mismatched_pairs", report.get("mismatched_pairs"), [])
    return problems


def check_yoneda(z: int, x: int, exit_code: int, report: dict) -> list[str]:
    """``yoneda roundtrip``: z^x natural candidates, both round trips."""
    problems: list[str] = []
    _exit(problems, exit_code, 0)
    _expect(problems, "candidate_count", report.get("candidate_count"), z ** x)
    for key in ("bijection_ok", "roundtrip_candidates_ok", "roundtrip_kernels_ok"):
        _expect(problems, key, report.get(key), True)
    return problems


def check_probe(exit_code: int | None, stderr: str, exit_zero_ok: bool) -> list[str]:
    """Bad input must exit 2 with one stderr line; ``exit_code`` is None
    when the probe ran past its time bound."""
    if exit_code is None:
        return ["timed out"]
    if exit_zero_ok and exit_code == 0:
        return []
    problems: list[str] = []
    _exit(problems, exit_code, 2)
    lines = stderr.strip().splitlines()
    if len(lines) != 1:
        problems.append(f"{len(lines)} stderr lines, expected 1")
    return problems
