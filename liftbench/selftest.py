"""Show that every output check in checks.py can fail.

Each check gets a result that agrees with its facts, which must pass, and
tampered copies (a count off by one, a wrong exit code, a changed byte),
each of which must be reported.  The last case shows that an operation
that raises, or a report that lacks a field, fails that operation rather
than the benchmark; it imports workloads.py, and so liftlab from src/.

Usage: python3 liftbench/selftest.py   (exit 0 when every check behaves)
"""

from __future__ import annotations

import copy
import hashlib
import sys
from pathlib import Path

import checks
from inputs import SHAPES, category_table, lifting_table, retractions


def tampered(result, path, value):
    """A deep copy of ``result`` with the item at ``path`` replaced; a
    callable ``value`` receives the old item."""
    out = copy.deepcopy(result)
    target = out
    for key in path[:-1]:
        target = target[key]
    old = target[path[-1]]
    target[path[-1]] = value(old) if callable(value) else value
    return out


def bump(v):
    return v + 1


def report_case():
    names = ["filter_principality", "s1_lifting_oracle", "s2_sampled_lifting_oracle",
             "theorem1_s1", "theorem1_s2", "theorem1_no_null",
             "random_function_recovery", "pm_fixtures", "interchange_n2",
             "interchange_n3", "single_unit_totality", "cat_rpm_roundtrips",
             "twin_categories", "natequiv_2_3", "yoneda_roundtrips", "adjunction"]
    details = {name: {} for name in names}
    for n in (2, 3):
        details[f"interchange_n{n}"] = {"sweep": {
            "tables": (n + 1) ** (n * n),
            "both_defined": checks.interchange_both_defined(n)}}
    details["s1_lifting_oracle"] = {"brute_force": 2, "enumerated": 2}
    details["yoneda_roundtrips"] = {"configs": [
        {"z_size": z, "x_size": x, "candidate_count": z ** x}
        for z in (1, 2, 3) for x in (1, 2)]}
    functors, pairs = checks.natequiv_counts("2", "3")
    details["natequiv_2_3"] = {"functors": functors, "arrow_indexed": pairs,
                               "object_indexed": pairs}
    report = {"all_pass": True, "checks": [
        {"name": name, "pass": True, "details": details[name]} for name in names]}
    i2, i3, s1, yo, nat = (names.index(k) for k in (
        "interchange_n2", "interchange_n3", "s1_lifting_oracle",
        "yoneda_roundtrips", "natequiv_2_3"))
    good = (0, report)
    bad = {
        "exit code 1": (1, report),
        "n3 both_defined off by one": (0, tampered(
            report, ["checks", i3, "details", "sweep", "both_defined"], bump)),
        "n2 both_defined off by one": (0, tampered(
            report, ["checks", i2, "details", "sweep", "both_defined"], bump)),
        "brute-force count off by one": (0, tampered(
            report, ["checks", s1, "details", "brute_force"], bump)),
        "yoneda candidates off by one": (0, tampered(
            report, ["checks", yo, "details", "configs", 3, "candidate_count"], bump)),
        "encodings disagree": (0, tampered(
            report, ["checks", nat, "details", "object_indexed"], bump)),
        "a check fails": (0, tampered(report, ["checks", 5, "pass"], False)),
        "a check missing": (0, tampered(report, ["checks"], lambda c: c[:-1])),
    }
    return checks.check_report, good, bad


def same_bytes_case():
    def digest(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    first = b'{"all_pass": true}\n'
    return (checks.check_same_bytes, (digest(first), digest(first)),
            {"one byte changed": (digest(first), digest(first.replace(b"t", b"T", 1)))})


def theorem1_case():
    weights = ["2", "0", "5", "0", "1"]
    verdict = {"holds": True}
    entries = [{"retraction": list(g), "differentiates": verdict,
                "lower_density": verdict, "lifting": verdict,
                "boolean_homomorphism": verdict, "right_inverse": verdict,
                "round_trip_identity": True} for g in retractions(weights)]
    report = {"lifting_count": len(entries), "entries": entries, "all_pass": True}
    check = (lambda rep: checks.check_theorem1(weights, rep))
    return check, (report,), {
        "lifting count off by one": (tampered(report, ["lifting_count"], bump),),
        "a lifting missing": (tampered(report, ["entries"], lambda e: e[1:]),),
        "a retraction changed": (tampered(report, ["entries", 0, "retraction", 1], 4),),
        "round trip broken": (tampered(report, ["entries", 2, "round_trip_identity"],
                                       False),),
        "a direction fails": (tampered(report, ["entries", 1, "differentiates"],
                                       {"holds": False}),),
    }


def space_check_case():
    props = dict.fromkeys(
        ["preserves_measurable_sets", "preserves_ambient_space",
         "preserves_intersections", "ae_identity", "preserves_empty_set",
         "class_determined", "commutes_with_complement", "preserves_unions",
         "null_class_determined"], True)
    lifting = {"properties": {k: {"holds": v} for k, v in props.items()},
               "lifting": {"holds": True}, "lower_density": {"holds": True}}
    density = tampered(tampered(lifting, ["properties", "preserves_unions", "holds"],
                                False), ["lifting", "holds"], False)
    ae_table = tampered(density, ["properties", "preserves_empty_set", "holds"], False)

    def check(case, code, rep):
        return checks.check_space_check(case, code, rep)

    return check, ("lifting", 0, lifting), {
        "lifting exits 1": ("lifting", 1, lifting),
        "lifting fails a property": ("lifting", 0, tampered(
            lifting, ["properties", "class_determined", "holds"], False)),
        "density exits 0": ("density", 0, density),
        "density reported as a lifting": ("density", 1, lifting),
        "a.e.-identity table exits 2": ("ae_identity", 2, ae_table),
        "a.e.-identity table keeps the empty set": ("ae_identity", 1, density),
    }


def liftings_case():
    weights = ["3", "0", "1", "7"]
    entries = [{"retraction": list(g), "table": lifting_table(g)}
               for g in retractions(weights)]
    report = {"count": len(entries), "liftings": entries}

    def check(code, rep):
        return checks.check_liftings(weights, code, rep)

    return check, (0, report), {
        "exit code 1": (1, report),
        "count off by one": (0, tampered(report, ["count"], bump)),
        "one table entry changed": (0, tampered(
            report, ["liftings", 1, "table", 5], lambda v: v ^ 1)),
    }


def classify_case():
    perm = [5, 3, 0, 1, 4, 2]
    report = {"classification": {"units": [0, 3, 5], "regular": True,
                                 "associative": True, "total": False,
                                 "monoid": False},
              "single_unit_totality": {"holds": True}}

    def check(code, rep):
        return checks.check_classify(perm, code, rep)

    return check, (0, report), {
        "wrong units": (0, tampered(report, ["classification", "units"], [0, 1, 2])),
        "not regular": (0, tampered(report, ["classification", "regular"], False)),
        "exit code 2": (2, report),
    }


def interchange_case():
    table = category_table(SHAPES["3"])
    defined = sum(v is not None for row in table for v in row)
    report = {"quadruples": 6 ** 8, "both_defined": defined ** 3, "holds": True}

    def check(code, rep):
        return checks.check_interchange(table, code, rep)

    return check, (0, report), {
        "both_defined off by one": (0, tampered(report, ["both_defined"], bump)),
        "quadruples off by one": (0, tampered(report, ["quadruples"], bump)),
        "exit code 1": (1, report),
    }


def twin_case():
    report = {"objects": 4, "arrows": 9, "twin_objects": 9,
              "twin_arrows": checks.twin_arrow_count(SHAPES["SQ"]),
              "hom_recapture": True}
    return checks.check_twin, (0, report), {
        "twin arrows off by one": (0, tampered(report, ["twin_arrows"], bump)),
        "hom-sets not recaptured": (0, tampered(report, ["hom_recapture"], False)),
        "exit code 1": (1, report),
    }


def natequiv_case():
    functors, pairs = checks.natequiv_counts("3", "SQ")
    report = {"functors": functors, "arrow_indexed": pairs, "object_indexed": pairs,
              "mismatched_pairs": []}

    def check(code, rep):
        return checks.check_natequiv("3", "SQ", code, rep)

    return check, (0, report), {
        "encodings disagree": (0, tampered(report, ["arrow_indexed"], bump)),
        "functor count off by one": (0, tampered(report, ["functors"], bump)),
        "a mismatched pair": (0, tampered(report, ["mismatched_pairs"], [[0, 1]])),
    }


def yoneda_case():
    report = {"candidate_count": 9, "bijection_ok": True,
              "roundtrip_candidates_ok": True, "roundtrip_kernels_ok": True}

    def check(code, rep):
        return checks.check_yoneda(3, 2, code, rep)

    return check, (0, report), {
        "candidates off by one": (0, tampered(report, ["candidate_count"], bump)),
        "round trip broken": (0, tampered(report, ["roundtrip_kernels_ok"], False)),
        "exit code 1": (1, report),
    }


def probe_case():
    return checks.check_probe, (2, "input error: bad weights\n", False), {
        "exit code 1": (1, "input error: bad weights\n", False),
        "traceback": (2, "Traceback (most recent call last):\n  boom\n", False),
        "exit 0 where not allowed": (0, "", False),
        "timed out": (None, "", True),
    }


def guarded_case():
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from workloads import Op, run_ops

    check, (report,), _ = theorem1_case()

    def run_one(outcome) -> list[str]:
        def run():
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

        _, [record] = run_ops([Op("selftest", None, run, check, lambda rep: "")])
        return record["problems"]

    def drop_lifting(entry):
        return {k: v for k, v in entry.items() if k != "lifting"}

    return run_one, (report,), {
        "a report lacks a field": (tampered(report, ["entries", 0], drop_lifting),),
        "the operation raises": (RuntimeError("boom"),),
    }


CASES = (report_case, same_bytes_case, theorem1_case, space_check_case,
         liftings_case, classify_case, interchange_case, twin_case,
         natequiv_case, yoneda_case, probe_case, guarded_case)


def main() -> int:
    wrong = 0
    for case in CASES:
        check, good, bad = case()
        problems = check(*good)
        if problems:
            wrong += 1
            print(f"{case.__name__}: the untampered result fails: {problems}")
        for label, args in bad.items():
            if not check(*args):
                wrong += 1
                print(f"{case.__name__}: '{label}' is not caught")
    total = len(CASES) + sum(len(case()[2]) for case in CASES)
    print(f"{total - wrong} of {total} self-test cases behave")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
