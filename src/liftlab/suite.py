"""The standard verification battery behind ``liftlab report``.

Every check is a deterministic function of the seed and returns a
JSON-able dict with a ``pass`` flag.  Wall-clock never enters the report
body, so two runs with one seed are byte-identical.
"""

from __future__ import annotations

import random
from collections import Counter
from math import comb

from . import __version__, partial_magma
from .category_kernel import (NAMED_SHAPES, FiniteCategory, enumerate_functors,
                              enumerate_nat_homs, enumerate_nat_trans,
                              hom_from_nat, hom_recapture, named_category,
                              named_magmas, nat_from_hom, twin_category)
from .filter_calculus import base_generation_oracle, principality_oracle
from .lebesgue_diff import (differentiates, kernel_from_lifting,
                            random_total_fn, recovers, verify_theorem1)
from .measure_algebra import (brute_force_liftings, enumerate_liftings,
                              sampled_lifting_oracle)
from .measure_space import build_space
from .partial_magma import (interchange_sweep, matrix_magma, product_pm,
                            regular_builds, regular_tables,
                            single_unit_totality, square_pm, twin_pm)
from .verdict import jsonable


def _outcome(failed: list, **details) -> dict:
    """``pass`` and the details; on failure, the first failure as ``witness``
    (so a passing report keeps its bytes)."""
    out = {"pass": not failed, **details}
    if failed:
        out["witness"] = failed[0]
    return out


def _check_s1_lifting_oracle(seed: int) -> dict:
    space = build_space([1, 1, 0])
    brute = [t.table for t in brute_force_liftings(space)]
    enumerated = sorted(t.table for t in enumerate_liftings(space))
    out = {"pass": brute == enumerated, "brute_force": len(brute),
           "enumerated": len(enumerated)}
    if brute != enumerated:
        # compared as multisets, so a table listed twice is named too
        b, e = Counter(brute), Counter(enumerated)
        out["witness"] = jsonable(min((b - e) | (e - b)))
    return out


def _check_s2_sampled_oracle(seed: int) -> dict:
    space = build_space([1, 1, 0, 0])
    v = sampled_lifting_oracle(space, enumerate_liftings(space), samples=500, seed=seed)
    return _outcome([] if v else [v.witness], detail=v.to_dict())


def _theorem1(weights) -> dict:
    report = verify_theorem1(build_space(weights))
    failed = [list(e.retraction) for e in report.entries if not e.passed]
    return _outcome(failed, report=report.to_dict())


def _check_theorem1_s1(seed: int) -> dict:
    return _theorem1([1, 1, 0])


def _check_theorem1_s2(seed: int) -> dict:
    return _theorem1([1, 1, 0, 0])


def _check_theorem1_no_null(seed: int) -> dict:
    return _theorem1([1, 2, 3])


def _check_random_recovery(seed: int) -> dict:
    rng = random.Random(seed)
    tried = 0
    for weights in ([1, 1, 0], [1, 1, 0, 0], [2, 3, 0]):
        space = build_space(weights)
        for lifting in enumerate_liftings(space):
            kernel = kernel_from_lifting(lifting)
            d = differentiates(kernel)
            if not d:
                return {"pass": False, "witness": jsonable(d.witness), "weights": weights}
            for _ in range(25):
                f = random_total_fn(space, rng)
                tried += 1
                v = recovers(kernel, f)
                if not v:
                    return {"pass": False, "witness": jsonable(v.witness),
                            "weights": weights}
    return {"pass": True, "functions": tried}


def _check_filter_principality(seed: int) -> dict:
    a = principality_oracle(4)
    b = base_generation_oracle(4)
    return _outcome([v.witness for v in (a, b) if not v],
                    principality=a.to_dict(), base_generation=b.to_dict())


def _check_pm_fixtures(seed: int) -> dict:
    magmas = named_magmas()
    sub = partial_magma.classify(magmas["nat_sub"])
    details = {"nat_sub": sub.to_dict()}
    failed = [] if (sub.units == (0,) and not sub.associative
                    and not sub.fastened and not sub.regular) else ["nat_sub"]
    for name in ("M1", "M2", "M3", "M6", "MSQ"):
        c = partial_magma.classify(magmas[name])
        details[name] = {"regular": c.regular, "units": list(c.units),
                         "total": c.total}
        if not (c.regular and (name != "M1" or c.monoid)
                and (name != "M2" or not c.total)):
            failed.append(name)
    others = {f"twin_pm({n})": twin_pm(n) for n in (1, 2, 3)}
    others["square_pm(M3)"] = square_pm(magmas["M3"])
    failed += [name for name, pm in others.items()
               if not partial_magma.classify(pm).regular]
    return _outcome(failed, classifications=details)


def _closed_form_both_defined(n: int) -> int:
    """Doubly defined quadruples over every operation table on n elements,
    in closed form: a quadruple is doubly defined exactly when three cells
    of its table are (x1.z1, x2.z2 and x'2.z'2, with x'1 = x2 and
    z'1 = z2), so a table with D defined cells has D^3 of them, and
    C(n^2, D) n^D tables have D defined cells."""
    cells = n * n
    return sum(comb(cells, d) * n ** d * d ** 3 for d in range(cells + 1))


def _interchange(n: int) -> dict:
    rep = interchange_sweep(n)
    expected = _closed_form_both_defined(n)
    ok = rep.violations == 0 and rep.both_defined == expected
    return _outcome([] if ok else [{"both_defined": rep.both_defined,
                                    "expected": expected,
                                    "violations": rep.violations}],
                    sweep=rep.to_dict())


def _check_interchange_n2(seed: int) -> dict:
    return _interchange(2)


def _check_interchange_n3(seed: int) -> dict:
    return _interchange(3)


#: Regular magmas on 1, 2 and 3 elements, as a brute force over every
#: operation table counts them; a generator that drops or adds one fails
#: both checks that sweep ``regular_builds``, with its counts as witness.
REGULAR_COUNTS = {"1": 1, "2": 5, "3": 52}


def _counts_outcome(counts: dict) -> dict:
    return _outcome([] if counts == REGULAR_COUNTS else [counts], regular_counts=counts)


def _check_single_unit_totality(seed: int) -> dict:
    counts = {}
    for n in (1, 2, 3):
        regs = regular_tables(n)
        counts[str(n)] = len(regs)
        for pm in regs:
            if not single_unit_totality(partial_magma.classify(pm)):
                return {"pass": False, "witness": pm.table}
    return _counts_outcome(counts)


def _check_cat_roundtrips(seed: int) -> dict:
    """Categories read from arrow magmas agree with a second, independent
    presentation: a named category with its shapes and its matrix magma, a
    regular magma with the units and pins it was built from."""
    for name, shapes in NAMED_SHAPES.items():
        # the pin rule: an (r, c) arrow after a (c, c2) arrow is the (r, c2) arrow
        cat = FiniteCategory(product_pm(
            shapes, lambda a, b: (a[0], b[1]) if a[1] == b[0] else None))
        unit = {c: i for i, (r, c) in enumerate(shapes) if r == c}
        matrix, _ = matrix_magma(shapes)
        if (cat.objects != tuple(unit.values())
                or cat.dom != tuple(unit[c] for _, c in shapes)
                or cat.cod != tuple(unit[r] for r, _ in shapes)
                or any(cat.compose(x, y) != matrix.op(x, y)
                       for x in cat.arrows for y in cat.arrows)):
            return {"pass": False, "witness": name}
    counts = {}
    for n in (1, 2, 3):
        builds = regular_builds(n)
        counts[str(n)] = len(builds)
        for b in builds:
            cat = FiniteCategory(b.pm)
            if (cat.objects != b.units
                    or cat.dom != tuple(dom for dom, _ in b.pins)
                    or cat.cod != tuple(cod for _, cod in b.pins)):
                return {"pass": False, "witness": b.pm.table}
    return _counts_outcome(counts)


def natequiv_report(source_name: str, target_name: str) -> dict:
    """Count both encodings of transformations for every functor pair and
    confirm the converters are mutually inverse."""
    c, d = named_category(source_name), named_category(target_name)
    functors = enumerate_functors(c, d)
    hom_total = trans_total = 0
    pair_mismatches = []
    for t in functors:
        for s in functors:
            homs = enumerate_nat_homs(t, s)
            trans = enumerate_nat_trans(t, s)
            hom_total += len(homs)
            trans_total += len(trans)
            converted = [nat_from_hom(a) for a in homs]
            components = {nat.components for nat in converted}
            if (len(homs) != len(trans) or components != {tau.components for tau in trans}
                    or any(hom_from_nat(nat) != a for nat, a in zip(converted, homs))):
                pair_mismatches.append((t.arrow_map, s.arrow_map))
    return {
        "pass": hom_total == trans_total and not pair_mismatches,
        "functors": len(functors),
        "arrow_indexed": hom_total,
        "object_indexed": trans_total,
        "mismatched_pairs": jsonable(pair_mismatches),
    }


def _check_natequiv_2_3(seed: int) -> dict:
    details = natequiv_report("2", "3")
    del details["pass"]  # it passes exactly when no pair mismatches
    return _outcome(details["mismatched_pairs"], **details)


def _check_twin_categories(seed: int) -> dict:
    details = {}
    failed = []
    for name in ("1", "2", "3"):
        base = named_category(name)
        tw = twin_category(base)
        details[name] = {"objects": len(tw.category.objects),
                         "arrows": tw.category.pm.n}
        v = hom_recapture(base, tw)
        if not v:
            failed.append([name, v.witness])
    return _outcome(failed, twins=details)


def _check_yoneda(seed: int) -> dict:
    from .yoneda_finite import yoneda_roundtrip

    reports = []
    failed = []
    for z in (1, 2, 3):
        for x in (1, 2):
            rep = yoneda_roundtrip(z, x)
            reports.append(rep.to_dict())
            if not rep.all_pass:
                failed.append([z, x])
    return _outcome(failed, configs=reports)


def _check_adjunction(seed: int) -> dict:
    from .yoneda_finite import adjunction_bijection

    reports = [adjunction_bijection(2, 3).to_dict(),
               adjunction_bijection(1, 4).to_dict()]
    failed = [[r["x_size"], r["d_size"]] for r in reports if not r["all_pass"]]
    return _outcome(failed, configs=reports)


#: name -> (function, heavy). Heavy checks are skipped by --quick.
CHECKS: dict = {
    "filter_principality": (_check_filter_principality, False),
    "s1_lifting_oracle": (_check_s1_lifting_oracle, True),
    "s2_sampled_lifting_oracle": (_check_s2_sampled_oracle, False),
    "theorem1_s1": (_check_theorem1_s1, False),
    "theorem1_s2": (_check_theorem1_s2, False),
    "theorem1_no_null": (_check_theorem1_no_null, False),
    "random_function_recovery": (_check_random_recovery, False),
    "pm_fixtures": (_check_pm_fixtures, False),
    "interchange_n2": (_check_interchange_n2, False),
    "interchange_n3": (_check_interchange_n3, True),
    "single_unit_totality": (_check_single_unit_totality, False),
    "cat_rpm_roundtrips": (_check_cat_roundtrips, False),
    "twin_categories": (_check_twin_categories, False),
    "natequiv_2_3": (_check_natequiv_2_3, False),
    "yoneda_roundtrips": (_check_yoneda, False),
    "adjunction": (_check_adjunction, False),
}


def run_check(name: str, seed: int = 0) -> dict:
    fn, _ = CHECKS[name]
    return fn(seed)


def run_suite(seed: int = 0, quick: bool = False) -> dict:
    names = [n for n, (_, heavy) in CHECKS.items() if not (quick and heavy)]
    results = [(n, run_check(n, seed)) for n in names]
    checks = [{"name": n, "pass": r.pop("pass"), "details": jsonable(r)}
              for n, r in results]
    return {
        "suite": "liftlab-verification",
        "version": __version__,
        "seed": seed,
        "quick": quick,
        "notes": {"ultrafilter_tiebreak": "lowest-index"},
        "checks": checks,
        "all_pass": all(c["pass"] for c in checks),
    }
