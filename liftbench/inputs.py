"""Seeded inputs for the three workloads, and the constructions behind them.

Nothing here imports liftlab: every input is built from first principles
(retractions, rectangular-identity shapes, thin categories), so the facts
that checks.py derives from the same constructions are independent of the
code under test.
"""

from __future__ import annotations

import random
from itertools import product

#: The theorem-1 ladder: (atoms, null atoms).  The lifting count is
#: pos^null, so these four shapes give 3 + 9 + 5 + 16 = 33 liftings.
LADDER = ((4, 1), (5, 2), (6, 1), (6, 2))

#: Arrow shapes of the named categories: an arrow of shape (r, c) goes
#: from object c to object r, and composes like a rectangular identity.
SHAPES = {
    "2": ((1, 1), (2, 2), (2, 1)),
    "3": ((1, 1), (2, 2), (3, 3), (2, 1), (3, 2), (3, 1)),
    "SQ": ((1, 1), (2, 2), (3, 3), (4, 4), (2, 1), (3, 2), (3, 1), (4, 1), (3, 4)),
}

#: Yoneda configurations run by cli_mix, as (|Z|, |X|).
YONEDA_CLI = ((4, 1), (3, 2))

#: Atoms and null atoms of the cli_mix measure spaces.
CLI_ATOMS, CLI_NULLS = 10, 2

#: Positive atoms each null atom needs in the cli_mix lower density.  It is
#: fixed, so every seed gives that density the same shape and the same work.
DENSITY_NEED = 3


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def draw_weights(rng: random.Random, atoms: int, nulls: int) -> list[str]:
    """Integer weights in 1..9 with ``nulls`` zeros at drawn positions."""
    null_at = set(rng.sample(range(atoms), nulls))
    return ["0" if i in null_at else str(rng.randint(1, 9)) for i in range(atoms)]


def positive_and_null(weights) -> tuple[list[int], list[int]]:
    pos = [i for i, w in enumerate(weights) if w != "0"]
    return pos, [i for i, w in enumerate(weights) if w == "0"]


def retractions(weights) -> list[tuple[int, ...]]:
    """Every map fixing the positive atoms and sending null atoms to
    positive ones; the liftings are exactly their preimage transforms."""
    pos, nulls = positive_and_null(weights)
    out = []
    for choice in product(pos, repeat=len(nulls)):
        g = list(range(len(weights)))
        for atom, target in zip(nulls, choice):
            g[atom] = target
        out.append(tuple(g))
    return out


def lifting_table(g) -> list[int]:
    """The transform Q -> {x : g(x) in Q}."""
    n = len(g)
    return [sum(1 << x for x in range(n) if (q >> g[x]) & 1) for q in range(1 << n)]


def density_table(weights, need: dict[int, int]) -> list[int]:
    """Q -> (Q on the positive atoms) plus each null atom x whose required
    positive set ``need[x]`` lies inside Q.

    This is always a lower density; it is a lifting exactly when every
    required set is a single atom.
    """
    pos, _ = positive_and_null(weights)
    pos_mask = sum(1 << i for i in pos)
    return [(q & pos_mask) | sum(1 << x for x, m in need.items() if q & m == m)
            for q in range(1 << len(weights))]


def ae_identity_table(rng: random.Random, weights) -> list[int]:
    """Q -> (Q on the positive atoms) plus random null atoms, with a null
    atom forced into the image of the empty set, so the table fails
    preserves_empty_set by construction."""
    pos, nulls = positive_and_null(weights)
    pos_mask = sum(1 << i for i in pos)
    table = [(q & pos_mask) | sum(1 << x for x in nulls if rng.random() < 0.5)
             for q in range(1 << len(weights))]
    table[0] |= 1 << nulls[0]
    return table


def category_table(shapes) -> list[list[int | None]]:
    """Composition table: x . y is defined when y's target is x's source."""
    index = {s: i for i, s in enumerate(shapes)}
    return [[index[(rx, cy)] if cx == ry else None for (ry, cy) in shapes]
            for (rx, cx) in shapes]


def relabel(table, perm) -> list[list[int | None]]:
    """The same magma with element i renamed perm[i]."""
    n = len(table)
    out: list[list[int | None]] = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            v = table[i][j]
            out[perm[i]][perm[j]] = None if v is None else perm[v]
    return out


def report_inputs(seed: int) -> dict:
    return {"seed": seed}


def ladder_inputs(seed: int) -> dict:
    rng = rng_for("theorem1_ladder", seed)
    return {"spaces": [draw_weights(rng, atoms, nulls) for atoms, nulls in LADDER]}


def cli_inputs(seed: int) -> dict:
    """Documents for the cli_mix commands, all drawn from one seed."""
    rng = rng_for("cli_mix", seed)
    weights = draw_weights(rng, CLI_ATOMS, CLI_NULLS)
    pos, nulls = positive_and_null(weights)
    lifting_need = {x: 1 << rng.choice(pos) for x in nulls}
    density_need = {x: sum(1 << p for p in rng.sample(pos, DENSITY_NEED))
                    for x in nulls}
    liftings_weights = draw_weights(rng, CLI_ATOMS, 1)
    m6_perm = rng.sample(range(len(SHAPES["3"])), len(SHAPES["3"]))
    sq_perm = rng.sample(range(len(SHAPES["SQ"])), len(SHAPES["SQ"]))

    def space_doc(w, table=None):
        doc = {"kind": "measure_space", "weights": w}
        if table is not None:
            doc["transform"] = table
        return doc

    return {
        "lifting": space_doc(weights, density_table(weights, lifting_need)),
        "density": space_doc(weights, density_table(weights, density_need)),
        "ae_identity": space_doc(weights, ae_identity_table(rng, weights)),
        "liftings_weights": liftings_weights,
        "liftings": space_doc(liftings_weights),
        "m6_perm": m6_perm,
        "m6": {"kind": "partial_magma", "n": len(m6_perm),
               "table": relabel(category_table(SHAPES["3"]), m6_perm)},
        "sq": {"kind": "category", "n": len(sq_perm), "check_regular": True,
               "table": relabel(category_table(SHAPES["SQ"]), sq_perm)},
    }


INPUTS = {"report_full": report_inputs, "theorem1_ladder": ladder_inputs,
          "cli_mix": cli_inputs}
