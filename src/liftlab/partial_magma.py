"""Partial magmas: finite carriers with a partial binary operation table.

Elements are integer indices 0..n-1; an operation table entry of None
means the product is undefined.  The classification predicates (units,
associativity, fastening, regularity) are evaluated exhaustively and
failures carry minimal witnesses.  Pairs of elements carry two extra
partial products: horizontal multiplication (middle-erasing) and vertical
(componentwise) multiplication, related by the interchange law.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import product
from typing import Callable, Sequence

from .verdict import CapacityError, InternalCheckError, Verdict


@dataclass(frozen=True)
class PartialMagma:
    n: int
    table: tuple[tuple[int | None, ...], ...]

    def op(self, x: int, y: int) -> int | None:
        return self.table[x][y]

    def defined(self, x: int, y: int) -> bool:
        return self.table[x][y] is not None


def build_pm(n: int, table: Sequence[Sequence[int | None]]) -> PartialMagma:
    """Build a partial magma from an n-by-n table; no laws are assumed."""
    if len(table) != n:
        raise ValueError(f"table must have {n} rows")
    rows = []
    for i, row in enumerate(table):
        if len(row) != n:
            raise ValueError(f"row {i} must have {n} entries")
        for j, v in enumerate(row):
            if v is not None and (type(v) is not int or not 0 <= v < n):
                raise ValueError(f"entry ({i},{j}) = {v!r} is not an element")
        rows.append(tuple(row))
    return PartialMagma(n, tuple(rows))


def units(pm: PartialMagma) -> tuple[int, ...]:
    """Elements that are self-composable and act as identities whenever a
    product with them is defined."""
    out = []
    for x in range(pm.n):
        if pm.op(x, x) != x:
            continue
        ok = True
        for y in range(pm.n):
            xy = pm.op(x, y)
            yx = pm.op(y, x)
            if (xy is not None and xy != y) or (yx is not None and yx != y):
                ok = False
                break
        if ok:
            out.append(x)
    return tuple(out)


@dataclass(frozen=True)
class PMClassification:
    units: tuple[int, ...]
    unital: bool
    associative: bool
    assoc_witness: tuple | None
    fastened: bool
    fastened_witness: tuple | None
    regular: bool
    total: bool
    monoid: bool

    def to_dict(self) -> dict:
        return {
            "units": list(self.units),
            "unital": self.unital,
            "associative": self.associative,
            "assoc_witness": list(self.assoc_witness) if self.assoc_witness else None,
            "fastened": self.fastened,
            "fastened_witness": (list(self.fastened_witness)
                                 if self.fastened_witness else None),
            "regular": self.regular,
            "total": self.total,
            "monoid": self.monoid,
        }


def _associativity(pm: PartialMagma) -> tuple[bool, tuple | None]:
    # The three definedness conditions must agree, and the triple products
    # must be equal when defined.
    for x, y, z in product(range(pm.n), repeat=3):
        xy = pm.op(x, y)
        yz = pm.op(y, z)
        left = pm.op(xy, z) if xy is not None else None
        right = pm.op(x, yz) if yz is not None else None
        both = xy is not None and yz is not None
        if (left is not None) != both or (right is not None) != both:
            return False, (x, y, z, "definedness")
        if left is not None and left != right:
            return False, (x, y, z, "value")
    return True, None


def _fastening(pm: PartialMagma, us: tuple[int, ...]) -> tuple[bool, tuple | None]:
    for x in range(pm.n):
        if not any(pm.defined(u, x) for u in us):
            return False, (x, "left")
        if not any(pm.defined(x, u) for u in us):
            return False, (x, "right")
    return True, None


def classify(pm: PartialMagma) -> PMClassification:
    """Exhaustive classification; regular magmas also get the chain rule
    re-verified (its failure would be an internal error)."""
    us = units(pm)
    unital = len(us) > 0
    associative, aw = _associativity(pm)
    if unital:
        fastened, fw = _fastening(pm, us)
    else:
        fastened, fw = (pm.n == 0), None if pm.n == 0 else (0, "left")
    regular = unital and associative and fastened
    total = all(pm.defined(x, y) for x in range(pm.n) for y in range(pm.n))
    monoid = regular and len(us) == 1
    if regular:
        v = verify_chain_rule(pm)
        if not v:
            raise InternalCheckError(f"chain rule fails on a regular magma: {v.witness}")
    return PMClassification(us, unital, associative, aw, fastened, fw,
                            regular, total, monoid)


def hmul(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int] | None:
    """Horizontal multiplication of pairs: erase matching middle terms.

    Reading right to left, (x1,x2) after (y1,y2) is defined only when
    y2 == x1, and then equals (y1, x2).
    """
    if y[1] != x[0]:
        return None
    return (y[0], x[1])


def vmul(pm: PartialMagma, x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int] | None:
    """Vertical (componentwise) multiplication of pairs over ``pm``."""
    a = pm.op(x[0], y[0])
    b = pm.op(x[1], y[1])
    if a is None or b is None:
        return None
    return (a, b)


def pair_index(n: int, pair: tuple[int, int]) -> int:
    return pair[0] * n + pair[1]


def index_pair(n: int, e: int) -> tuple[int, int]:
    return divmod(e, n)


def twin_pm(size: int) -> PartialMagma:
    """Pairs over a bare carrier of the given size, under horizontal
    multiplication."""
    if size < 1:
        raise ValueError("carrier must be nonempty")
    m = size * size
    table = [[None] * m for _ in range(m)]
    for e in range(m):
        for f in range(m):
            r = hmul(index_pair(size, e), index_pair(size, f))
            if r is not None:
                table[e][f] = pair_index(size, r)
    return build_pm(m, table)


def square_pm(pm: PartialMagma) -> PartialMagma:
    """Pairs over a partial magma, under vertical multiplication."""
    m = pm.n * pm.n
    table = [[None] * m for _ in range(m)]
    for e in range(m):
        for f in range(m):
            r = vmul(pm, index_pair(pm.n, e), index_pair(pm.n, f))
            if r is not None:
                table[e][f] = pair_index(pm.n, r)
    return build_pm(m, table)


@dataclass(frozen=True)
class InterchangeReport:
    quadruples: int
    both_defined: int
    violations: tuple

    @property
    def holds(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.holds

    def to_dict(self) -> dict:
        return {"quadruples": self.quadruples, "both_defined": self.both_defined,
                "holds": self.holds, "violations": [list(v) for v in self.violations]}


def interchange_check(pm: PartialMagma, force: bool = False) -> InterchangeReport:
    """Exhaustive interchange law on pairs over ``pm``.

    Whenever the horizontal product of two vertical products and the
    vertical product of two horizontal products are both defined, they
    must coincide.  A violation is impossible (it is a theorem) and would
    be an internal-consistency failure of hmul/vmul.  Only the quadruples
    whose two sides can both be defined are visited: x, z with a vertical
    product, x' and z' with ``hmul(x', x)`` and ``hmul(z', z)`` defined.
    ``quadruples`` still counts all n**8.
    """
    if pm.n ** 8 > 400_000 and not force:
        raise CapacityError(f"{pm.n}^8 quadruples is too many; pass force=True")
    pairs = [index_pair(pm.n, e) for e in range(pm.n * pm.n)]
    # after[y]: each pair p with hmul(p, y) defined, with that product
    after = {y: [(p, h) for p in pairs if (h := hmul(p, y)) is not None]
             for y in pairs}
    both = 0
    violations = []
    for x in pairs:
        for z in pairs:
            vxz = vmul(pm, x, z)
            if vxz is None:
                continue
            for xp, hx in after[x]:
                for zp, hz in after[z]:
                    rhs = vmul(pm, hx, hz)
                    vpzp = vmul(pm, xp, zp)
                    lhs = hmul(vpzp, vxz) if vpzp is not None else None
                    if lhs is not None and rhs is not None:
                        both += 1
                        if lhs != rhs:
                            violations.append((x, z, xp, zp, lhs, rhs))
    return InterchangeReport(pm.n ** 8, both, tuple(violations))


def verify_chain_rule(pm: PartialMagma) -> Verdict:
    """Exhaustively: a product is defined iff the pins match."""
    us = units(pm)
    pins = {}
    for x in range(pm.n):
        doms = [u for u in us if pm.defined(x, u)]
        cods = [u for u in us if pm.defined(u, x)]
        if len(doms) != 1 or len(cods) != 1:
            return Verdict.fail(x, "pin not unique")
        pins[x] = (doms[0], cods[0])
    for x in range(pm.n):
        for z in range(pm.n):
            if pm.defined(x, z) != (pins[x][0] == pins[z][1]):
                return Verdict.fail((x, z), "definedness disagrees with the pins")
    return Verdict.ok()


def is_pm_hom(f, source: PartialMagma, target: PartialMagma,
              unital: bool = False) -> Verdict:
    """Homomorphism check: defined products map to defined products with
    matching values; with ``unital``, units also map to units."""
    fmap: Callable[[int], int] = f if callable(f) else (lambda x: f[x])
    for x in range(source.n):
        if not 0 <= fmap(x) < target.n:
            return Verdict.fail(x, "image out of range")
    for x in range(source.n):
        for y in range(source.n):
            xy = source.op(x, y)
            if xy is None:
                continue
            img = target.op(fmap(x), fmap(y))
            if img is None:
                return Verdict.fail((x, y), "image product undefined")
            if img != fmap(xy):
                return Verdict.fail((x, y), "image product has the wrong value")
    if unital:
        target_units = set(units(target))
        for u in units(source):
            if fmap(u) not in target_units:
                return Verdict.fail(u, "unit not sent to a unit")
    return Verdict.ok()


def square_of_function(f: Sequence[int], source_size: int, target_size: int):
    """The pairwise action of a function, as a map of pair indices."""
    if len(f) != source_size:
        raise ValueError("function must be defined on the whole carrier")

    def mapped(e: int) -> int:
        i, j = index_pair(source_size, e)
        return pair_index(target_size, (f[i], f[j]))

    return mapped


def single_unit_totality(pm: PartialMagma) -> Verdict:
    """On a regular magma: exactly one unit iff the operation is total.

    This is a theorem, so a failing verdict means an internal error.
    """
    c = classify(pm)
    if not c.regular:
        raise ValueError("single-unit/totality only applies to regular magmas")
    single = len(c.units) == 1
    if single != c.total:
        return Verdict.fail((c.units, c.total), "single unit and totality disagree")
    return Verdict.ok()


def nat_subtraction_magma(limit: int = 3) -> PartialMagma:
    """0..limit under truncated subtraction: i . j defined only when i >= j."""
    n = limit + 1
    table = [[i - j if i >= j else None for j in range(n)] for i in range(n)]
    return build_pm(n, table)


def matrix_magma(dims: Sequence[tuple[int, int]]) -> tuple[PartialMagma, tuple[str, ...]]:
    """Rectangular 0/1 diagonal matrices of the given shapes, under actual
    matrix multiplication restricted to the carrier.

    Returns the magma and a label per element ("I2" for square shapes,
    "A32" for a 3-by-2)."""
    shapes = [tuple(d) for d in dims]
    if len(set(shapes)) != len(shapes):
        raise ValueError("duplicate shapes")

    def mat(rows: int, cols: int):
        return tuple(tuple(1 if i == j else 0 for j in range(cols)) for i in range(rows))

    def matmul(a, b):
        return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(len(b)))
                           for j in range(len(b[0]))) for i in range(len(a)))

    mats = [mat(r, c) for r, c in shapes]
    by_value = {m: i for i, m in enumerate(mats)}
    n = len(shapes)
    table = [[None] * n for _ in range(n)]
    for i, (ri, ci) in enumerate(shapes):
        for j, (rj, cj) in enumerate(shapes):
            if ci != rj:
                continue
            prod_mat = matmul(mats[i], mats[j])
            if prod_mat in by_value:
                table[i][j] = by_value[prod_mat]
    labels = tuple(f"I{r}" if r == c else f"A{r}{c}" for r, c in shapes)
    return build_pm(n, table), labels


# ---------------------------------------------------------------------------
# Vectorized sweeps over every operation table (numpy).
# ---------------------------------------------------------------------------

def all_tables_array(n: int):
    """Every partial operation table on n elements, one row per table.

    Entries are -1 for undefined, else the product; there are (n+1)^(n*n)
    tables, enumerated in base-(n+1) digit order.
    """
    import numpy as np

    cells = n * n
    base = n + 1
    total = base ** cells
    idx = np.arange(total, dtype=np.int64)
    out = np.empty((total, cells), dtype=np.int8)
    for c in range(cells):
        out[:, c] = ((idx // (base ** c)) % base).astype(np.int8) - 1
    return out


def pm_from_row(n: int, row) -> PartialMagma:
    table = [[None if row[i * n + j] < 0 else int(row[i * n + j])
              for j in range(n)] for i in range(n)]
    return build_pm(n, table)


@dataclass(frozen=True)
class SweepReport:
    tables: int
    quadruples_per_table: int
    both_defined: int
    violations: int

    def to_dict(self) -> dict:
        return {"tables": self.tables,
                "quadruples_per_table": self.quadruples_per_table,
                "both_defined": self.both_defined, "violations": self.violations}


#: Tables per batch in ``interchange_sweep``.
SWEEP_BATCH = 1024


def interchange_sweep(n: int = 3, rows=None) -> SweepReport:
    """Interchange law over every operation table on n elements.

    With H the horizontal table (``H[e, f]`` is ``hmul(e, f)``, read from
    ``twin_pm`` and so from ``hmul`` itself) and V the vertical table of an
    operation table (``V[e, f]`` gathers its two component cells), the law
    compares, for pairs x, z, x', z', the left side ``H[V[x',z'], V[x,z]]``
    with the right side ``V[H[x',x], H[z',z]]``.  The right side is
    undefined unless ``H[x',x]`` and ``H[z',z]`` both are, so no other
    quadruple can be doubly defined; only those (729 of the 6561 for
    n = 3) are evaluated.  Each side is built by its own lookups, and a
    violation is counted wherever both are defined and differ.
    ``quadruples_per_table`` reports all n^8.  Pass ``rows`` (an array of
    flat tables) to sweep a specific subset instead of all tables.
    """
    import numpy as np

    tables = all_tables_array(n) if rows is None else np.asarray(rows, dtype=np.int8)
    m = n * n
    undefined = m
    # Pair indices and the sentinel fit one small unsigned type, and so
    # does a flat index into H with its sentinel row and column.
    side = m + 1
    dtype = np.min_scalar_type(side * side - 1)
    h = np.full((side, side), undefined, dtype=dtype)
    h[:m, :m] = [[undefined if v is None else v for v in row] for row in twin_pm(n).table]
    # V[e, f] = (T[e1, f1], T[e2, f2]), flattened as e * m + f.
    e, f = np.divmod(np.arange(m * m), m)
    cell1 = (e // n) * n + f // n
    cell2 = (e % n) * n + f % n
    # Every quadruple (x, z, x', z') with H[x', x] and H[z', z] defined.
    hp, hq = np.nonzero(h[:m, :m] != undefined)
    i, j = np.divmod(np.arange(hp.size ** 2), hp.size)
    xp, x, zp, z = hp[i], hq[i], hp[j], hq[j]
    v_xz = x * m + z
    v_pzp = xp * m + zp
    v_rhs = h[xp, x].astype(np.intp) * m + h[zp, z]
    h_flat = h.ravel()
    both_defined = 0
    violations = 0
    for start in range(0, tables.shape[0], SWEEP_BATCH):
        tb = tables[start:start + SWEEP_BATCH].astype(np.intp)
        a = tb[:, cell1]
        b = tb[:, cell2]
        v = np.where((a < 0) | (b < 0), undefined, a * n + b).astype(dtype)
        lhs = h_flat[(v * dtype.type(side))[:, v_pzp] + v[:, v_xz]]
        rhs = v[:, v_rhs]
        both = (lhs != undefined) & (rhs != undefined)
        both_defined += int(np.count_nonzero(both))
        violations += int(np.count_nonzero(both & (lhs != rhs)))
    return SweepReport(tables.shape[0], n ** 8, both_defined, violations)


def unital_table_indices(n: int):
    """Indices (into all_tables_array order) of the tables with a unit."""
    import numpy as np

    tables = all_tables_array(n)
    unital = np.zeros(tables.shape[0], dtype=bool)
    for e in range(n):
        cond = tables[:, e * n + e] == e
        for y in range(n):
            if y == e:
                continue
            ey = tables[:, e * n + y]
            ye = tables[:, y * n + e]
            cond &= (ey == -1) | (ey == y)
            cond &= (ye == -1) | (ye == y)
        unital |= cond
    return np.nonzero(unital)[0], tables


@cache
def regular_tables(n: int) -> tuple[PartialMagma, ...]:
    """All regular partial magmas on n elements, built once per n.

    Regularity implies unitality, so the vectorized unit pre-filter loses
    nothing; the survivors get the full classification.
    """
    if n >= 3:
        idx, tables = unital_table_indices(n)
        rows = tables[idx]
    else:
        rows = all_tables_array(n)
    pms = (pm_from_row(n, row) for row in rows)
    return tuple(pm for pm in pms if classify(pm).regular)
