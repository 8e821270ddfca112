"""Partial magmas: finite carriers with a partial binary operation table.

Elements are integer indices 0..n-1; an operation table entry of None
means the product is undefined.  The classification predicates (units,
associativity, fastening, regularity, and a regular magma's pins) are
evaluated exhaustively and failures carry minimal witnesses.  Pairs of
elements carry two extra partial products: horizontal multiplication
(middle-erasing) and vertical (componentwise) multiplication, related by
the interchange law.  One constructor, ``product_pm``, tabulates each
magma built from other structures (pairs under either product here, twin
arrows and transformations in ``category_kernel``); one ``search`` finds
regular magmas, functors, transformations and Yoneda candidates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations, product
from typing import NamedTuple, Sequence

from .verdict import InternalCheckError, Verdict


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


def product_pm(elements: Sequence, mul) -> PartialMagma:
    """The partial magma on ``elements``, numbered by position, whose
    product of the i-th and the j-th element is ``mul(elements[i],
    elements[j])``, undefined where that is None.  A product that is not
    in ``elements`` is an internal error."""
    index = {e: i for i, e in enumerate(elements)}

    def entry(a, b):
        r = mul(a, b)
        if r is None:
            return None
        if r not in index:
            raise InternalCheckError(f"the product {r!r} is not an element")
        return index[r]

    table = tuple(tuple(entry(a, b) for b in elements) for a in elements)
    return PartialMagma(len(elements), table)


def search(domains: Sequence[Sequence], propagate, order=None) -> tuple[list[tuple], int]:
    """Depth first, the assignments of ``domains`` that survive propagation,
    and the count of values tried (nodes).  It branches on the first unset
    (None) variable i of ``order`` (default: every variable, by index), and
    ``propagate(values, i)`` gives the pairs (j, w) a value forces, or None
    to reject it.  A forced w outside ``domains[j]`` or unlike a set value
    is a clash.  Forced pairs are not propagated again; only they set a
    variable outside ``order``.  Unforced, solutions come in product order."""
    order = range(len(domains)) if order is None else order
    values, out = [None] * len(domains), []

    def extend(k: int) -> int:
        while k < len(order) and values[order[k]] is not None:
            k += 1
        if k == len(order):
            out.append(tuple(values))
            return 0
        i = order[k]
        nodes = len(domains[i])
        for v in domains[i]:
            values[i] = v
            forced, done = propagate(values, i), [i]
            for j, w in forced or ():
                if values[j] is None and w in domains[j]:
                    values[j] = w
                    done.append(j)
                elif values[j] != w:
                    break
            else:
                if forced is not None:
                    nodes += extend(k + 1)
            for j in done:
                values[j] = None
        return nodes

    return out, extend(0)


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
    pins: tuple[tuple[int, int], ...] | None  # (dom, cod) when regular; not in to_dict

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
    """Associativity by its definition, over all n^3 triples: (x.y).z and
    x.(y.z) are each defined exactly when x.y and y.z both are, and are
    then equal.  The witness is the first failing triple, with
    "definedness" or "value".  ``classify`` runs it only where the pin
    lemma cannot decide or says the law fails."""
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


def _pin_lemma_failure(pm: PartialMagma,
                       pins: tuple[tuple[int, int], ...]) -> tuple[str, tuple] | None:
    """The first part of the pin lemma that fails, with its pair or
    triple, or None when all three hold.

    When every element x has exactly one unit on each side, its pins
    (dom x, cod x), ``_associativity`` holds iff
    (a) x.y is defined iff dom x = cod y (the chain rule),
    (b) every defined x.y has pins (dom y, cod x), and
    (c) (x.y).z = x.(y.z) on every triple with dom x = cod y and
        dom y = cod z.
    Under associativity the triples (x, cod y, y) and (x, y, dom y) give
    (a) and (b); conversely (a) and (b) make each side of a triple defined
    exactly when both products are, and (c) makes them equal.  (a) and
    (b) take n^2 steps and (c) visits only the composable triples."""
    n, table = pm.n, pm.table
    for x in range(n):
        dom_x, cod_x = pins[x]
        row = table[x]
        for y in range(n):
            if pm.defined(x, y) != (pins[y][1] == dom_x):
                return "chain rule", (x, y)
            xy = row[y]
            if xy is not None and pins[xy] != (pins[y][0], cod_x):
                return "pin rule", (x, y)
    by_dom, by_cod = {}, {}
    for x, (dom_x, cod_x) in enumerate(pins):
        by_dom.setdefault(dom_x, []).append(x)
        by_cod.setdefault(cod_x, []).append(x)
    for y in range(n):
        dom_y, cod_y = pins[y]
        row_y = table[y]
        for x in by_dom[cod_y]:
            row_x = table[x]
            row_xy = table[row_x[y]]
            for z in by_cod[dom_y]:
                if row_xy[z] != row_x[row_y[z]]:
                    return "associativity", (x, y, z)
    return None


def classify(pm: PartialMagma) -> PMClassification:
    """Exhaustive classification.  One pass gives each element x its unit
    sides, the units u with x.u defined and those with u.x defined.
    Fastening needs both nonempty (the witness is the first x with no unit
    on its left, or else on its right).  When each side is one unit, the
    pin (dom x, cod x), the pin lemma of ``_pin_lemma_failure`` decides
    associativity, with the chain rule (x.z defined iff dom x = cod z) as
    its first part.  Otherwise, or when the lemma fails, the n^3 loop of
    ``_associativity`` decides and gives the witness; a loop that finds no
    failure where the lemma found one is an internal error.  A regular
    magma has exactly one unit on each side of every element, so a regular
    magma without pins is an internal error too."""
    us = units(pm)
    sides = [([u for u in us if pm.defined(x, u)], [u for u in us if pm.defined(u, x)])
             for x in range(pm.n)]
    fw = next(((x, "right" if cods else "left") for x, (doms, cods) in enumerate(sides)
               if not doms or not cods), None)
    pins = (tuple((doms[0], cods[0]) for doms, cods in sides)
            if all(len(doms) == len(cods) == 1 for doms, cods in sides) else None)
    failure = _pin_lemma_failure(pm, pins) if pins is not None else None
    if pins is not None and failure is None:
        associative, aw = True, None
    else:
        associative, aw = _associativity(pm)
        if associative and failure is not None:
            raise InternalCheckError(f"{failure[0]} fails on a regular magma: {failure[1]}")
    regular = bool(us) and associative and fw is None
    if regular and pins is None:
        raise InternalCheckError("an element of a regular magma has two units on a side")
    total = all(pm.defined(x, y) for x in range(pm.n) for y in range(pm.n))
    return PMClassification(us, bool(us), associative, aw, fw is None, fw,
                            regular, total, regular and len(us) == 1,
                            pins if regular else None)


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
    """Pairs over a bare carrier of the given size, in ``index_pair``
    order, under horizontal multiplication."""
    if size < 1:
        raise ValueError("carrier must be nonempty")
    return product_pm(list(product(range(size), repeat=2)), hmul)


def square_pm(pm: PartialMagma) -> PartialMagma:
    """Pairs over a partial magma, in ``index_pair`` order, under vertical
    multiplication."""
    return product_pm(list(product(range(pm.n), repeat=2)),
                      lambda x, y: vmul(pm, x, y))


@dataclass(frozen=True)
class InterchangeReport:
    quadruples: int
    both_defined: int
    violations: tuple

    @property
    def holds(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {"quadruples": self.quadruples, "both_defined": self.both_defined,
                "holds": self.holds, "violations": [list(v) for v in self.violations]}


def _after(n: int) -> dict:
    """after[y] for every pair y over n elements, in ``index_pair`` order:
    each pair p with ``hmul(p, y)`` defined, with that product."""
    pairs = [index_pair(n, e) for e in range(n * n)]
    return {y: [(p, h) for p in pairs if (h := hmul(p, y)) is not None]
            for y in pairs}


def interchange_check(pm: PartialMagma) -> InterchangeReport:
    """Exhaustive interchange law on pairs over ``pm``.

    Whenever the horizontal product of two vertical products and the
    vertical product of two horizontal products are both defined, they
    must coincide.  A violation is impossible (it is a theorem) and would
    be an internal-consistency failure of hmul/vmul.  Only the quadruples
    whose two sides can both be defined are visited: x, z with a vertical
    product, x' and z' with ``hmul(x', x)`` and ``hmul(z', z)`` defined.
    ``quadruples`` still counts all n**8.
    """
    after = _after(pm.n)
    both = 0
    violations = []
    for x in after:
        for z in after:
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


class _Cells(dict):
    """Some cells of an operation table, keyed by (x, y), read by ``vmul``
    as a magma's ``op``."""

    def op(self, x: int, y: int) -> int | None:
        return self[x, y]


def interchange_sweep(n: int = 3) -> SweepReport:
    """Interchange law over every operation table on n elements, summed.

    Only a quadruple (x, z, x', z') with ``hmul(x', x)`` and ``hmul(z', z)``
    defined can be doubly defined (729 of the 6561 for n = 3).  Its two
    sides read at most six cells of a table: the components of
    ``vmul(x, z)``, ``vmul(x', z')`` and ``vmul(hmul(x', x), hmul(z', z))``.
    So each such quadruple is evaluated, through ``hmul`` and ``vmul``, on
    every assignment of its c cells (undefined or an element), and each
    assignment counts for the (n+1)^(n*n - c) tables that agree with it.
    The totals are those of a loop over all (n+1)^(n*n) tables: a
    violation wherever both sides are defined and differ.
    ``quadruples_per_table`` reports all n^8.
    """
    after = _after(n)
    tables = (n + 1) ** (n * n)
    both_defined = violations = 0
    for x, z in product(after, repeat=2):
        for (xp, hx), (zp, hz) in product(after[x], after[z]):
            cells = sorted({(x[0], z[0]), (x[1], z[1]), (xp[0], zp[0]),
                            (xp[1], zp[1]), (hx[0], hz[0]), (hx[1], hz[1])})
            weight = tables // (n + 1) ** len(cells)
            for values in product([None, *range(n)], repeat=len(cells)):
                table = _Cells(zip(cells, values))
                vxz = vmul(table, x, z)
                vpzp = vmul(table, xp, zp) if vxz is not None else None
                lhs = hmul(vpzp, vxz) if vpzp is not None else None
                rhs = vmul(table, hx, hz) if lhs is not None else None
                if rhs is not None:
                    both_defined += weight
                    violations += weight * (lhs != rhs)
    return SweepReport(tables, n ** 8, both_defined, violations)


def single_unit_totality(c: PMClassification) -> Verdict:
    """On a regular magma, given its classification: exactly one unit iff
    the operation is total.

    This is a theorem, so a failing verdict means an internal error.
    """
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

    Returns the magma and a name per element ("I2" for square shapes,
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
    names = tuple(f"I{r}" if r == c else f"A{r}{c}" for r, c in shapes)
    return build_pm(n, table), names


class RegularBuild(NamedTuple):
    """A regular magma with the choices ``regular_builds`` made for it: the
    units and the (dom, cod) pin of every element."""

    pm: PartialMagma
    units: tuple[int, ...]
    pins: tuple[tuple[int, int], ...]


@cache
def regular_builds(n: int) -> tuple[RegularBuild, ...]:
    """All regular partial magmas on n elements with their construction,
    built once per n, ordered by the table read as a number in base n+1:
    cell (i, j) is the digit of weight (n+1)^(i*n+j), undefined the digit 0
    and element v the digit v+1.

    Each is built as a category: a nonempty set of units, a (dom, cod) pair
    of units for every other element, and for each x, y with dom x = cod y
    the product y if x is a unit, x if y is one, and otherwise any element
    of hom(dom y, cod x); every other product is undefined.  ``search``
    sets the defined cells, and on each composable triple of non-units
    compares (x.y).z with x.(y.z) or forces the unset side, to a fixed
    point: by the pin lemma, the regular tables, which ``classify`` confirms.
    """
    found = []
    for k in range(1, n + 1):
        for us in combinations(range(n), k):
            others = [x for x in range(n) if x not in us]
            for pins in product(product(us, repeat=2), repeat=len(others)):
                pin = {u: (u, u) for u in us} | dict(zip(others, pins))
                cells = {x * n + y: [y if x in us else x] if x in us or y in us
                         else [z for z in range(n) if pin[z] == (pin[y][0], pin[x][1])]
                         for x, y in product(range(n), repeat=2) if pin[x][0] == pin[y][1]}
                watch = [[] for _ in range(n * n)]  # the triples each cell can be read by
                for x, y, z in product(others, repeat=3):
                    if pin[x][0] == pin[y][1] and pin[y][0] == pin[z][1]:
                        for c in {x * n + y, y * n + z, *(a * n + z for a in cells[x * n + y]),
                                  *(x * n + b for b in cells[y * n + z])}:
                            watch[c].append((x * n + y, y * n + z, x * n, z))

                def associate(t, i):
                    t, queue = list(t), [i]
                    for c in queue:  # grows as cells are forced
                        for p, q, xn, z in watch[c]:
                            if t[p] is not None and t[q] is not None:
                                left, right = t[p] * n + z, xn + t[q]
                                for a, b in ((left, right), (right, left)):
                                    if t[a] is None and t[b] is not None:
                                        t[a] = t[b]
                                        queue.append(a)
                                if t[left] != t[right]:
                                    return None
                    return [(c, t[c]) for c in queue[1:]]
                domains = [cells.get(c, ()) for c in range(n * n)]
                for flat in search(domains, associate, list(cells))[0]:
                    pm = PartialMagma(n, tuple(flat[i:i + n] for i in range(0, n * n, n)))
                    if not classify(pm).regular:
                        raise InternalCheckError(f"search kept a nonregular table {pm.table}")
                    found.append(RegularBuild(pm, us, tuple(pin[x] for x in range(n))))
    # the digits, most significant first
    return tuple(sorted(found, key=lambda b: [-1 if v is None else v
                                              for row in b.pm.table[::-1]
                                              for v in row[::-1]]))


@cache
def regular_tables(n: int) -> tuple[PartialMagma, ...]:
    """The magmas of ``regular_builds(n)``, in its order."""
    return tuple(b.pm for b in regular_builds(n))
