"""The structure lemmas that decide the lattice predicates, against the
exhaustive pair loops they replaced, and the one-mask-test checks of the
a.e. identity and of null inputs, against the loops over the definitions.

Each oracle below is the pair loop as it decided the predicate before the
lemmas: the same iteration order, so the same first witness.  Every fast
decision must give the oracle's verdict, witness and reason included, on
every lifting, on mutated liftings, on structured near-misses and on
random tables, for spaces of at most six atoms.
"""

from functools import reduce
from itertools import combinations
from operator import and_

import pytest
from hypothesis import given, settings, strategies as st

import liftlab.measure_algebra as ma
from liftlab.filter_calculus import is_directed, tail_filter
from liftlab.measure_algebra import (BooleanHom, SetTransform,
                                     TransformProperty, algebra_classes,
                                     check_property, class_complement,
                                     enumerate_liftings,
                                     is_boolean_homomorphism,
                                     lower_density_to_lifting)
from liftlab.measure_space import build_space
from liftlab.verdict import InternalCheckError, Verdict
from test_measure_space import ae_equal


# ---------------------------------------------------------------------------
# Oracles: the exhaustive loops.
# ---------------------------------------------------------------------------

def loop_pfi(t: SetTransform) -> Verdict:
    tab = t.table
    for q in range(len(tab)):
        for r in range(len(tab)):
            if tab[q & r] != tab[q] & tab[r]:
                return Verdict.fail((q, r), "intersection not preserved")
    return Verdict.ok()


def loop_pfu(t: SetTransform) -> Verdict:
    tab = t.table
    for q in range(len(tab)):
        for r in range(len(tab)):
            if tab[q | r] != tab[q] | tab[r]:
                return Verdict.fail((q, r), "union not preserved")
    return Verdict.ok()


def loop_spmc(t: SetTransform) -> Verdict:
    tab = t.table
    for q in range(len(tab)):
        for r in range(q + 1, len(tab)):
            if ae_equal(t.space, q, r) and tab[q] != tab[r]:
                return Verdict.fail((q, r), "a.e.-equal inputs have different images")
    return Verdict.ok()


LOOPS = {
    TransformProperty.PRESERVES_INTERSECTIONS: loop_pfi,
    TransformProperty.PRESERVES_UNIONS: loop_pfu,
    TransformProperty.CLASS_DETERMINED: loop_spmc,
}


def loop_aei(t: SetTransform) -> Verdict:
    for q, v in enumerate(t.table):
        if not ae_equal(t.space, q, v):
            return Verdict.fail(q, "image differs from input on a non-null set")
    return Verdict.ok()


def loop_spmcns(t: SetTransform) -> Verdict:
    for q in range(len(t.table)):
        # null: a.e. equal to the empty set
        if ae_equal(t.space, q, 0) and t.table[q] != t.table[0]:
            return Verdict.fail(q, "null input does not share the empty set's image")
    return Verdict.ok()


MASK_LOOPS = {
    TransformProperty.AE_IDENTITY: loop_aei,
    TransformProperty.NULL_CLASS_DETERMINED: loop_spmcns,
}


def loop_boolean_hom(space, rho: BooleanHom) -> Verdict:
    classes = algebra_classes(space)
    if rho(0) != 0:
        return Verdict.fail(0, "bottom class not sent to the empty set")
    if rho(space.pos_mask) != space.full_mask:
        return Verdict.fail(space.pos_mask, "top class not sent to the ambient space")
    for c in classes:
        if rho(class_complement(space, c)) != space.full_mask ^ rho(c):
            return Verdict.fail(c, "complement not preserved")
    for c in classes:
        for d in classes:
            if rho(c | d) != rho(c) | rho(d):
                return Verdict.fail((c, d), "join not preserved")
            if rho(c & d) != rho(c) & rho(d):
                return Verdict.fail((c, d), "meet not preserved")
    return Verdict.ok()


def loop_directed(family):
    elems = list(family)
    for a, b in combinations(elems, 2):
        if not any(l & ~(a & b) == 0 for l in elems):
            return False, (a, b)
    return True, None


def loop_family_error(space, tab):
    """What lower_density_to_lifting's point-by-point loop hits first: an
    empty family, a family not closed under intersections, or a family
    with an empty meet (an improper filter); None if none of them."""
    for x in range(space.n):
        family = [q for q in range(space.full_mask + 1) if (tab[q] >> x) & 1]
        if not family:
            return "empty set family"
        members = set(family)
        if any(a & b not in members for a in family for b in family):
            return "not intersection-closed"
        if not reduce(and_, family):
            return "improper filter"
    return None


# ---------------------------------------------------------------------------
# Tables: liftings, their mutations, structured near-misses, random.
# ---------------------------------------------------------------------------

@st.composite
def spaces(draw, max_atoms=6):
    weights = draw(st.lists(st.integers(0, 3), min_size=1, max_size=max_atoms))
    if not any(weights):
        weights[draw(st.integers(0, len(weights) - 1))] = 1
    return build_space(weights)


@st.composite
def union_table(draw, space):
    """Each set to the union of its atoms' drawn images, the empty set to
    a drawn part of their meet: a table that preserves unions."""
    full = space.full_mask
    images = [draw(st.integers(0, full)) for _ in range(space.n)]
    table = [draw(st.integers(0, full)) & reduce(and_, images)]
    for q in range(1, full + 1):
        low = q & -q
        table.append(table[q ^ low] | images[low.bit_length() - 1])
    return table


@st.composite
def tables(draw, space):
    full = space.full_mask
    kind = draw(st.sampled_from(["lifting", "mutated", "preimage", "union",
                                 "intersection", "random"]))
    if kind in ("lifting", "mutated"):
        table = list(draw(st.sampled_from(enumerate_liftings(space))).table)
        if kind == "mutated":
            for _ in range(draw(st.integers(1, 3))):
                q = draw(st.integers(0, full))
                table[q] ^= 1 << draw(st.integers(0, space.n - 1))
    elif kind == "preimage":
        # Q -> g^-1(Q) for any map g of the atoms: unions and intersections
        # are preserved, class determination need not be
        g = [draw(st.integers(0, space.n - 1)) for _ in range(space.n)]
        table = [sum(1 << x for x in range(space.n) if (q >> g[x]) & 1)
                 for q in range(full + 1)]
    elif kind == "union":
        table = draw(union_table(space))
    elif kind == "intersection":
        dual = draw(union_table(space))
        table = [full ^ dual[full ^ q] for q in range(full + 1)]
    else:
        table = [draw(st.integers(0, full)) for _ in range(full + 1)]
    return SetTransform(space, tuple(table))


@st.composite
def transforms(draw):
    return draw(tables(draw(spaces())))


class TestTransformLemmas:
    @settings(max_examples=400, deadline=None)
    @given(transforms(), st.sampled_from(sorted(LOOPS, key=lambda p: p.value)))
    def test_lemma_gives_the_loops_verdict_and_witness(self, t, prop):
        assert check_property(t, prop).to_dict() == LOOPS[prop](t).to_dict()

    @pytest.mark.parametrize("weights", [[1, 1, 0], [1, 0, 2, 0], [0, 1, 0, 2, 0],
                                         [1, 0, 2, 5, 3, 1]])
    def test_every_lifting_and_every_single_bit_mutation(self, weights):
        space = build_space(weights)
        for lifting in enumerate_liftings(space):
            for prop in LOOPS:
                assert check_property(lifting, prop)
            for q in range(space.full_mask + 1):
                for bit in range(space.n):
                    table = list(lifting.table)
                    table[q] ^= 1 << bit
                    t = SetTransform(space, tuple(table))
                    for prop, loop in LOOPS.items():
                        assert check_property(t, prop).to_dict() == loop(t).to_dict()

    def test_a_lemma_the_loop_contradicts_is_an_internal_error(self):
        with pytest.raises(InternalCheckError, match="structure lemma"):
            ma._first(iter(()))


class TestMaskChecks:
    @settings(max_examples=300, deadline=None)
    @given(transforms(), st.sampled_from(sorted(MASK_LOOPS, key=lambda p: p.value)))
    def test_mask_test_gives_the_loops_verdict_and_witness(self, t, prop):
        assert check_property(t, prop).to_dict() == MASK_LOOPS[prop](t).to_dict()

    @pytest.mark.parametrize("weights", [[1, 1, 0], [1, 0, 2, 0], [0, 1, 0, 2, 0],
                                         [1, 0, 2, 5, 3, 1]])
    def test_every_lifting_and_every_single_bit_mutation(self, weights):
        space = build_space(weights)
        verdicts = {prop: set() for prop in MASK_LOOPS}
        for lifting in enumerate_liftings(space):
            for q in range(space.full_mask + 1):
                for bit in range(space.n):
                    table = list(lifting.table)
                    table[q] ^= 1 << bit
                    t = SetTransform(space, tuple(table))
                    for prop, loop in MASK_LOOPS.items():
                        verdict = check_property(t, prop)
                        assert verdict.to_dict() == loop(t).to_dict()
                        verdicts[prop].add(verdict.holds)
        # both verdicts occur, except that without null atoms no input but
        # the empty set is null
        assert verdicts[TransformProperty.AE_IDENTITY] == {True, False}
        assert verdicts[TransformProperty.NULL_CLASS_DETERMINED] == (
            {True, False} if space.null_mask else {True})


class TestBooleanHomLemma:
    @settings(max_examples=400, deadline=None)
    @given(transforms())
    def test_lemma_gives_the_loops_verdict_and_witness(self, t):
        space = t.space
        rho = BooleanHom(space, {c: t.table[c] for c in algebra_classes(space)})
        assert (is_boolean_homomorphism(rho).to_dict()
                == loop_boolean_hom(space, rho).to_dict())

    @settings(max_examples=200, deadline=None)
    @given(spaces(), st.data())
    def test_sections_with_classes_moved(self, space, data):
        # moving a class and its complement together keeps the bottom, the
        # top and complements, so only the join lemma decides
        lifting = data.draw(st.sampled_from(enumerate_liftings(space)))
        table = {c: lifting.table[c] for c in algebra_classes(space)}
        for _ in range(data.draw(st.integers(1, 3))):
            c = data.draw(st.sampled_from(algebra_classes(space)))
            bit = 1 << data.draw(st.integers(0, space.n - 1))
            table[c] ^= bit
            table[class_complement(space, c)] ^= bit
        rho = BooleanHom(space, table)
        assert (is_boolean_homomorphism(rho).to_dict()
                == loop_boolean_hom(space, rho).to_dict())

    def test_every_section_with_two_complement_pairs_moved_at_a_point(self):
        space = build_space([1, 1, 0, 1, 1])
        classes = algebra_classes(space)
        pairs = [c for c in classes if c < class_complement(space, c)][1:]
        for lifting in enumerate_liftings(space):
            section = {c: lifting.table[c] for c in classes}
            for x in range(space.n):
                for moved in combinations(pairs, 2):
                    table = dict(section)
                    for c in moved:
                        table[c] ^= 1 << x
                        table[class_complement(space, c)] ^= 1 << x
                    rho = BooleanHom(space, table)
                    assert (is_boolean_homomorphism(rho).to_dict()
                            == loop_boolean_hom(space, rho).to_dict())


class TestDirectedLemma:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.integers(0, 63), max_size=12), st.booleans())
    def test_lemma_gives_the_loops_verdict_and_witness(self, family, with_meet):
        if with_meet and family:
            family.append(reduce(and_, family))
        assert is_directed(family) == loop_directed(family)

    @pytest.mark.parametrize("weights", [[1, 1, 0], [1, 0, 2, 5, 0, 1]])
    def test_families_of_every_lifting_are_directed(self, weights):
        space = build_space(weights)
        for lifting in enumerate_liftings(space):
            fixed = [q for q in range(1, space.full_mask + 1) if lifting.table[q] == q]
            for x in range(space.n):
                family = [q for q in fixed if (q >> x) & 1]
                assert is_directed(family) == loop_directed(family) == (True, None)
                if family:
                    assert tail_filter(family).kernel == 1 << reduce(and_, family)


@st.composite
def up_closure_tables(draw):
    """A monotone table: atom x lies in the image of Q iff Q contains one
    of x's drawn generators, so each point's family is an up-set that
    holds its meet exactly when one generator lies in all the others."""
    space = draw(spaces(max_atoms=5))
    full = space.full_mask
    generators = [draw(st.lists(st.integers(0, full), max_size=3))
                  for _ in range(space.n)]
    return space, [sum(1 << x for x, gens in enumerate(generators)
                       if any(g & ~q == 0 for g in gens))
                   for q in range(full + 1)]


@st.composite
def any_tables(draw):
    space = draw(spaces(max_atoms=5))
    return space, [draw(st.integers(0, space.full_mask))
                   for _ in range(space.full_mask + 1)]


def family_error(space, tab):
    """Run lower_density_to_lifting on any table and name the family error
    it raised, if any."""
    try:
        lower_density_to_lifting(SetTransform(space, tuple(tab)))
    except InternalCheckError as exc:
        for name in ("empty set family", "not intersection-closed", "improper filter"):
            if name in str(exc):
                return name
    return None


class TestIntersectionClosureLemma:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(up_closure_tables(), any_tables()))
    def test_lemma_raises_where_the_loop_does(self, case):
        space, tab = case
        assert family_error(space, tab) == loop_family_error(space, tab)

    @pytest.mark.parametrize("weights", [[1, 1, 0], [1, 0, 2, 0], [1, 0, 2, 5, 0, 1]])
    def test_every_lifting_extends_to_itself(self, weights):
        space = build_space(weights)
        for lifting in enumerate_liftings(space):
            assert lower_density_to_lifting(lifting).table == lifting.table
