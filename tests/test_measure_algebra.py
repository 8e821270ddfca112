from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import liftlab.measure_algebra as ma
from liftlab.measure_algebra import (BooleanHom, SetTransform,
                                     TransformProperty, algebra_classes,
                                     brute_force_liftings, check_property,
                                     class_complement, enumerate_liftings,
                                     implication_suite,
                                     is_boolean_homomorphism, is_lifting,
                                     is_lower_density, is_right_inverse,
                                     lifting_from_retraction,
                                     lifting_retraction,
                                     lifting_to_right_inverse,
                                     lower_density_to_lifting, project,
                                     sampled_lifting_oracle)
from liftlab.measure_space import build_space
from liftlab.verdict import CapacityError, InternalCheckError
from test_measure_space import ae_equal

A, B, N = 1, 2, 4


def identity_transform(space):
    return SetTransform(space, tuple(range(space.full_mask + 1)))

LAMBDA_A = (0, 5, 2, 7, 0, 5, 2, 7)   # null atom follows atom a
LAMBDA_B = (0, 1, 6, 7, 0, 1, 6, 7)   # null atom follows atom b
# lower density that is not a lifting: strips the null atom except on the
# top class, which must go to the whole space
DENSITY_ONLY = (0, 1, 2, 7, 0, 1, 2, 7)
# strips the null atom everywhere: fails to preserve the ambient space,
# so it is not even a lower density
STRIP_NULLS = (0, 1, 2, 3, 0, 1, 2, 3)


class TestProjection:
    def test_null_part_dropped(self, s1):
        assert project(s1, A | N) == project(s1, A)

    def test_bottom_class(self, s1):
        assert project(s1, 0) == 0

    def test_four_classes(self, s1):
        assert algebra_classes(s1) == (0, 1, 2, 3)

    def test_projection_separates_classes_exactly(self, s1):
        for q in range(8):
            for r in range(8):
                assert (project(s1, q) == project(s1, r)) == ae_equal(s1, q, r)

    def test_projection_is_boolean(self, s1):
        full = s1.full_mask
        for q in range(8):
            for r in range(8):
                assert project(s1, q | r) == project(s1, q) | project(s1, r)
                assert project(s1, q & r) == project(s1, q) & project(s1, r)
            assert project(s1, full ^ q) == class_complement(s1, project(s1, q))


class TestCheckProperty:
    def test_identity_on_null_free_space_holds_all_nine(self, no_null):
        t = identity_transform(no_null)
        for prop in TransformProperty:
            assert check_property(t, prop), prop

    def test_constant_empty_fails_ae_identity_with_witness(self, s1):
        t = SetTransform(s1, (0,) * 8)
        v = check_property(t, TransformProperty.AE_IDENTITY)
        assert not v and v.witness == A

    def test_class_swap_fails_class_determination(self, s1):
        table = list(LAMBDA_A)
        table[1], table[5] = 7, 2  # {a} and {a,n} now disagree
        v = check_property(SetTransform(s1, tuple(table)),
                           TransformProperty.CLASS_DETERMINED)
        assert not v and v.witness == (1, 5)

    def test_lambda_a_holds_the_lifting_bundle(self, s1):
        t = SetTransform(s1, LAMBDA_A)
        for prop in TransformProperty:
            assert check_property(t, prop), prop


class TestBundles:
    def test_lambda_a_is_lifting(self, s1):
        assert is_lower_density(SetTransform(s1, LAMBDA_A))
        assert is_lifting(SetTransform(s1, LAMBDA_A))

    def test_identity_is_lifting_without_null_atoms(self, no_null):
        assert is_lifting(identity_transform(no_null))

    def test_identity_with_null_atoms_is_not_class_determined(self, s1):
        v = is_lower_density(identity_transform(s1))
        assert not v and "class_determined" in v.reason

    def test_density_only_transform_is_density_not_lifting(self, s1):
        t = SetTransform(s1, DENSITY_ONLY)
        assert is_lower_density(t)
        v = is_lifting(t)
        assert not v and "preserves_unions" in v.reason
        assert v.witness == (1, 2)

    def test_strip_nulls_is_not_a_lower_density(self, s1):
        # dropping the null atom from every image breaks ambient-space
        # preservation, hence neither bundle holds
        t = SetTransform(s1, STRIP_NULLS)
        v = check_property(t, TransformProperty.PRESERVES_AMBIENT_SPACE)
        assert not v
        assert not is_lower_density(t)
        assert not check_property(t, TransformProperty.COMMUTES_WITH_COMPLEMENT)


class TestDecidedOnce:
    def test_is_lifting_alone_stops_at_the_first_failure(self, s1, monkeypatch):
        # STRIP_NULLS fails the first lifting property, the ambient space;
        # the second call reads that verdict
        decided = []
        for prop, checker in list(ma._CHECKERS.items()):
            monkeypatch.setitem(ma._CHECKERS, prop, lambda t, _p=prop, _c=checker:
                                decided.append(_p) or _c(t))
        t = SetTransform(s1, STRIP_NULLS)
        assert not is_lifting(t) and not is_lifting(t)
        assert decided == [TransformProperty.PRESERVES_AMBIENT_SPACE]

    def test_equal_transforms_keep_their_own_verdicts(self, s1):
        t, u = SetTransform(s1, LAMBDA_A), SetTransform(s1, LAMBDA_A)
        assert is_lifting(t)
        assert t == u and hash(t) == hash(u) and u.verdicts == {}
        assert "verdicts" not in repr(t)


class TestImplicationSuite:
    def test_lifting_satisfies_both(self, s1):
        first, second = implication_suite(SetTransform(s1, LAMBDA_A))
        assert first.status == "satisfied"
        assert second.status == "satisfied"

    def test_premise_failure_is_vacuous(self, s1):
        first, second = implication_suite(SetTransform(s1, STRIP_NULLS))
        assert first.status == "vacuous"
        assert second.status == "vacuous"

    def test_never_violated_on_any_two_atom_transform(self):
        # the implications are theorems: sweep every transform on [1, 0]
        sp = build_space([1, 0])
        for table in product(range(4), repeat=4):
            for result in implication_suite(SetTransform(sp, table)):
                assert result.status != "violated"


class TestLowerDensityToLifting:
    def test_density_only_extends_to_lambda_a(self, s1):
        # the deterministic refinement picks the lowest-indexed atom
        lifted = lower_density_to_lifting(SetTransform(s1, DENSITY_ONLY))
        assert lifted.table == LAMBDA_A

    def test_subordination_sandwich(self, s1):
        density = SetTransform(s1, DENSITY_ONLY)
        lifted = lower_density_to_lifting(density)
        full = s1.full_mask
        for q in range(8):
            assert density.table[q] & ~lifted.table[q] == 0
            assert lifted.table[q] & ~(full ^ density.table[full ^ q]) == 0

    def test_lifting_input_is_returned_unchanged(self, s1):
        for table in (LAMBDA_A, LAMBDA_B):
            lifted = lower_density_to_lifting(SetTransform(s1, table))
            assert lifted.table == table

    def test_trivial_quotient_identity(self, no_null):
        t = identity_transform(no_null)
        assert lower_density_to_lifting(t).table == t.table

    def test_one_positive_atom_space_has_unique_lifting(self):
        sp = build_space([1, 0, 0])
        # the only lower density sends null classes to {} and the rest to X
        table = tuple(7 if q & 1 else 0 for q in range(8))
        density = SetTransform(sp, table)
        assert is_lower_density(density)
        lifted = lower_density_to_lifting(density)
        assert lifting_retraction(lifted) == (0, 0, 0)
        [unique] = enumerate_liftings(sp)
        assert lifted.table == unique.table

    def test_rejects_non_density_with_failing_property(self, s1):
        # no image holds the null atom, so its set family is empty
        with pytest.raises(InternalCheckError, match="point 2 has an empty set family"):
            lower_density_to_lifting(SetTransform(s1, STRIP_NULLS))


class TestRightInverse:
    def test_section_of_lambda_a(self, s1):
        rho = lifting_to_right_inverse(SetTransform(s1, LAMBDA_A))
        assert rho(project(s1, A)) == (A | N)
        assert rho(0) == 0
        assert rho(project(s1, s1.full_mask)) == s1.full_mask

    def test_projection_composed_with_section_is_identity(self, s1):
        rho = lifting_to_right_inverse(SetTransform(s1, LAMBDA_A))
        assert is_right_inverse(rho)
        for c in algebra_classes(s1):
            assert project(s1, rho(c)) == c

    def test_rejects_non_lifting(self, s1):
        rho = lifting_to_right_inverse(SetTransform(s1, DENSITY_ONLY))
        v = is_boolean_homomorphism(rho)
        assert not v and v.reason == "complement not preserved"
        assert v.witness == 1


class TestBooleanHom:
    def test_section_from_lifting_is_hom(self, s1):
        rho = lifting_to_right_inverse(SetTransform(s1, LAMBDA_A))
        assert is_boolean_homomorphism(rho)

    def test_arbitrary_section_fails_join(self, s1):
        rho = BooleanHom(s1, {0: 0, 1: A, 2: B, 3: s1.full_mask})
        v = is_boolean_homomorphism(rho)
        assert not v
        assert v.reason in ("join not preserved", "complement not preserved")

    def test_identity_on_trivial_quotient(self, no_null):
        rho = BooleanHom(no_null, {c: c for c in algebra_classes(no_null)})
        assert is_boolean_homomorphism(rho)


class TestEnumerateLiftings:
    def test_s1_has_exactly_two(self, s1):
        tables = [t.table for t in enumerate_liftings(s1)]
        assert tables == [LAMBDA_A, LAMBDA_B]

    def test_null_free_space_has_identity_only(self, no_null):
        [only] = enumerate_liftings(no_null)
        assert only.table == identity_transform(no_null).table

    def test_two_null_atoms_give_four(self, s2):
        assert len(enumerate_liftings(s2)) == 4

    def test_the_cap_bounds_the_entries_of_all_tables(self, s2, monkeypatch):
        # 2^2 liftings of 2^4 entries each; the count is taken before any table
        monkeypatch.setattr(ma, "ENUMERATION_CAP", 64)
        assert len(enumerate_liftings(s2)) == 4
        monkeypatch.setattr(ma, "ENUMERATION_CAP", 63)
        monkeypatch.setattr(ma, "lifting_from_retraction", None)
        with pytest.raises(CapacityError, match="2\\^2 liftings of 2\\^4 entries each "
                                                "are 64 entries, over the cap of 63"):
            enumerate_liftings(s2)

    def test_retraction_roundtrip(self, s2):
        for g in product((0, 1), repeat=2):
            retraction = (0, 1) + g
            lift = lifting_from_retraction(s2, retraction)
            assert lifting_retraction(lift) == retraction

    def test_retraction_must_fix_positive_atoms(self, s1):
        with pytest.raises(ValueError):
            lifting_from_retraction(s1, (1, 1, 0))
        with pytest.raises(ValueError):
            lifting_from_retraction(s1, (0, 1, 2))


def preimage_by_atoms(space, g):
    """The table of Q |-> {x : g(x) in Q}, each set summed over the atoms."""
    return tuple(sum(1 << x for x in range(space.n) if (q >> g[x]) & 1)
                 for q in range(space.full_mask + 1))


class TestPreimageTransform:
    """``_preimage_transform`` builds each set from the one without its
    lowest atom; the sum over atoms is the oracle."""

    def test_every_retraction_up_to_six_atoms(self):
        retractions = 0
        for n in range(1, 7):
            for null_mask in range((1 << n) - 1):
                space = build_space([0 if (null_mask >> x) & 1 else 1 for x in range(n)])
                nulls = [x for x in range(n) if (null_mask >> x) & 1]
                positive = [x for x in range(n) if not (null_mask >> x) & 1]
                for targets in product(positive, repeat=len(nulls)):
                    g = list(range(n))
                    for atom, target in zip(nulls, targets):
                        g[atom] = target
                    lifting = lifting_from_retraction(space, g)
                    assert lifting.table == preimage_by_atoms(space, g)
                    retractions += 1
        # sum over n and m of C(n, m) (n - m)^m
        assert retractions == 1 + 3 + 10 + 41 + 196 + 1057

    @given(st.integers(min_value=1, max_value=8).flatmap(
        lambda n: st.lists(st.integers(min_value=0, max_value=n - 1),
                           min_size=n, max_size=n)))
    @settings(max_examples=200, deadline=None)
    def test_drawn_maps(self, g):
        space = build_space([1] * len(g))
        assert ma._preimage_transform(space, g).table == preimage_by_atoms(space, g)


class TestLiftingLaws:
    def test_boolean_operation_tables(self, s1, s2):
        for sp in (s1, s2):
            full = sp.full_mask
            for lift in enumerate_liftings(sp):
                tab = lift.table
                for q in range(full + 1):
                    assert ae_equal(sp, tab[q], q)
                    assert tab[tab[q]] == tab[q]
                    assert tab[full ^ q] == full ^ tab[q]
                    for r in range(full + 1):
                        assert tab[q & r] == tab[q] & tab[r]
                        assert tab[q | r] == tab[q] | tab[r]


class TestOracles:
    def test_brute_force_matches_enumeration_small(self):
        for weights in ([1], [1, 0], [1, 1], [2, 3]):
            sp = build_space(weights)
            brute = [t.table for t in brute_force_liftings(sp)]
            assert brute == sorted(t.table for t in enumerate_liftings(sp))

    def test_sampled_oracle_on_s2(self, s2):
        assert sampled_lifting_oracle(s2, enumerate_liftings(s2), samples=800, seed=3)

    def test_sampled_oracle_reads_the_given_liftings(self, s2, monkeypatch):
        liftings = enumerate_liftings(s2)
        monkeypatch.setattr(ma, "enumerate_liftings", lambda sp: pytest.fail("enumerated"))
        assert sampled_lifting_oracle(s2, liftings, samples=20, seed=1)

    def test_sampled_oracle_fails_on_a_listed_non_lifting(self, s2):
        zero = SetTransform(s2, (0,) * (s2.full_mask + 1))
        v = sampled_lifting_oracle(s2, [zero], samples=20, seed=1)
        assert not v and v.witness == zero.table
        assert v.reason == "enumerated transform fails the predicate"

    def test_brute_force_guard(self, s2):
        with pytest.raises(ValueError, match="too many"):
            brute_force_liftings(s2)

    @pytest.mark.parametrize("weights", [[1, 0], [0, 1], [1, 1]])
    def test_brute_force_equals_filtering_every_table(self, weights):
        sp = build_space(weights)
        size = sp.full_mask + 1
        every = [t for t in product(range(size), repeat=size)
                 if is_lifting(SetTransform(sp, t))]
        assert [t.table for t in brute_force_liftings(sp)] == sorted(every)


@given(st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=2))
@settings(max_examples=20, deadline=None)
def test_lifting_count_is_positive_to_the_null(pos, null):
    sp = build_space([1] * pos + [0] * null)
    lifts = enumerate_liftings(sp)
    assert len(lifts) == pos ** null
    for lift in lifts:
        assert is_lifting(lift)
