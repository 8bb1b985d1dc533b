"""Topology axioms, generation, and the interior/closure operators.

Expected interior/closure values for the two reference spaces were
derived by hand from the member lists (filter the members pointwise,
fold with join or meet) before being frozen here.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftop import (
    BackendMismatchError,
    FiniteFuzzySet,
    FtopError,
    InvalidTopologyError,
    PLFuzzySet,
    ResourceCapError,
    Universe,
    UniverseMismatchError,
    check_axioms,
    generate,
    validate,
)

from helpers import ALPHA, BETA, LAM, M1, M2, M3, MU, ONE2, SIGMA, ZERO2, fs, t_fin, t_pl

from test_fset import pair_sets


def test_valid_families_have_no_violations():
    assert check_axioms([ZERO2, ONE2]) == []
    assert check_axioms([ZERO2, M1, M2, M3, ONE2]) == []


def test_missing_constants_violate_first_axiom():
    violations = check_axioms([M1, ONE2])
    axioms = {v.axiom for v in violations}
    assert "i" in axioms


def test_missing_meet_and_join_are_reported_with_witnesses():
    violations = check_axioms([ZERO2, M1, M2, ONE2])
    by_axiom = {v.axiom: v for v in violations}
    assert by_axiom["iii"].witnesses[-1] == M3
    assert set(by_axiom) == {"iii"}

    tall = fs(1, "1/3")
    wide = fs("1/2", 1)
    violations = check_axioms([ZERO2, tall, wide, ONE2])
    by_axiom = {v.axiom: v for v in violations}
    assert by_axiom["ii"].witnesses[-1] == fs("1/2", "1/3")


def test_pl_family_missing_the_join_is_invalid():
    with pytest.raises(InvalidTopologyError) as err:
        validate([PLFuzzySet.zero(), MU, LAM, PLFuzzySet.one()])
    (violation,) = err.value.violations
    assert violation.axiom == "iii"
    assert violation.witnesses[-1] == SIGMA


def test_invalid_topology_error_is_an_ftop_error():
    assert issubclass(InvalidTopologyError, FtopError)
    assert issubclass(InvalidTopologyError, ValueError)


def test_mixed_backends_are_rejected():
    with pytest.raises(BackendMismatchError):
        validate([ZERO2, MU, ONE2])
    with pytest.raises(BackendMismatchError):
        validate([PLFuzzySet.zero(), ZERO2, PLFuzzySet.one()])


def test_queries_from_another_backend_are_rejected():
    space = t_fin()
    for operator in (space.interior, space.closure, space.is_open, space.is_closed):
        with pytest.raises(BackendMismatchError) as err:
            operator(MU)
        assert isinstance(err.value, FtopError) and isinstance(err.value, TypeError)
    with pytest.raises(BackendMismatchError):
        t_pl().interior(M1)


def test_queries_over_another_universe_are_rejected():
    other = FiniteFuzzySet.zero(Universe.of("x", "y"))
    with pytest.raises(UniverseMismatchError):
        t_fin().interior(other)
    with pytest.raises(UniverseMismatchError):
        validate([ZERO2, other, ONE2])


def test_validate_deduplicates_and_orders_members():
    space = validate([ONE2, M1, ZERO2, M1, ONE2, ZERO2])
    assert space.members == (ZERO2, M1, ONE2)
    assert space.bottom == ZERO2 and space.top == ONE2


def test_generate_from_empty_subbasis():
    space = generate([], universe=Universe.of("a", "b"))
    assert space.members == (ZERO2, ONE2)
    with pytest.raises(ValueError):
        generate([])


def test_generate_closes_under_meet_and_join():
    space = generate([fs(1, "1/3"), fs("1/2", 1)])
    assert fs("1/2", "1/3") in space.members
    assert fs(1, 1) in space.members
    assert check_axioms(space.members) == []


def test_generate_cap_is_a_loud_error():
    with pytest.raises(ResourceCapError):
        generate([fs(1, "1/3"), fs("1/2", 1)], cap=3)


def test_finite_interior_and_closure_reference_values():
    space = t_fin()
    assert space.interior(fs("3/4", "1/4")) == M2
    assert space.interior(fs(0, "1/4")) == ZERO2
    assert space.closure(M2) == fs("1/2", "2/3")
    assert space.closure(fs("1/2", "1/3")) == fs("1/2", "2/3")
    assert space.closure(ZERO2) == ZERO2


def test_members_are_fixed_points():
    space = t_fin()
    for member in space.members:
        assert space.interior(member) == member
        assert space.is_open(member)
    for closed in (m.complement() for m in space.members):
        assert space.closure(closed) == closed
        assert space.is_closed(closed)


def test_pl_interior_and_closure_reference_values():
    space = t_pl()
    assert space.interior(ALPHA) == MU
    assert space.interior(BETA) == MU
    assert space.closure(MU) == LAM.complement()
    assert space.closure(ALPHA) == LAM.complement()
    assert space.closure(BETA) == PLFuzzySet.one()


def test_openness_is_semantic_not_nominal():
    space = t_fin()
    rebuilt = FiniteFuzzySet.of(Universe.of("a", "b"), {"a": "1/2", "b": "1/3"})
    assert space.is_open(rebuilt)
    assert not space.is_open(fs("1/2", "1/4"))


small_spaces = st.builds(
    lambda sets: generate(sets, universe=Universe.of("a", "b")),
    st.lists(pair_sets, max_size=3),
)


class TestOperatorLaws:
    @settings(deadline=None)
    @given(small_spaces, pair_sets)
    def test_interior_below_argument_below_closure(self, space, s):
        """Int(s) ≤ s ≤ Cl(s)."""
        assert space.interior(s).leq(s)
        assert s.leq(space.closure(s))

    @settings(deadline=None)
    @given(small_spaces, pair_sets)
    def test_idempotence(self, space, s):
        """Int∘Int = Int and Cl∘Cl = Cl."""
        interior = space.interior(s)
        closure = space.closure(s)
        assert space.interior(interior) == interior
        assert space.closure(closure) == closure

    @settings(deadline=None)
    @given(small_spaces, pair_sets)
    def test_duality(self, space, s):
        """Int(s) = 1 − Cl(1−s)."""
        assert space.interior(s) == space.closure(s.complement()).complement()

    @settings(deadline=None)
    @given(small_spaces, pair_sets, pair_sets)
    def test_monotonicity(self, space, s, t):
        """s ≤ t forces Int(s) ≤ Int(t) and Cl(s) ≤ Cl(t)."""
        low, high = s.meet(t), s.join(t)
        assert space.interior(low).leq(space.interior(high))
        assert space.closure(low).leq(space.closure(high))
