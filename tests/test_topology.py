"""Topology axioms, generation, and the interior/closure operators.

Expected interior/closure values for the two reference spaces were
derived by hand from the member lists (filter the members pointwise,
fold with join or meet) before being frozen here.  That fold is also
kept below, verbatim, as the reference the operators must reproduce.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftop import (
    BackendMismatchError,
    FiniteFuzzySet,
    FtopError,
    FuzzyTopology,
    GridSpec,
    InvalidTopologyError,
    PLFuzzySet,
    ResourceCapError,
    Universe,
    UniverseMismatchError,
    check_axioms,
    enumerate_grid_sets,
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


# The fold the greatest-member selection replaced, kept verbatim as the
# reference: join every member below s, meet every closed set above s.


def reference_interior(space, s):
    return space.bottom.join(*[m for m in space.members if m.leq(s)])


def reference_closure(space, s):
    return space.top.meet(*[m.complement() for m in space.members if s.leq(m.complement())])


def assert_operators_match_reference(space, queries):
    members = set(space.members)
    for s in queries:
        interior, closure = space.interior(s), space.closure(s)
        assert interior == reference_interior(space, s)
        assert closure == reference_closure(space, s)
        assert interior in members
        assert closure.complement() in members


@st.composite
def spaces_with_queries(draw):
    """A generated space on a 1/k grid and queries with their own denominators.

    Query degrees with denominators 3, 4, 5, 7 or 12 mostly fall between
    the member degrees, which pins the floor and ceil thresholds of the
    kernel.
    """
    universe = Universe(("u", "v", "w")[: draw(st.integers(1, 3))])
    k = draw(st.sampled_from([1, 2, 3, 4, 6]))

    def grid_set(denominators):
        return FiniteFuzzySet(
            universe,
            tuple(Fraction(draw(st.integers(0, d)), d) for d in denominators),
        )

    subbasis = [grid_set([k] * len(universe)) for _ in range(draw(st.integers(0, 4)))]
    space = generate(subbasis, universe=universe)
    off_grid = st.sampled_from([3, 4, 5, 7, 12])
    queries = [grid_set([draw(off_grid) for _ in universe]) for _ in range(6)]
    return space, [*queries, *space.members, *(m.complement() for m in space.members)]


def grid_queries(universe):
    """Every set over ``universe`` on the 1/5 grid and on the 1/12 grid."""
    for k in (5, 12):
        yield from enumerate_grid_sets(GridSpec(len(universe), k), universe)


class TestFiniteKernelMatchesFold:
    @settings(max_examples=150, deadline=None)
    @given(spaces_with_queries())
    def test_random_spaces(self, space_and_queries):
        space, queries = space_and_queries
        assert_operators_match_reference(space, queries)

    @settings(deadline=None)
    @given(spaces_with_queries(), st.randoms(use_true_random=False))
    def test_member_order_is_not_trusted(self, space_and_queries, rng):
        """A space built directly from shuffled members answers the same."""
        space, queries = space_and_queries
        members = list(space.members)
        rng.shuffle(members)
        shuffled = FuzzyTopology(tuple(members))
        for s in queries:
            assert shuffled.interior(s) == space.interior(s)
            assert shuffled.closure(s) == space.closure(s)
        assert_operators_match_reference(shuffled, queries)

    @pytest.mark.parametrize(
        "space",
        [
            validate(list(enumerate_grid_sets(GridSpec(2, 4), Universe.of("a", "b")))),
            validate([ZERO2, ONE2]),
            generate([FiniteFuzzySet.of(Universe.of("p"), ["1/3"])]),
            t_fin(),
        ],
        ids=["discrete-on-quarters", "indiscrete", "one-point", "t_fin"],
    )
    def test_named_spaces_on_every_grid_query(self, space):
        assert_operators_match_reference(space, grid_queries(space.universe))

    def test_queries_leave_no_state_behind(self):
        space = generate([fs(1, "1/3"), fs("1/2", 1), fs("1/4", "3/4")])
        fixed = {"members", "bottom", "top", "_member_set", "_index"}
        for s in grid_queries(space.universe):
            space.interior(s)
            space.closure(s)
            space.is_open(s)
        assert set(vars(space)) <= fixed


def test_pl_operators_match_the_fold():
    space = t_pl()
    queries = [ALPHA, BETA, *space.members, *(m.complement() for m in space.members)]
    assert_operators_match_reference(space, queries)
