"""Topology axioms, generation, and the interior/closure operators.

Expected interior/closure values for the two reference spaces were
derived by hand from the member lists (filter the members pointwise,
fold with join or meet) before being frozen here.  That fold, stated in
``reference``, is what the operators of both backends must reproduce, and
the canonical member order is the reference's too.  The pair loops
``check_axioms`` and ``generate`` ran before they skipped comparable
pairs, and before ``generate`` became a meet pass and a join pass, are
kept below as the reference for those two.
"""

import random
from fractions import Fraction
from typing import Sequence
from unittest import mock

import pytest
from hypothesis import example, given, settings
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
from ftop.topology import DEFAULT_GENERATION_CAP, AxiomViolation, FuzzyValue

import reference
from helpers import (
    ALPHA, BETA, LAM, M1, M2, M3, MU, ONE2, SIGMA, ZERO2, exact_degrees, fs, literal,
    assert_built_only_for_reported_violations, literal_space, pair_sets, pl_sets, recorded_builds,
    t_fin, t_pl,
)


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
    assert list(space) == [ZERO2, M1, ONE2] and len(space) == 3
    assert space.bottom == ZERO2 and space.top == ONE2


def test_generate_from_empty_subbasis():
    space = generate([], universe=Universe.of("a", "b"))
    assert space.members == (ZERO2, ONE2)
    with pytest.raises(ValueError):
        generate([])
    with pytest.raises(ValueError, match="a topology candidate must be a non-empty family"):
        check_axioms([])


def test_generate_closes_under_meet_and_join():
    space = generate([fs(1, "1/3"), fs("1/2", 1)])
    assert fs("1/2", "1/3") in space.members
    assert fs(1, 1) in space.members
    assert check_axioms(space.members) == []


def test_generate_cap_is_a_loud_error():
    with pytest.raises(ResourceCapError):
        generate([fs(1, "1/3"), fs("1/2", 1)], cap=3)


XY_ZERO = FiniteFuzzySet.zero(Universe.of("x", "y"))


@pytest.mark.parametrize(
    "subbasis, error",
    [
        ([M1, MU], BackendMismatchError),
        ([MU, M1, M2], BackendMismatchError),
        ([M1, M2, MU], BackendMismatchError),
        ([ZERO2, PLFuzzySet.one()], BackendMismatchError),
        ([M1, M2, XY_ZERO], UniverseMismatchError),
        ([XY_ZERO, M1], UniverseMismatchError),
    ],
    ids=[
        "fin-pl",
        "pl-fin-fin",
        "stray-pl-last",
        "pl-constant-last",
        "stray-universe-last",
        "universe-first",
    ],
)
def test_generate_rejects_mixed_backends_and_universes(subbasis, error):
    with pytest.raises(error):
        generate(subbasis)


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


# The greatest-member selection of both backends against the fold it
# replaced, ``reference.interior`` and ``reference.closure``: the join of
# every member below s, and the meet of every closed set above s.


def assert_operators_match_reference(space, queries):
    stated = literal_space(space)
    for s in queries:
        interior, closure = space.interior(s), space.closure(s)
        assert literal(interior) == reference.interior(stated, literal(s))
        assert literal(closure) == reference.closure(stated, literal(s))
        assert interior in space.members
        assert closure.complement() in space.members


@st.composite
def spaces_with_queries(draw):
    """A generated space and queries with their own denominators.

    The members lie on one 1/k grid, or mix denominators up to 12 from
    point to point.  Query degrees with denominators 3, 4, 5, 7 or 12
    mostly fall between the member degrees, which pins the floor and ceil
    thresholds of the kernel.
    """
    universe = Universe(("u", "v", "w")[: draw(st.integers(1, 3))])
    k = draw(st.sampled_from([1, 2, 3, 4, 6]))
    on_grid = st.integers(0, k).map(lambda n: Fraction(n, k))
    member_degrees = draw(st.sampled_from([on_grid, exact_degrees()]))
    off_grid = st.sampled_from([3, 4, 5, 7, 12]).flatmap(
        lambda d: st.integers(0, d).map(lambda n: Fraction(n, d))
    )

    def drawn_set(degrees):
        return FiniteFuzzySet(universe, tuple(draw(degrees) for _ in universe))

    subbasis = [drawn_set(member_degrees) for _ in range(draw(st.integers(0, 4)))]
    space = generate(subbasis, universe=universe)
    queries = [drawn_set(off_grid) for _ in range(6)]
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


def pl_xs(draw, lo, hi):
    """Two to five strictly increasing x-coordinates from lo to hi inclusive."""
    inner = draw(st.lists(exact_degrees().filter(lambda t: 0 < t < 1), unique=True, max_size=3))
    return [lo, *(lo + (hi - lo) * t for t in sorted(inner)), hi]


def pl_chain(draw, xs, length):
    """``length`` nested value lists on ``xs``, bottom to top."""
    columns = [sorted(draw(exact_degrees()) for _ in range(length)) for _ in xs]
    return [[column[j] for column in columns] for j in range(length)]


@st.composite
def pl_chain_spaces(draw):
    """One to four nested members on one grid, with the constants: a chain."""
    xs = pl_xs(draw, Fraction(0), Fraction(1))
    members = [PLFuzzySet(tuple(zip(xs, ys))) for ys in pl_chain(draw, xs, draw(st.integers(1, 4)))]
    return validate([PLFuzzySet.zero(), *members, PLFuzzySet.one()])


@st.composite
def pl_product_spaces(draw):
    """Chains A on [0, 1/2] and B on [1/2, 1], both vanishing at 1/2: the
    joins ``a \\/ b`` for a in {0} + A and b in {0} + B, with the constants,
    are closed, because min and max act on the two halves separately."""
    half = Fraction(1, 2)
    left_xs = pl_xs(draw, Fraction(0), half)[:-1]
    right_xs = pl_xs(draw, half, Fraction(1))[1:]
    lefts = [[Fraction(0)] * len(left_xs), *pl_chain(draw, left_xs, draw(st.integers(1, 2)))]
    rights = [[Fraction(0)] * len(right_xs), *pl_chain(draw, right_xs, draw(st.integers(1, 2)))]
    members = [
        PLFuzzySet((*zip(left_xs, left), (half, Fraction(0)), *zip(right_xs, right)))
        for left in lefts
        for right in rights
    ]
    return validate([*members, PLFuzzySet.one()])


def pl_queries(draw, space):
    drawn = draw(st.lists(pl_sets(), min_size=1, max_size=4))
    return [*drawn, *space.members, *(m.complement() for m in space.members)]


# The pair loops of ``check_axioms`` and of the round-based ``generate``
# before they skipped comparable pairs, kept verbatim apart from the names
# as the reference: they combine every pair, comparable or not, and
# ``generate`` every ordered pair that involves a new member.


def _check_backend_uniform(values: Sequence[FuzzyValue]) -> None:
    first = values[0]
    for value in values[1:]:
        first._require_compatible(value)


def reference_check_axioms(opens: Sequence[FuzzyValue]) -> list[AxiomViolation]:
    """Report every axiom violation in a candidate family (empty = valid).

    Pairwise meet/join closure is checked against semantic membership; for
    a finite family this is equivalent to closure under all finite meets
    and arbitrary joins of subfamilies.
    """
    if not opens:
        raise ValueError("a topology candidate must be a non-empty family")
    _check_backend_uniform(opens)
    members = list(dict.fromkeys(opens))
    member_set = set(members)
    violations: list[AxiomViolation] = []
    bottom, top = members[0].bottom(), members[0].top()
    if bottom not in member_set:
        violations.append(AxiomViolation("i", "the constant-0 set is not a member", (bottom,)))
    if top not in member_set:
        violations.append(AxiomViolation("i", "the constant-1 set is not a member", (top,)))
    for i, a in enumerate(members):
        for b in members[i + 1 :]:
            low = a.meet(b)
            if low not in member_set:
                violations.append(
                    AxiomViolation("ii", "a pairwise meet is not a member", (a, b, low))
                )
            high = a.join(b)
            if high not in member_set:
                violations.append(
                    AxiomViolation("iii", "a pairwise join is not a member", (a, b, high))
                )
    return violations


def reference_generate(
    subbasis: Sequence[FuzzyValue],
    *,
    universe: Universe | None = None,
    cap: int | None = None,
) -> "FuzzyTopology":
    """Smallest topology containing ``subbasis``: the meet/join fixpoint.

    ``universe`` is required only for an empty subbasis on the finite
    backend, where there is otherwise nothing to infer the constants from.
    A ``cap`` on the member count (default 4096, overridable) turns the
    potential exponential blow-up into a loud error instead of a silent
    truncation.
    """
    cap = DEFAULT_GENERATION_CAP if cap is None else cap
    if subbasis:
        _check_backend_uniform(list(subbasis))
        bottom, top = subbasis[0].bottom(), subbasis[0].top()
    elif universe is not None:
        bottom, top = FiniteFuzzySet.zero(universe), FiniteFuzzySet.one(universe)
    else:
        raise ValueError("an empty subbasis needs a universe to pick the constants from")

    family: dict[FuzzyValue, None] = dict.fromkeys([bottom, top, *subbasis])
    frontier = list(family)
    while frontier:
        fresh: dict[FuzzyValue, None] = {}
        existing = list(family)
        for a in frontier:
            for b in existing:
                for combined in (a.meet(b), a.join(b)):
                    if combined not in family and combined not in fresh:
                        fresh[combined] = None
        if len(family) + len(fresh) > cap:
            raise ResourceCapError(
                f"generated family exceeds the cap of {cap} members; "
                "raise the cap explicitly if this is intended"
            )
        family.update(fresh)
        frontier = list(fresh)
    return FuzzyTopology(tuple(family))


@st.composite
def finite_subbases(draw):
    """Up to three sets on a 1/k grid over one to three points."""
    universe = Universe(("u", "v", "w")[: draw(st.integers(1, 3))])
    k = draw(st.sampled_from([1, 2, 3, 4, 6]))
    degrees = st.tuples(*[st.integers(0, k).map(lambda n: Fraction(n, k)) for _ in universe])
    sets = draw(st.lists(degrees.map(lambda d: FiniteFuzzySet(universe, d)), max_size=3))
    return sets, universe


@st.composite
def pl_subbases(draw):
    """One to three PL sets with breakpoints on the quarters of [0, 1]."""
    k = draw(st.sampled_from([1, 2, 3, 4]))
    inner = st.lists(st.sampled_from(["1/4", "1/2", "3/4"]), unique=True).map(
        lambda xs: sorted(xs, key=Fraction)
    )

    def pl_set(xs):
        return PLFuzzySet.from_breakpoints(
            (x, Fraction(draw(st.integers(0, k)), k)) for x in ["0", *xs, "1"]
        )

    return [pl_set(draw(inner)) for _ in range(draw(st.integers(1, 3)))], None


subbases = st.one_of(finite_subbases(), pl_subbases())


def generated_or_capped(generator, subbasis, universe, cap):
    try:
        return generator(subbasis, universe=universe, cap=cap).members
    except ResourceCapError:
        return ResourceCapError


class TestPairwiseStepMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(subbases, st.data())
    def test_check_axioms(self, subbasis_and_universe, data):
        """Same violations in the same order, on random and on holed closures."""
        subbasis, universe = subbasis_and_universe
        closed = reference_generate(subbasis, universe=universe).members
        keep = data.draw(st.lists(st.booleans(), min_size=len(closed), max_size=len(closed)))
        holed = [m for m, kept in zip(closed, keep) if kept] or list(closed)
        for family in (subbasis, holed, [*subbasis, *holed]):
            if not family:
                continue
            with recorded_builds() as built:
                violations = check_axioms(family)
            assert violations == reference_check_axioms(family)
            assert_built_only_for_reported_violations(violations, built)

    @settings(max_examples=150, deadline=None)
    @given(subbases)
    def test_generate(self, subbasis_and_universe):
        """Same members, and the same cap outcome for every cap up to size + 1."""
        subbasis, universe = subbasis_and_universe
        members = generate(subbasis, universe=universe).members
        assert members == reference_generate(subbasis, universe=universe).members
        for cap in range(1, len(members) + 2):
            assert generated_or_capped(generate, subbasis, universe, cap) == (
                generated_or_capped(reference_generate, subbasis, universe, cap)
            )


def test_generate_stops_at_the_cap_before_building_the_base():
    """Sixteen sets whose 2**16 meets are all distinct: the meet pass stops
    soon after it passes the cap, long before the base is complete."""
    universe = Universe(tuple(f"p{i}" for i in range(16)))
    subbasis = [
        FiniteFuzzySet.of(universe, ["0" if j == i else "1" for j in range(16)]) for i in range(16)
    ]
    cap, calls = 64, []
    meet = FiniteFuzzySet.meet

    def counted_meet(self, *others):
        calls.append(None)
        assert len(calls) < 4 * cap, "the cap was not checked while building the base"
        return meet(self, *others)

    with mock.patch.object(FiniteFuzzySet, "meet", counted_meet):
        with pytest.raises(ResourceCapError):
            generate(subbasis, cap=cap)


def test_generate_compares_a_chain_without_the_constants():
    """The constants join the family once, after both passes: 0 and 1 are
    comparable with every set, so comparing a chain with them would only
    add ``leq`` calls.  Each pass compares the 4 sets pairwise, 6 times."""
    universe = Universe.of("a")
    chain = [FiniteFuzzySet.of(universe, [f"{i}/5"]) for i in range(1, 5)]
    calls = []
    leq = FiniteFuzzySet.leq

    def counted_leq(self, other):
        calls.append(None)
        return leq(self, other)

    with mock.patch.object(FiniteFuzzySet, "leq", counted_leq):
        space = generate(chain)
    assert space.members == reference_generate(chain).members
    assert len(calls) <= 12


class TestPLSelectionMatchesFold:
    @settings(max_examples=100, deadline=None)
    @given(st.one_of(pl_chain_spaces(), pl_product_spaces()), st.data())
    def test_chain_and_product_spaces(self, space, data):
        assert_operators_match_reference(space, pl_queries(data.draw, space))

    @settings(max_examples=60, deadline=None)
    @given(pl_subbases(), st.data(), st.randoms(use_true_random=False))
    def test_generated_spaces_with_crossings(self, subbasis, data, rng):
        """Members that cross; the member order is not trusted."""
        space = generate(subbasis[0], cap=200)  # a broken lattice fails, not hangs
        queries = pl_queries(data.draw, space)
        assert_operators_match_reference(space, queries)
        members = list(space.members)
        rng.shuffle(members)
        shuffled = FuzzyTopology(tuple(members))
        for s in queries:
            assert shuffled.interior(s) == space.interior(s)
            assert shuffled.closure(s) == space.closure(s)


class TestMemberOrderMatchesSortKey:
    """``validate``, ``generate`` and the constructor order members on
    integer keys over one scale; the order must be that of the sort key
    ``reference.order`` states, the lexicographic order of the degrees or
    breakpoints, on families whose members have different scales, and
    whatever order they came in.  (A shuffled space answers queries as the
    ordered one does: ``test_member_order_is_not_trusted`` and
    ``test_generated_spaces_with_crossings``.)"""

    @settings(max_examples=100, deadline=None)
    @given(
        st.one_of(st.lists(pair_sets, max_size=4), st.lists(pl_sets(), min_size=1, max_size=3)),
        st.randoms(use_true_random=False),
    )
    @example(t_fin().members, random.Random(0))
    @example(t_pl().members, random.Random(0))
    @example([fs(1, "1/3"), fs("1/2", 1), fs("1/4", "3/4")], random.Random(0))
    def test_validate_and_generate(self, subbasis, rng):
        space = generate(subbasis, universe=M1.universe, cap=400)
        members = [literal(member) for member in space.members]
        assert members == reference.order(members)
        shuffled = list(space.members)
        rng.shuffle(shuffled)
        assert validate(shuffled).members == space.members
        rng.shuffle(shuffled)
        assert FuzzyTopology(tuple(shuffled)).members == space.members

