"""Piecewise-linear sets: construction, canonical form, exact lattice ops.

Three independent checks back the lattice operations:

* pointwise evaluation: any claimed meet/join/order result must agree
  with ``at()`` on every merged breakpoint and on the midpoint of every
  merged segment, which pins the whole piecewise-linear function exactly;
* a literal quadratic reference (``reference_*`` below), which evaluates
  both functions by a linear scan at every merged x; the linear sweep
  must reproduce its breakpoints and verdicts exactly;
* a projection onto a finite universe: the PL operators, evaluated at the
  projection points, must equal the finite-backend operators there.
"""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftop import (
    BackendMismatchError,
    DegreeRangeError,
    FiniteFuzzySet,
    FtopError,
    FuzzyTopology,
    PLFuzzySet,
    Universe,
    classify_set,
    generate,
    semi_closure,
    semi_interior,
    validate,
)

from helpers import ALPHA, BETA, LAM, MU, SIGMA, ZERO2, pl

degrees = st.builds(
    lambda n, d: Fraction(min(n, d), d),
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=1, max_value=8),
)


@st.composite
def pl_sets(draw):
    inner = draw(
        st.lists(
            degrees.filter(lambda q: 0 < q < 1), unique=True, min_size=0, max_size=3
        )
    )
    xs = [Fraction(0), *sorted(inner), Fraction(1)]
    return PLFuzzySet.from_breakpoints([(x, draw(degrees)) for x in xs])


@st.composite
def dense_pl_sets(draw, max_breakpoints=40):
    """Up to ``max_breakpoints`` breakpoints on a coarse grid of x and y.

    Coarse grids make shared x-coordinates, equal values at a shared x
    (touching) and crossings that land on a breakpoint common.
    """
    den = draw(st.sampled_from([2, 4, 6, 12, 24, 48]))
    size = draw(st.integers(0, min(den - 1, max_breakpoints - 2)))
    inner = draw(st.lists(st.integers(1, den - 1), unique=True, min_size=size, max_size=size))
    xs = [0, *sorted(inner), den]
    ys = draw(st.lists(st.integers(0, 6), min_size=len(xs), max_size=len(xs)))
    return PLFuzzySet(tuple((Fraction(x, den), Fraction(y, 6)) for x, y in zip(xs, ys)))


# The quadratic algorithm the linear sweep replaced, kept verbatim as the
# reference: evaluate both functions at every merged x by a linear scan.


def reference_at(f, x):
    points = f.breakpoints
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        if x0 <= x <= x1:
            if x == x0:
                return y0
            return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    raise AssertionError("unreachable: breakpoints cover [0, 1]")


def reference_merged_grid(f, g):
    xs = sorted({x for x, _ in f.breakpoints} | {x for x, _ in g.breakpoints})
    crossings = []
    for x0, x1 in zip(xs, xs[1:]):
        d0 = reference_at(f, x0) - reference_at(g, x0)
        d1 = reference_at(f, x1) - reference_at(g, x1)
        if (d0 > 0 and d1 < 0) or (d0 < 0 and d1 > 0):
            t = d0 / (d0 - d1)
            crossings.append(x0 + t * (x1 - x0))
    return sorted(set(xs) | set(crossings))


def reference_fold(op, f, others):
    result = f
    for g in others:
        xs = reference_merged_grid(result, g)
        result = PLFuzzySet(
            tuple((x, op(reference_at(result, x), reference_at(g, x))) for x in xs)
        )
    return result


def reference_leq(f, g):
    xs = sorted({x for x, _ in f.breakpoints} | {x for x, _ in g.breakpoints})
    return all(reference_at(f, x) <= reference_at(g, x) for x in xs)


def sample_points(*sets):
    xs = sorted({x for s in sets for x, _ in s.breakpoints})
    mids = [(a + b) / 2 for a, b in zip(xs, xs[1:])]
    return xs + mids


def test_construction_requires_unit_interval_cover():
    with pytest.raises(ValueError):
        pl(("1/4", "0"), ("1", "1"))
    with pytest.raises(ValueError):
        pl(("0", "0"), ("3/4", "1"))
    with pytest.raises(ValueError):
        pl(("0", "0"), ("1/2", "1"), ("1/2", "0"), ("1", "0"))
    with pytest.raises(ValueError):
        pl(("0", "0"), ("3/4", "1"), ("1/2", "0"), ("1", "0"))


def test_construction_rejects_bad_degrees():
    with pytest.raises(DegreeRangeError):
        pl(("0", "0"), ("1", "3/2"))
    with pytest.raises(TypeError):
        PLFuzzySet.from_breakpoints([(0.0, 0.0), (1.0, 1.0)])


def test_collinear_interior_points_collapse():
    assert pl(("0", "0"), ("1/2", "1/2"), ("1", "1")) == pl(("0", "0"), ("1", "1"))
    assert pl(("0", "1/2"), ("1/3", "1/2"), ("1", "1/2")) == PLFuzzySet.constant("1/2")
    bent = pl(("0", "0"), ("1/2", "1"), ("1", "0"))
    assert len(bent.breakpoints) == 3


def test_exact_interpolation():
    assert ALPHA.at("1/2") == Fraction(1, 3)
    assert MU.at("3/4") == Fraction(1, 2)
    assert BETA.at("1/4") == Fraction(1, 2)
    assert LAM.at("1/8") == 1
    assert MU.at(0) == 0 and MU.at(1) == 1
    with pytest.raises(DegreeRangeError):
        MU.at("9/8")


def test_known_lattice_values():
    assert MU.join(LAM) == SIGMA
    assert MU.meet(LAM) == PLFuzzySet.zero()
    assert MU.leq(ALPHA)
    assert not ALPHA.leq(MU)
    assert not BETA.leq(LAM.complement())


def test_crossing_points_become_breakpoints():
    rising = pl(("0", "0"), ("1", "1"))
    falling = pl(("0", "1"), ("1", "0"))
    low = rising.meet(falling)
    assert low.breakpoints == (
        (Fraction(0), Fraction(0)),
        (Fraction(1, 2), Fraction(1, 2)),
        (Fraction(1), Fraction(0)),
    )
    assert rising.join(falling).at("1/2") == Fraction(1, 2)


def test_finite_sets_are_rejected():
    for operation in (MU.meet, MU.join, MU.leq):
        with pytest.raises(BackendMismatchError) as err:
            operation(ZERO2)
        assert isinstance(err.value, FtopError) and isinstance(err.value, TypeError)
    with pytest.raises(BackendMismatchError):
        MU.meet(LAM, ZERO2)


def test_complement_of_known_set():
    assert LAM.complement() == pl(("0", "0"), ("1/4", "0"), ("1/2", "1"), ("1", "1"))


class TestPointwiseAgreement:
    @given(pl_sets(), pl_sets())
    def test_meet_join_evaluate_pointwise(self, f, g):
        """(f∧g)(x) = min(f(x), g(x)) on a pinning sample, dually for join."""
        low, high = f.meet(g), g.join(f)
        for x in sample_points(f, g, low, high):
            assert low.at(x) == min(f.at(x), g.at(x))
            assert high.at(x) == max(f.at(x), g.at(x))
        for result in (low, high):  # built unchecked, yet valid and canonical
            assert PLFuzzySet(result.breakpoints).breakpoints == result.breakpoints

    @given(pl_sets(), pl_sets())
    def test_order_matches_pointwise_comparison(self, f, g):
        """f ≤ g iff f(x) ≤ g(x) everywhere."""
        sampled = all(f.at(x) <= g.at(x) for x in sample_points(f, g, f.meet(g)))
        assert f.leq(g) == sampled

    @given(pl_sets())
    def test_complement_evaluates_pointwise(self, f):
        flipped = f.complement()
        for x in sample_points(f):
            assert flipped.at(x) == 1 - f.at(x)
        assert flipped.complement() == f
        assert PLFuzzySet(flipped.breakpoints).breakpoints == flipped.breakpoints

    @given(pl_sets(), st.lists(pl_sets(), max_size=4))
    def test_many_folds_match_binary(self, f, others):
        expected_join, expected_meet = f, f
        for g in others:
            expected_join = expected_join.join(g)
            expected_meet = expected_meet.meet(g)
        assert f.join(*others) == expected_join
        assert f.meet(*others) == expected_meet


# Named cases for the sweep, each as (f, g).
SHARED_X = (pl(("0", "0"), ("1/2", "1"), ("1", "0")), pl(("0", "1"), ("1/2", "1/2"), ("1", "1")))
TOUCHING = (pl(("0", "0"), ("1/2", "1/2"), ("1", "0")), PLFuzzySet.constant("1/2"))
CROSS_AT_BREAKPOINT = (pl(("0", "0"), ("1", "1")), pl(("0", "1"), ("1/2", "1/2"), ("1", "1/4")))


class TestSweepMatchesQuadraticReference:
    @pytest.mark.parametrize(
        "f, g",
        [SHARED_X, TOUCHING, CROSS_AT_BREAKPOINT, (MU, LAM), (ALPHA, BETA)],
        ids=["shared-x", "touching", "cross-at-breakpoint", "mu-lam", "alpha-beta"],
    )
    def test_named_cases(self, f, g):
        for a, b in ((f, g), (g, f)):
            assert a.meet(b).breakpoints == reference_fold(min, a, [b]).breakpoints
            assert a.join(b).breakpoints == reference_fold(max, a, [b]).breakpoints
            assert a.leq(b) == reference_leq(a, b)

    def test_touching_and_breakpoint_crossings_add_no_point(self):
        f, g = TOUCHING
        assert f.meet(g) == f and f.join(g) == g
        f, g = CROSS_AT_BREAKPOINT
        assert [x for x, _ in f.meet(g).breakpoints] == [0, Fraction(1, 2), 1]

    @settings(max_examples=200, deadline=None)
    @given(dense_pl_sets(), dense_pl_sets())
    def test_binary_operations(self, f, g):
        assert f.meet(g).breakpoints == reference_fold(min, f, [g]).breakpoints
        assert f.join(g).breakpoints == reference_fold(max, f, [g]).breakpoints
        for a, b in ((f, g), (g, f), (f, f.join(g)), (f.meet(g), g)):
            assert a.leq(b) == reference_leq(a, b)

    @settings(max_examples=60, deadline=None)
    @given(
        dense_pl_sets(max_breakpoints=12),
        st.lists(dense_pl_sets(max_breakpoints=12), min_size=2, max_size=4),
    )
    def test_variadic_calls(self, f, others):
        """Three to five arguments fold exactly like the reference."""
        assert f.meet(*others).breakpoints == reference_fold(min, f, others).breakpoints
        assert f.join(*others).breakpoints == reference_fold(max, f, others).breakpoints


def project(f, points, universe):
    return FiniteFuzzySet(universe, tuple(f.at(x) for x in points))


class TestProjectionOracle:
    """PL operators agree with the finite backend on a projection.

    Project every member and the query onto P, the union of their
    breakpoints and of the crossings of every pair among the members,
    their complements and the query.  Every function involved is linear
    between consecutive points of P, so the order of two of them is
    decided on P and projection is injective on them; hence the finite
    space on P is the image of the PL space, and each PL operator,
    evaluated on P, must equal the finite operator on the projection.
    """

    @settings(deadline=None)
    @given(st.lists(pl_sets(), min_size=1, max_size=2), pl_sets())
    def test_operators_and_verdicts_agree(self, subbasis, s):
        space = generate(subbasis)
        functions = [*space.members, *(m.complement() for m in space.members), s]
        points = sorted(
            {x for f, g in combinations(functions, 2) for x in reference_merged_grid(f, g)}
        )
        universe = Universe(tuple(str(x) for x in points))
        finite = validate([project(m, points, universe) for m in space.members])
        assert len(finite) == len(space)
        query = project(s, points, universe)
        operators = (FuzzyTopology.interior, FuzzyTopology.closure, semi_interior, semi_closure)
        for operator in operators:
            assert project(operator(space, s), points, universe) == operator(finite, query)
        assert classify_set(space, s).verdicts() == classify_set(finite, query).verdicts()


def test_constants_and_zero_check():
    assert PLFuzzySet.zero().is_zero()
    assert not PLFuzzySet.constant("1/8").is_zero()
    assert PLFuzzySet.one().breakpoints == ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(1)))
    assert MU.bottom() == PLFuzzySet.zero()
    assert MU.top() == PLFuzzySet.one()
