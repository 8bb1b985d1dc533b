"""Piecewise-linear sets: construction, canonical form, exact lattice ops.

Three independent checks back the lattice operations:

* pointwise evaluation: any claimed meet/join/order result must agree
  with ``at()`` on every merged breakpoint and on the midpoint of every
  merged segment, which pins the whole piecewise-linear function exactly;
* the literal quadratic reference in ``reference``, stated on tuples of
  Fraction breakpoints and sharing no code with ``ftop``: it evaluates
  both functions by a linear scan at every merged x and drops collinear
  points by the literal rule.  The linear sweep must reproduce its
  breakpoints and verdicts exactly, and the integer representation its
  scale, numerators and read-outs;
* a projection onto a finite universe: the PL operators, evaluated at the
  projection points, must equal the finite-backend operators there.
"""

import copy
import math
import pickle
from dataclasses import FrozenInstanceError
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings
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
from ftop.plin import _mass

import reference
from helpers import ALPHA, BETA, LAM, MU, SIGMA, ZERO2, exact_degrees, pl, pl_sets


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
    with pytest.raises(ValueError, match=r"^membership value 3/2 outside \[0, 1\]$"):
        PLFuzzySet([(Fraction(0), Fraction(0)), (Fraction(1), Fraction(3, 2))])
    with pytest.raises(TypeError):
        PLFuzzySet.from_breakpoints([(0.0, 0.0), (1.0, 1.0)])
    # x order is checked before the y range
    points = [(0, 0), ("1/2", "3/2"), ("1/2", 0), (1, 0)]
    with pytest.raises(ValueError, match=r"^x-coordinates must strictly increase: 1/2 then 1/2$"):
        PLFuzzySet([(Fraction(x), Fraction(y)) for x, y in points])


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

# Order cases as (f, g, f <= g), decided at x = 1/2 alone.  Here only f has
# a breakpoint there, over or on g's segment [1/4, 1], where g = 2/3; the
# complements, swapped, give the cases where only g has one.
RISING_FROM_A_QUARTER = pl(("0", "1"), ("1/4", "1/2"), ("1", "1"))
ONLY_F_DECIDES = [
    (pl(("0", "0"), ("1/2", "3/4"), ("1", "0")), RISING_FROM_A_QUARTER, False),
    (pl(("0", "0"), ("1/2", "2/3"), ("1", "0")), RISING_FROM_A_QUARTER, True),
]
BOTH_DECIDE = [
    (pl(("0", "0"), ("1/2", "3/4"), ("1", "0")), pl(("0", "1"), ("1/2", "1/2"), ("1", "1")), False),
    (pl(("0", "0"), ("1/2", "3/4"), ("1", "0")), pl(("0", "1"), ("1/2", "3/4"), ("1", "1")), True),
]


class TestSweepMatchesQuadraticReference:
    @pytest.mark.parametrize(
        "f, g",
        [SHARED_X, TOUCHING, CROSS_AT_BREAKPOINT, (MU, LAM), (ALPHA, BETA)],
        ids=["shared-x", "touching", "cross-at-breakpoint", "mu-lam", "alpha-beta"],
    )
    def test_named_cases(self, f, g):
        for a, b in ((f, g), (g, f)):
            p, q = a.breakpoints, b.breakpoints
            assert a.meet(b).breakpoints == reference.fold(min, p, [q])
            assert a.join(b).breakpoints == reference.fold(max, p, [q])
            assert a.leq(b) == reference.leq(p, q)

    def test_touching_and_breakpoint_crossings_add_no_point(self):
        f, g = TOUCHING
        assert f.meet(g) == f and f.join(g) == g
        f, g = CROSS_AT_BREAKPOINT
        assert [x for x, _ in f.meet(g).breakpoints] == [0, Fraction(1, 2), 1]

    @pytest.mark.parametrize(
        "f, g, expected, side",
        [
            *[(f, g, expected, "f") for f, g, expected in ONLY_F_DECIDES],
            *[(g.complement(), f.complement(), expected, "g") for f, g, expected in ONLY_F_DECIDES],
            *[(f, g, expected, "both") for f, g, expected in BOTH_DECIDE],
        ],
        ids=["f-over", "f-touches", "g-under", "g-touches", "both-over", "both-touch"],
    )
    def test_order_is_decided_at_a_breakpoint_of_one_side(self, f, g, expected, side):
        """The one merged point where ``f(x) >= g(x)``, 1/2, is a breakpoint
        of f only, of g only, or of both; ``f <= g`` iff it is a touch there."""
        p, q = f.breakpoints, g.breakpoints
        merged = sorted({x for x, _ in p} | {x for x, _ in q})
        half = Fraction(1, 2)
        assert [x for x in merged if reference.at(p, x) >= reference.at(q, x)] == [half]
        assert {"f": half in dict(p), "g": half in dict(q)} == {"f": side != "g", "g": side != "f"}
        assert f.leq(g) == reference.leq(p, q) == expected

    @settings(max_examples=200, deadline=None)
    @given(dense_pl_sets(), dense_pl_sets())
    def test_binary_operations(self, f, g):
        p, q = f.breakpoints, g.breakpoints
        assert f.meet(g).breakpoints == reference.fold(min, p, [q])
        assert f.join(g).breakpoints == reference.fold(max, p, [q])
        for a, b in ((f, g), (g, f), (f, f.join(g)), (f.meet(g), g)):
            assert a.leq(b) == reference.leq(a.breakpoints, b.breakpoints)

    @settings(max_examples=60, deadline=None)
    @given(
        dense_pl_sets(max_breakpoints=12),
        st.lists(dense_pl_sets(max_breakpoints=12), min_size=2, max_size=4),
    )
    def test_variadic_calls(self, f, others):
        """Three to five arguments fold exactly like the reference."""
        p, qs = f.breakpoints, [g.breakpoints for g in others]
        assert f.meet(*others).breakpoints == reference.fold(min, p, qs)
        assert f.join(*others).breakpoints == reference.fold(max, p, qs)


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
            {
                x
                for f, g in combinations(functions, 2)
                for x in reference.merged_grid(f.breakpoints, g.breakpoints)
            }
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


def test_malformed_breakpoints_raise_value_error():
    """Exactness is checked before order, so a string or float coordinate
    is a ``ValueError``, never a bare ``TypeError`` from comparing it."""
    bad = [
        ((Fraction(0), Fraction(0)), ("1/2", Fraction(1)), (Fraction(1), Fraction(0))),
        ((Fraction(0), Fraction(0)), (Fraction(1, 2), "1"), (Fraction(1), Fraction(0))),
        ((Fraction(0), Fraction(0)), (0.5, Fraction(1)), (Fraction(1), Fraction(0))),
        ((Fraction(0), Fraction(0)), (Fraction(1), 1)),
    ]
    for points in bad:
        with pytest.raises(ValueError, match="is not exact-rational"):
            PLFuzzySet(points)


# --- the integer representation against the literal reference ------------

def pl_pair(*pairs):
    """A PL set and its canonical breakpoints, from the same ``(x, y)`` pairs."""
    points = tuple((Fraction(x), Fraction(y)) for x, y in pairs)
    return PLFuzzySet(points), reference.canonicalize(points)


@st.composite
def pl_pairs(draw, max_inner=6):
    """A PL set and its canonical breakpoints, by the reference."""
    inner = draw(
        st.lists(exact_degrees().filter(lambda q: 0 < q < 1), unique=True, max_size=max_inner)
    )
    return pl_pair(*((x, draw(exact_degrees())) for x in [Fraction(0), *sorted(inner), Fraction(1)]))


def assert_same_set(value, points):
    """``value`` holds the canonical ``points``: coordinates over the lcm of
    every denominator, and every read-out says so."""
    scale = math.lcm(*[c.denominator for point in points for c in point])
    xs, ys = tuple(x * scale for x, _ in points), tuple(y * scale for _, y in points)
    assert (value.scale, value.xs, value.ys) == (scale, xs, ys)
    assert value.breakpoints == points
    inside = ", ".join(f"({x}, {y})" for x, y in points)
    assert repr(value) == f"PLFuzzySet([{inside}])"
    assert value.is_zero() == all(y == 0 for _, y in points)
    sample = sample_points(value)
    assert [value.at(x) for x in sample] == [reference.at(points, x) for x in sample]
    rebuilt = PLFuzzySet(points)
    assert rebuilt == value and hash(rebuilt) == hash(value)


CROSSING_PAIR = [
    pl_pair(("0", "1/7"), ("1/3", "1"), ("1", "0")),
    pl_pair(("0", "4/5"), ("5/11", "0"), ("1", "2/3")),
]


def mass(value):
    """``∫ value`` as a Fraction, from the integer kernel."""
    return Fraction(_mass(value), 2 * value.scale**2)


def trapezoid(points):
    """``∫`` of the breakpoints by the trapezoid rule, on Fractions."""
    return sum((x1 - x0) * (y0 + y1) / 2 for (x0, y0), (x1, y1) in zip(points, points[1:]))


class TestIntegerRepresentationMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(pl_pairs(), min_size=1, max_size=4))
    @example(CROSSING_PAIR)
    def test_operations_agree(self, pairs):
        """meet/join with 1-4 arguments, leq both ways, complement and the
        read-outs agree with the reference, and every result is canonical."""
        values = [value for value, _ in pairs]
        references = [points for _, points in pairs]
        first, ref_first = values[0], references[0]
        results = [
            (first.meet(*values[1:]), reference.fold(min, ref_first, references[1:])),
            (first.join(*values[1:]), reference.fold(max, ref_first, references[1:])),
            *((value.complement(), reference.complement(points)) for value, points in pairs),
            *pairs,
        ]
        for value, points in results:
            assert_same_set(value, points)
        for (s, rs), (t, rt) in product(results, repeat=2):
            assert s.leq(t) == reference.leq(rs, rt)
            assert (s == t) == (rs == rt)
            assert s != t or hash(s) == hash(t)

    @settings(max_examples=100, deadline=None)
    @given(dense_pl_sets(), dense_pl_sets())
    def test_dense_binary_operations_agree(self, f, g):
        """Many crossings, shared x-coordinates and touching points."""
        p, q = f.breakpoints, g.breakpoints
        assert_same_set(f.meet(g), reference.fold(min, p, [q]))
        assert_same_set(f.join(g), reference.fold(max, p, [q]))
        assert f.leq(g) == reference.leq(p, q) and g.leq(f) == reference.leq(q, p)

    def test_a_shrinking_scale_is_divided_out(self):
        collinear = pl(("0", "0"), ("1/7", "1/7"), ("1", "1"))
        assert (collinear.scale, collinear.xs, collinear.ys) == (1, (0, 1), (0, 1))
        low = pl(("0", "1/7"), ("1/3", "2/7"), ("1", "0")).meet(PLFuzzySet.zero())
        assert (low.scale, low.xs, low.ys) == (1, (0, 1), (0, 0))
        assert low == PLFuzzySet.zero() and hash(low) == hash(PLFuzzySet.zero())
        half = pl(("0", "1/2"), ("1/3", "1/6"), ("1", "1/2")).join(PLFuzzySet.constant("1/2"))
        assert (half.scale, half.xs, half.ys) == (2, (0, 2), (1, 1))

    def test_fields_and_other_attributes_stay_read_only(self):
        """As for finite sets: ``FrozenInstanceError`` on a field, and
        ``TypeError`` or ``AttributeError``, by CPython version, on another name.
        Sets built through ``_trusted`` (a join, a meet, a complement) and
        one from the public constructor alike."""
        for value in (MU, MU.join(LAM), BETA.meet(SIGMA), LAM.complement()):
            before = ((value.scale, value.xs, value.ys), hash(value))
            with pytest.raises(FrozenInstanceError):
                value.ys = ()
            with pytest.raises(FrozenInstanceError):
                del value.scale
            with pytest.raises((TypeError, AttributeError)):
                value.extra = 1
            with pytest.raises((TypeError, AttributeError)):
                del value.extra
            assert ((value.scale, value.xs, value.ys), hash(value)) == before

    def test_sets_stay_immutable_and_picklable(self):
        for value in (MU, LAM.complement(), BETA.meet(SIGMA), MU.join(LAM, ALPHA)):
            with pytest.raises(FrozenInstanceError):
                value.scale = 1
            with pytest.raises(FrozenInstanceError):
                del value.xs
            for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
                assert twin == value and hash(twin) == hash(value)


class TestMass:
    @settings(max_examples=200, deadline=None)
    @given(pl_pairs(), pl_pairs())
    def test_mass_is_strictly_monotone(self, f_pair, g_pair):
        """``m <= m'`` and ``m != m'`` imply ``∫ m < ∫ m'``."""
        f, g = f_pair[0], g_pair[0]
        for low, high in ((f.meet(g), f), (f, f.join(g)), (f.meet(g), g.join(f))):
            assert low.leq(high)
            assert (mass(low) < mass(high)) == (low != high)
            assert mass(low) <= mass(high)

    @given(pl_pairs())
    def test_mass_is_the_exact_integral(self, pair):
        value, points = pair
        assert mass(value) == trapezoid(points)
        assert mass(value) + mass(value.complement()) == 1

