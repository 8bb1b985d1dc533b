"""Piecewise-linear sets: construction, canonical form, exact lattice ops.

The reference check throughout is pointwise evaluation: any claimed
meet/join/order result must agree with ``at()`` on every merged
breakpoint and on the midpoint of every merged segment, which pins the
whole piecewise-linear function exactly.
"""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ftop import BackendMismatchError, DegreeRangeError, FtopError, PLFuzzySet

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

    @given(pl_sets(), st.lists(pl_sets(), max_size=4))
    def test_many_folds_match_binary(self, f, others):
        expected_join, expected_meet = f, f
        for g in others:
            expected_join = expected_join.join(g)
            expected_meet = expected_meet.meet(g)
        assert f.join(*others) == expected_join
        assert f.meet(*others) == expected_meet


def test_constants_and_zero_check():
    assert PLFuzzySet.zero().is_zero()
    assert not PLFuzzySet.constant("1/8").is_zero()
    assert PLFuzzySet.one().breakpoints == ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(1)))
    assert MU.bottom() == PLFuzzySet.zero()
    assert MU.top() == PLFuzzySet.one()
