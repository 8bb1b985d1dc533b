"""Shared fixtures: two small reference spaces used across the suite.

``t_fin()`` is a five-member topology on a two-point universe whose
degrees (0, 1/3, 1/2, 2/3, 1) exercise non-grid-aligned arithmetic;
``t_pl()`` is the five-member piecewise-linear topology whose non-open
sets ``ALPHA`` and ``BETA`` separate the openness classes.  ``grid(k)``
is the degree grid the finite grid sets are drawn from, and
``exact_degrees()`` the hypothesis strategy for exact degrees.
"""

from fractions import Fraction

from hypothesis import strategies as st

from ftop import FiniteFuzzySet, PLFuzzySet, Universe, validate

AB = Universe.of("a", "b")


def grid(k: int) -> tuple[Fraction, ...]:
    """The ascending degrees 0, 1/k, ..., 1."""
    return tuple(Fraction(i, k) for i in range(k + 1))


def exact_degrees(most: int = 12) -> st.SearchStrategy[Fraction]:
    """Degrees p/q with q from 1 to ``most`` and p from 0 to q.

    Denominators up to 12, 7 and 11 included, let sets on one universe
    mix scales with no common factor.
    """
    return st.integers(1, most).flatmap(lambda q: st.integers(0, q).map(lambda p: Fraction(p, q)))


def fs(a, b) -> FiniteFuzzySet:
    return FiniteFuzzySet.of(AB, (a, b))


ZERO2 = fs(0, 0)
M1 = fs(0, "1/3")
M2 = fs("1/2", 0)
M3 = fs("1/2", "1/3")
ONE2 = fs(1, 1)


def t_fin():
    return validate([ZERO2, M1, M2, M3, ONE2])


def pl(*pairs) -> PLFuzzySet:
    return PLFuzzySet.from_breakpoints(pairs)


MU = pl(("0", "0"), ("1/2", "0"), ("1", "1"))
LAM = pl(("0", "1"), ("1/4", "1"), ("1/2", "0"), ("1", "0"))
SIGMA = pl(("0", "1"), ("1/4", "1"), ("1/2", "0"), ("1", "1"))
ALPHA = pl(("0", "0"), ("1/4", "0"), ("1", "1"))
BETA = pl(("0", "0"), ("1/2", "1"), ("1", "1"))


def t_pl():
    return validate([PLFuzzySet.zero(), MU, LAM, SIGMA, PLFuzzySet.one()])
