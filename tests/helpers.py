"""Shared fixtures: two small reference spaces used across the suite.

``t_fin()`` is a five-member topology on a two-point universe whose
degrees (0, 1/3, 1/2, 2/3, 1) exercise non-grid-aligned arithmetic;
``t_pl()`` is the five-member piecewise-linear topology whose non-open
sets ``ALPHA`` and ``BETA`` separate the openness classes.
``reference_map()`` maps ``t_fin()`` onto ``t_codomain()``, whose only
non-constant open is {u:1/2, v:0}.  ``grid(k)``
is the degree grid the finite grid sets are drawn from, and
``exact_degrees()`` the hypothesis strategy for exact degrees; the other
strategies below are shared by several test modules.  ``literal(value)``
is a set as ``reference`` states it.  ``recorded_builds()`` records each
meet and join built while ``check_axioms`` runs, for the tests of its
pair loop in ``test_topology`` and ``test_plin``.
"""

from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

from hypothesis import strategies as st

from ftop import FiniteFuzzySet, FuzzyFunction, PLFuzzySet, Universe, generate, validate

import reference

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


UV = Universe.of("u", "v")


def ys(u, v) -> FiniteFuzzySet:
    return FiniteFuzzySet.of(UV, (u, v))


def t_codomain():
    return validate([ys(0, 0), ys("1/2", 0), ys(1, 1)])


def reference_map():
    return FuzzyFunction.from_mapping(t_fin(), t_codomain(), {"a": "u", "b": "v"})


def pl(*pairs) -> PLFuzzySet:
    return PLFuzzySet.from_breakpoints(pairs)


MU = pl(("0", "0"), ("1/2", "0"), ("1", "1"))
LAM = pl(("0", "1"), ("1/4", "1"), ("1/2", "0"), ("1", "0"))
SIGMA = pl(("0", "1"), ("1/4", "1"), ("1/2", "0"), ("1", "1"))
ALPHA = pl(("0", "0"), ("1/4", "0"), ("1", "1"))
BETA = pl(("0", "0"), ("1/2", "1"), ("1", "1"))


def t_pl():
    return validate([PLFuzzySet.zero(), MU, LAM, SIGMA, PLFuzzySet.one()])


def literal(value):
    """``value`` as the reference states it: its degrees, or its breakpoints."""
    return value.breakpoints if isinstance(value, PLFuzzySet) else value.degrees


def literal_space(space):
    """``space`` as the reference states it, from its members."""
    return reference.Space([literal(member) for member in space.members])


# The verdict quadruples, strongest first, that the implication chain allows.
CHAIN_QUADRUPLES = {
    (True, True, True, True),
    (False, True, True, True),
    (False, False, True, True),
    (False, False, False, False),
}

pair_sets = st.builds(fs, exact_degrees(), exact_degrees())
small_spaces = st.lists(pair_sets, max_size=3).map(lambda sets: generate(sets, universe=AB))

quarters = st.sampled_from(grid(4))
quarter_sets = st.builds(fs, quarters, quarters)
quarter_spaces = st.lists(quarter_sets, max_size=3).map(lambda sets: generate(sets, universe=AB))


@st.composite
def pl_sets(draw):
    """Up to three inner breakpoints, every coordinate with a denominator up to 8."""
    inner = draw(st.lists(exact_degrees(8).filter(lambda q: 0 < q < 1), unique=True, max_size=3))
    xs = [Fraction(0), *sorted(inner), Fraction(1)]
    return PLFuzzySet.from_breakpoints([(x, draw(exact_degrees(8))) for x in xs])


@contextmanager
def recorded_builds():
    """Record each meet and join built, on both backends, as the axiom its
    violation would name and the pair: ``("ii", a, b)`` for ``a._meet(b)``
    and ``("iii", a, b)`` for ``a._join(b)``."""
    built = []

    def patched(cls):
        meet, join = cls._meet, cls._join

        def recorded_meet(self, other):
            built.append(("ii", self, other))
            return meet(self, other)

        def recorded_join(self, other):
            built.append(("iii", self, other))
            return join(self, other)

        return mock.patch.multiple(cls, _meet=recorded_meet, _join=recorded_join)

    with patched(FiniteFuzzySet), patched(PLFuzzySet):
        yield built


def assert_built_only_for_reported_violations(violations, built):
    """A meet or join is built only for a reported violation: ``built``
    holds the axiom and pair of each pairwise violation, in order."""
    assert built == [(v.axiom, *v.witnesses[:2]) for v in violations if v.axiom != "i"]
