"""Semi-operators and the openness hierarchy on the reference spaces.

Every frozen value below was recomputed independently first: either by
hand from the member lists or by the grid brute force in
``ftop.oracle`` (see test_oracle for the agreement checks).  The
classifier, the predicates and the semi-operators are held to the
definitions in ``reference``, on finite and PL spaces.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftop import (
    HierarchyInvariantError,
    PLFuzzySet,
    SetClassification,
    classify_set,
    generate,
    is_semiclosed,
    is_semiopen,
    is_somewhat_open,
    is_somewhat_semiopen,
    semi_closure,
    semi_interior,
    set_verdicts,
)

import reference
from helpers import (
    ALPHA, BETA, CHAIN_QUADRUPLES, LAM, M2, MU, SIGMA, ZERO2, fs, literal, literal_space,
    pair_sets, quarter_sets, quarter_spaces, small_spaces, t_fin, t_pl,
)


def test_semi_interior_reference_value():
    assert semi_interior(t_fin(), fs("3/4", "1/4")) == fs("1/2", "1/4")


def test_semi_closure_reference_value():
    space = t_fin()
    assert semi_closure(space, fs("1/2", "1/3")) == fs("1/2", "1/3")
    assert semi_closure(space, fs("1/4", "1/2")) == fs("1/2", "1/2")


def test_semiopen_membership_on_finite_space():
    space = t_fin()
    assert is_semiopen(space, fs(0, "1/2"))
    assert not is_semiopen(space, fs(0, "1/4"))
    assert not is_semiopen(space, fs("3/4", "1/4"))
    for member in space.members:
        assert is_semiopen(space, member)


def test_somewhat_open_membership_on_finite_space():
    space = t_fin()
    assert is_somewhat_open(space, ZERO2)
    assert is_somewhat_open(space, fs("3/4", "1/4"))
    assert not is_somewhat_open(space, fs(0, "1/4"))
    assert is_somewhat_semiopen(space, fs("3/4", "1/4"))
    assert not is_somewhat_semiopen(space, fs(0, "1/4"))


def test_alpha_is_semiopen_but_not_open():
    space = t_pl()
    c = classify_set(space, ALPHA)
    assert not c.is_open
    assert c.is_semiopen
    assert c.semi_interior == ALPHA
    assert c.semi_closure == ALPHA


def test_beta_is_somewhat_open_but_not_semiopen():
    space = t_pl()
    c = classify_set(space, BETA)
    assert not c.is_open
    assert not c.is_semiopen
    assert c.is_somewhat_open
    assert c.is_somewhat_semiopen
    assert c.interior == MU
    assert c.semi_interior == LAM.complement()
    assert c.semi_closure == PLFuzzySet.one()


def test_open_members_classify_open():
    space = t_pl()
    for member in space.members:
        c = classify_set(space, member)
        assert c.is_open and c.is_semiopen and c.is_somewhat_open


def test_semiclosed_is_complement_dual():
    space = t_fin()
    assert is_semiclosed(space, fs(0, "1/2").complement())
    assert is_semiclosed(space, M2.complement())
    assert not is_semiclosed(space, fs(0, "1/4").complement())


def test_impossible_verdict_combinations_are_refused():
    with pytest.raises(HierarchyInvariantError):
        SetClassification(
            is_open=True,
            is_semiopen=False,
            is_somewhat_open=True,
            is_somewhat_semiopen=True,
            interior=ZERO2,
            closure=ZERO2,
            closure_of_interior=ZERO2,
            semi_interior=ZERO2,
            semi_closure=ZERO2,
        )
    with pytest.raises(HierarchyInvariantError):
        SetClassification(
            is_open=False,
            is_semiopen=False,
            is_somewhat_open=True,
            is_somewhat_semiopen=False,
            interior=ZERO2,
            closure=ZERO2,
            closure_of_interior=ZERO2,
            semi_interior=ZERO2,
            semi_closure=ZERO2,
        )


def test_set_verdicts_refuses_a_broken_chain():
    class Broken:
        """Int(s) = s but Cl(Int(s)) = 0: open and not semiopen."""

        def interior(self, s):
            return s

        def closure(self, s):
            return s.bottom()

    for classify in (set_verdicts, classify_set):
        with pytest.raises(HierarchyInvariantError):
            classify(Broken(), fs("1/2", 0))


def classification_with(quadruple):
    names = ("is_open", "is_semiopen", "is_somewhat_open", "is_somewhat_semiopen")
    return SetClassification(
        **dict(zip(names, quadruple)),
        interior=ZERO2,
        closure=ZERO2,
        closure_of_interior=ZERO2,
        semi_interior=ZERO2,
        semi_closure=ZERO2,
    )


def test_exactly_the_chain_quadruples_are_accepted():
    for quadruple in itertools.product((False, True), repeat=4):
        if quadruple in CHAIN_QUADRUPLES:
            assert tuple(classification_with(quadruple).verdicts().values()) == quadruple
        else:
            with pytest.raises(HierarchyInvariantError):
                classification_with(quadruple)


def assert_classification_matches_definitions(space, s):
    """The nine values of ``classify_set``, ``set_verdicts``, and the
    standalone predicates and semi-operators, each against the reference."""
    stated, t = literal_space(space), literal(s)
    verdicts = reference.set_verdicts(stated, t)
    interior, closure = reference.interior(stated, t), reference.closure(stated, t)
    c = classify_set(space, s)
    assert c.verdicts() == set_verdicts(space, s) == verdicts
    evidence = (c.interior, c.closure, c.closure_of_interior)
    assert [literal(v) for v in evidence] == [interior, closure, reference.closure(stated, interior)]
    inner, outer = reference.semi_interior(stated, t), reference.semi_closure(stated, t)
    assert literal(c.semi_interior) == literal(semi_interior(space, s)) == inner
    assert literal(c.semi_closure) == literal(semi_closure(space, s)) == outer
    standalone = (is_semiopen, is_somewhat_open, is_somewhat_semiopen)
    assert [held(space, s) for held in standalone] == list(verdicts.values())[1:]
    semiclosed = reference.set_verdicts(stated, reference.complement(t))["semiopen"]
    assert is_semiclosed(space, s) == semiclosed


@settings(max_examples=160, deadline=None)
@given(st.one_of(st.tuples(small_spaces, pair_sets), st.tuples(quarter_spaces, quarter_sets)))
def test_classify_set_matches_definitions_on_finite_spaces(space_and_set):
    """Spaces with mixed denominators up to 12, and spaces on the quarter
    grid queried on it, where members and queries often coincide."""
    space, s = space_and_set
    assert_classification_matches_definitions(space, s)
    for member in space.members:
        assert_classification_matches_definitions(space, member)


@pytest.mark.parametrize(
    "space", [t_pl(), generate([ALPHA, BETA.complement()])], ids=["t_pl", "alpha-beta"]
)
def test_classify_set_matches_definitions_on_pl_spaces(space):
    queries = [ALPHA, BETA, MU, ALPHA.meet(LAM), BETA.join(SIGMA), PLFuzzySet.constant("1/2")]
    for s in [*queries, *space.members]:
        for query in (s, s.complement()):
            assert_classification_matches_definitions(space, query)


class TestSemiOperatorLaws:
    @settings(deadline=None)
    @given(small_spaces, pair_sets)
    def test_semi_interior_is_a_semiopen_lower_bound(self, space, s):
        """Int_s(s) ≤ s and Int_s(s) is itself semiopen."""
        inner = semi_interior(space, s)
        assert inner.leq(s)
        assert is_semiopen(space, inner)

    @settings(deadline=None)
    @given(small_spaces, pair_sets)
    def test_semi_closure_is_a_semiclosed_upper_bound(self, space, s):
        """s ≤ Cl_s(s) and Cl_s(s) is itself semiclosed."""
        outer = semi_closure(space, s)
        assert s.leq(outer)
        assert is_semiclosed(space, outer)

    @settings(deadline=None)
    @given(small_spaces, pair_sets)
    def test_semi_operators_fix_their_outputs(self, space, s):
        """Int_s and Cl_s are idempotent."""
        inner = semi_interior(space, s)
        outer = semi_closure(space, s)
        assert semi_interior(space, inner) == inner
        assert semi_closure(space, outer) == outer

    @settings(deadline=None)
    @given(small_spaces, pair_sets)
    def test_semi_operators_are_complement_duals(self, space, s):
        """Int_s(s) = 1 − Cl_s(1−s)."""
        assert semi_interior(space, s) == semi_closure(space, s.complement()).complement()

    @settings(deadline=None)
    @given(small_spaces, pair_sets)
    def test_sandwich_between_plain_operators(self, space, s):
        """Int ≤ Int_s ≤ s ≤ Cl_s ≤ Cl."""
        assert space.interior(s).leq(semi_interior(space, s))
        assert semi_closure(space, s).leq(space.closure(s))

    @settings(deadline=None)
    @given(small_spaces, pair_sets)
    def test_somewhat_verdicts_coincide(self, space, s):
        """A set is somewhat open iff it is somewhat semiopen."""
        assert is_somewhat_open(space, s) == is_somewhat_semiopen(space, s)
