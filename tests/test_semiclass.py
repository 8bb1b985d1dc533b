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
    BackendMismatchError,
    FiniteFuzzySet,
    HierarchyInvariantError,
    PLFuzzySet,
    SetClassification,
    Universe,
    UniverseMismatchError,
    classify_function,
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
    pair_sets, pl, quarter_sets, quarter_spaces, reference_map, small_spaces, t_fin, t_pl,
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

    space = t_fin()
    space.__dict__["_index"] = Broken()
    for classify in (set_verdicts, classify_set):
        with pytest.raises(HierarchyInvariantError):
            classify(space, fs("1/2", 0))


class Disjoint:
    """``Int(s)`` is a fixed non-zero set and ``Cl`` a fixed set that does
    not meet the query: somewhat open, but not somewhat semiopen."""

    def __init__(self, interior, closure):
        self._interior, self._closure = interior, closure

    def interior(self, s):
        return self._interior

    def closure(self, s):
        return self._closure


@pytest.mark.parametrize("space, s, index", [
    (t_fin(), M2, Disjoint(fs(0, "1/3"), fs(0, 1))),
    (t_pl(), pl((0, 1), ("1/2", 0), (1, 0)), Disjoint(MU, MU)),
], ids=["finite", "pl"])
def test_somewhat_semiopen_is_derived_not_inferred(space, s, index):
    """The fourth verdict comes from ``s /\\ Cl(Int(s))``, not from the
    theorem that it equals the third: with ``Int(s) != 0`` and ``Cl(Int(s))``
    disjoint from ``s`` the chain breaks, and every classifier refuses it."""
    space.__dict__["_index"] = index
    for classify in (set_verdicts, classify_set):
        with pytest.raises(HierarchyInvariantError, match="somewhat_open=True, somewhat_semiopen=False"):
            classify(space, s)


def test_a_lift_with_a_disjoint_closure_breaks_the_chain():
    """``classify_function`` classifies the lift {a: 1/2, b: 0} of the
    codomain open {u: 1/2, v: 0} through the same derivation, so it
    refuses the same broken index."""
    f = reference_map()
    f.domain.__dict__["_index"] = Disjoint(fs(0, "1/3"), fs(0, 1))
    with pytest.raises(HierarchyInvariantError, match="somewhat_open=True, somewhat_semiopen=False"):
        classify_function(f)


# Every semiclass entry that takes a space and a set.
ENTRIES = (
    classify_set, set_verdicts, is_semiopen, is_semiclosed,
    semi_interior, semi_closure, is_somewhat_open, is_somewhat_semiopen,
)


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda entry: entry.__name__)
def test_entries_refuse_sets_the_space_cannot_hold(entry):
    """A set of the other backend, or over another universe, raises before
    any verdict; none of the sets is zero or one, which some entries
    answer without an operator."""
    other_universe = FiniteFuzzySet.of(Universe.of("u", "v"), ("1/2", "1/3"))
    refusals = (
        (t_fin(), MU, BackendMismatchError, "expected FiniteFuzzySet, got PLFuzzySet"),
        (t_pl(), fs("1/2", "1/3"), BackendMismatchError, "expected PLFuzzySet, got FiniteFuzzySet"),
        (t_fin(), other_universe, UniverseMismatchError,
         r"universes differ: \('a', 'b'\) vs \('u', 'v'\)"),
    )
    for space, s, error, message in refusals:
        with pytest.raises(error, match=f"^{message}$"):
            entry(space, s)


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
