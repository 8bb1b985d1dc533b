import random
from fractions import Fraction

import pytest

import ftop.oracle as oracle
from ftop import (
    BackendMismatchError,
    FiniteFuzzySet,
    FtopError,
    HierarchyInvariantError,
    OffGridError,
    ResourceCapError,
    Universe,
    check_axioms,
    generate,
    semi_interior,
)
from ftop.oracle import (
    GridSpec,
    SearchTarget,
    brute_semi_interior,
    check_space,
    enumerate_grid_sets,
    find_witness,
    grid_degrees,
    random_topology,
    run_campaign,
)

from helpers import AB, M2, ONE2, ZERO2, fs, t_fin, t_pl


def indiscrete():
    return generate([], universe=AB)


def test_grid_degrees():
    assert grid_degrees(2) == (0, Fraction(1, 2), 1)
    assert grid_degrees(1) == (0, 1)
    with pytest.raises(ValueError):
        grid_degrees(0)


def test_grid_spec_counts():
    assert GridSpec(1, 1).size == 2
    assert GridSpec(2, 2).size == 9
    assert GridSpec(3, 4).size == 125


def test_pl_spaces_are_rejected():
    with pytest.raises(FtopError) as err:
        check_space(t_pl(), GridSpec(2, 2))
    assert isinstance(err.value, BackendMismatchError)


def test_grid_spec_budget_guard():
    with pytest.raises(ResourceCapError):
        GridSpec(8, 9, budget=1000)
    GridSpec(2, 2, budget=9)


def test_enumeration_is_lexicographic_and_complete():
    sets = list(enumerate_grid_sets(GridSpec(2, 2), AB))
    assert len(sets) == 9
    assert len(set(sets)) == 9
    assert sets[0] == ZERO2
    assert sets[1] == fs(0, "1/2")
    assert sets[2] == fs(0, 1)
    assert sets[3] == fs("1/2", 0)
    assert sets[-1] == ONE2


def test_enumerated_sets_pass_the_public_constructor():
    for spec in (GridSpec(1, 1), GridSpec(2, 6), GridSpec(3, 4), GridSpec(4, 2)):
        for g in enumerate_grid_sets(spec):
            rebuilt = FiniteFuzzySet(g.universe, g.degrees)
            assert rebuilt == g and hash(rebuilt) == hash(g)


def test_enumeration_universe_must_match_spec():
    with pytest.raises(ValueError):
        list(enumerate_grid_sets(GridSpec(3, 2), AB))


def test_brute_semi_interior_fixed_points():
    space = t_fin()
    spec = GridSpec(2, 6)
    assert brute_semi_interior(space, ZERO2, spec) == ZERO2
    for member in space.members:
        assert brute_semi_interior(space, member, spec) == member


def test_brute_semi_interior_matches_closed_form_reference():
    space = t_fin()
    s = fs("3/4", "1/4")
    spec = GridSpec(2, 12)
    brute = brute_semi_interior(space, s, spec)
    assert brute == fs("1/2", "1/4")
    assert brute == semi_interior(space, s)


def test_brute_semi_interior_rejects_off_grid_data():
    space = t_fin()
    with pytest.raises(OffGridError) as err:
        brute_semi_interior(space, fs("3/4", "1/4"), GridSpec(2, 2))
    assert err.value.required_k == 12


def test_random_topology_is_deterministic_and_valid():
    spec = GridSpec(3, 3)
    first = random_topology(spec, seed=7, subbasis_size=3)
    second = random_topology(spec, seed=7, subbasis_size=3)
    assert first.members == second.members
    assert check_axioms(first.members) == []
    assert random_topology(spec, seed=7, subbasis_size=0).members == (
        first.bottom,
        first.top,
    )
    assert random_topology(spec, seed=8, subbasis_size=3).members != first.members


def test_random_grid_sets_match_a_choice_over_the_fraction_grid():
    """Seeds keep their spaces: each integer draw gives the set that
    ``choice`` over ``grid_degrees(k)`` gives from the same generator."""
    for k in (1, 2, 5):
        universe = GridSpec(3, k).universe()
        for seed in range(10):
            ours, reference = random.Random(seed), random.Random(seed)
            for _ in range(4):
                degrees = tuple(reference.choice(grid_degrees(k)) for _ in universe)
                assert oracle._random_grid_set(ours, universe, k) == FiniteFuzzySet(universe, degrees)


def test_check_space_passes_on_reference_spaces():
    report = check_space(indiscrete(), GridSpec(2, 3))
    assert report.ok and report.sets_checked == 16 and report.violation is None
    report = check_space(t_fin(), GridSpec(2, 6))
    assert report.ok and report.sets_checked == 49


def test_check_space_requires_topology_on_grid():
    with pytest.raises(OffGridError) as err:
        check_space(t_fin(), GridSpec(2, 2))
    assert err.value.required_k == 6


def test_check_space_reports_first_violation(monkeypatch):
    def never_holds(space, s, c):
        return s.is_zero()

    monkeypatch.setattr(oracle, "SPACE_CHECKS", (("always-false-probe", never_holds),))
    report = check_space(indiscrete(), GridSpec(2, 1))
    assert not report.ok
    assert report.violation.check == "always-false-probe"
    assert report.violation.subject == fs(0, 1)
    assert report.sets_checked == 2


def chain_breaking_on_third_call(monkeypatch):
    """Make ``oracle.classify_set`` refuse the third set it is given."""
    seen = []
    honest = oracle.classify_set

    def broken(space, s):
        seen.append(s)
        if len(seen) == 3:
            raise HierarchyInvariantError("simulated operator bug")
        return honest(space, s)

    monkeypatch.setattr(oracle, "classify_set", broken)
    return seen


def test_check_space_reports_a_chain_refusal(monkeypatch):
    seen = chain_breaking_on_third_call(monkeypatch)
    report = check_space(t_fin(), GridSpec(2, 6))
    assert not report.ok
    assert report.violation.check == "implication-chain"
    assert report.violation.subject == seen[2] == fs(0, "1/3")
    assert report.sets_checked == 3


def test_campaign_lists_a_chain_refusal_with_its_seed(monkeypatch):
    seen = chain_breaking_on_third_call(monkeypatch)
    result = run_campaign(2, 2, 2)
    assert not result.ok
    (failure,) = result.failures
    assert failure.phase == "space-laws" and failure.seed == 0
    assert failure.detail == f"implication-chain fails on {seen[2]!r}"
    assert result.sets_checked == 3 + 9


def test_search_target_parsing():
    target = SearchTarget.parse("semiopen-not-open")
    assert (target.have, target.avoid) == ("semiopen", "open")
    assert str(target) == "semiopen-not-open"
    assert SearchTarget.parse("somewhat_open-not-semiopen").have == "somewhat-open"
    assert SearchTarget.parse("SOMEWHAT-SEMIOPEN-NOT-OPEN").have == "somewhat-semiopen"
    with pytest.raises(ValueError):
        SearchTarget.parse("open")
    with pytest.raises(ValueError):
        SearchTarget.parse("frob-not-open")
    with pytest.raises(ValueError):
        SearchTarget.parse("open-not-open")


def test_find_witness_reference_values():
    space = t_fin()
    semiopen_gap = find_witness(space, SearchTarget.parse("semiopen-not-open"), GridSpec(2, 2))
    assert semiopen_gap == fs(0, "1/2")
    somewhat_gap = find_witness(
        space, SearchTarget.parse("somewhat-open-not-semiopen"), GridSpec(2, 4)
    )
    assert somewhat_gap == fs(0, "3/4")


def test_find_witness_not_found_in_indiscrete_space():
    target = SearchTarget.parse("semiopen-not-open")
    assert find_witness(indiscrete(), target, GridSpec(2, 4)) is None


def test_witnesses_match_their_targets():
    space = t_fin()
    for text, k in [
        ("semiopen-not-open", 2),
        ("somewhat-open-not-semiopen", 4),
        ("somewhat-open-not-open", 2),
    ]:
        target = SearchTarget.parse(text)
        witness = find_witness(space, target, GridSpec(2, k))
        assert witness is not None
        assert target.matches(space, witness)


def test_campaign_is_deterministic_and_counts_evidence():
    first = run_campaign(8, 2, 2)
    second = run_campaign(8, 2, 2)
    assert first == second
    assert first.ok
    assert first.spaces_checked == 8
    assert first.sets_checked == 8 * 9
    assert first.functions_checked == 8
    assert 0 < first.agreements_checked <= 8
    data = first.as_dict()
    assert data["ok"] is True and data["failures"] == []
    with pytest.raises(ValueError, match="seeds must be >= 1, got -2"):
        run_campaign(-2, 2, 2)
