import dataclasses
import math
import random
from fractions import Fraction

import pytest

import ftop.fset as fset
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
    classify_set,
    generate,
    is_semiopen,
    is_somewhat_open,
    is_somewhat_semiopen,
    semi_interior,
)
from ftop.oracle import (
    SET_CLASSES,
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
    with pytest.raises(BackendMismatchError):
        brute_semi_interior(t_pl(), t_pl().top, GridSpec(1, 2))
    with pytest.raises(BackendMismatchError):
        find_witness(t_pl(), SearchTarget.parse("semiopen-not-open"), GridSpec(1, 2))


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
    # The grid walk would otherwise run over the space's own points.
    target = SearchTarget.parse("somewhat-open-not-open")
    for size in (1, 3):
        spec = GridSpec(size, 6)
        with pytest.raises(ValueError, match=f"universe has 2 points but spec expects {size}"):
            check_space(t_fin(), spec)
        with pytest.raises(ValueError, match=f"universe has 2 points but spec expects {size}"):
            find_witness(t_fin(), target, spec)


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
    def never_holds(e):
        return not any(e.s)

    monkeypatch.setattr(oracle, "SPACE_CHECKS", (("always-false-probe", never_holds),))
    report = check_space(indiscrete(), GridSpec(2, 1))
    assert not report.ok
    assert report.violation.check == "always-false-probe"
    assert report.violation.subject == fs(0, 1)
    assert report.sets_checked == 2


def chain_breaking_on_third_set(monkeypatch):
    """Make the walk's chain check refuse the verdicts of the third grid set."""
    calls = []
    honest = oracle._require_chain

    def broken(verdicts):
        calls.append(verdicts)
        if len(calls) == 3:
            raise HierarchyInvariantError("simulated operator bug")
        honest(verdicts)

    monkeypatch.setattr(oracle, "_require_chain", broken)


def test_check_space_reports_a_chain_refusal(monkeypatch):
    chain_breaking_on_third_set(monkeypatch)
    report = check_space(t_fin(), GridSpec(2, 6))
    assert not report.ok
    assert report.violation.check == "implication-chain"
    assert report.violation.subject == fs(0, "1/3")
    assert report.sets_checked == 3


def test_campaign_lists_a_chain_refusal_with_its_seed(monkeypatch):
    chain_breaking_on_third_set(monkeypatch)
    result = run_campaign(2, 2, 2)
    assert not result.ok
    (failure,) = result.failures
    assert failure.phase == "space-laws" and failure.seed == 0
    assert failure.detail == f"implication-chain fails on {fs(0, 1)!r}"
    assert result.sets_checked == 3 + 9


def recording_classify_set(monkeypatch, breakage=None):
    """Record every set ``oracle.classify_set`` is given; break the second."""
    seen = []
    honest = oracle.classify_set

    def recorded(space, s):
        seen.append(s)
        c = honest(space, s)
        if breakage is None or len(seen) != 2:
            return c
        if breakage == "raise":
            raise HierarchyInvariantError("simulated operator bug")
        # Chain-consistent on a set with a zero interior, so only the
        # comparison with the walk can notice.
        return dataclasses.replace(c, is_somewhat_open=True, is_somewhat_semiopen=True)

    monkeypatch.setattr(oracle, "classify_set", recorded)
    return seen


@pytest.mark.parametrize(
    "space, spec, indices",
    [
        (t_fin(), GridSpec(2, 6), range(0, 49, 7)),
        (random_topology(GridSpec(3, 4), 5, 3), GridSpec(3, 4), range(0, 125, 16)),
        (indiscrete(), GridSpec(2, 1), range(4)),
    ],
)
def test_check_space_classifies_every_ceil_eighth_grid_set(monkeypatch, space, spec, indices):
    seen = recording_classify_set(monkeypatch)
    assert check_space(space, spec).ok
    grid = list(enumerate_grid_sets(spec, space.universe))
    assert seen == [grid[i] for i in indices]
    assert len(seen) <= 8


@pytest.mark.parametrize(
    "breakage, check", [("flip", "classify-set-agrees-with-walk"), ("raise", "implication-chain")]
)
def test_check_space_reports_a_sampled_set_classify_set_gets_wrong(monkeypatch, breakage, check):
    seen = recording_classify_set(monkeypatch, breakage)
    report = check_space(t_fin(), GridSpec(2, 6))
    assert not report.ok
    assert report.violation.check == check
    assert report.violation.subject == seen[1] == fs("1/6", 0)
    assert report.sets_checked == 8
    assert len(seen) == 2


def test_brute_semi_interior_does_not_use_the_walk(monkeypatch):
    def no_walk(index, k):
        raise AssertionError("the grid walk was used")

    monkeypatch.setattr(fset._MemberIndex, "grid_walk", no_walk)
    with pytest.raises(AssertionError, match="grid walk"):
        check_space(t_fin(), GridSpec(2, 6))
    space = t_fin()
    assert brute_semi_interior(space, fs("3/4", "1/4"), GridSpec(2, 12)) == fs("1/2", "1/4")
    for member in space.members:
        assert brute_semi_interior(space, member, GridSpec(2, 6)) == member


def walk_property_spaces(count, seed="walk-property", member_grid=None):
    """Seeded spaces drawn as acceptance criterion 3 draws them.

    Each comes with the spec of the grid to walk.  The members lie on
    that grid, or, given ``member_grid``, on the 1/member_grid grid.
    """
    master = random.Random(seed)
    for _ in range(count):
        spec = GridSpec(master.randint(1, 4), master.randint(1, 4))
        members = spec if member_grid is None else GridSpec(spec.universe_size, member_grid)
        yield spec, random_topology(members, master.randint(0, 10**9), master.randint(0, 4))


def test_walk_matches_the_operators_and_classify_set_on_every_grid_set():
    """On every grid set of 250 spaces, and of 100 spaces with members on
    1/6 walked on grids k <= 4, the walk selects ``Int(s)`` and ``Cl(s)``
    as the operators do, and its verdicts and evidence over ``lcm(k, L)``
    are those of :func:`classify_set`."""
    spaces = [*walk_property_spaces(250), *walk_property_spaces(100, "walk-off-grid", 6)]
    for spec, space in spaces:
        k, index = spec.k, space._index
        scale = math.lcm(k, *[member.scale for member in space.members])
        assert index.grid_scale(k) == scale
        grid = list(enumerate_grid_sets(spec, space.universe))
        walked = list(index.grid_walk(k))
        swept = list(oracle._sweep(space, k))
        assert len(walked) == len(swept) == len(grid) == spec.size
        for s, (nums, inner, outer), (verdicts, e) in zip(grid, walked, swept):
            assert oracle._reduced(space.universe, scale, nums) == s
            assert index._members[inner] == space.interior(s)
            assert index._complements[outer] == space.closure(s)
            c = classify_set(space, s)
            assert verdicts == c.verdicts()
            fields = ("interior", "closure", "closure_of_interior", "semi_interior", "semi_closure")
            assert tuple(e.s) == fset._rescaled(s, scale)
            for field in fields:
                assert tuple(getattr(e, field)) == fset._rescaled(getattr(c, field), scale), field
            assert e.semiopen == c.is_semiopen


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


# find_witness as it stood before it walked the grid: one set object per
# grid set, classified by the standalone predicates.
REFERENCE_CLASSES = {
    "open": lambda space, s: space.is_open(s),
    "semiopen": is_semiopen,
    "somewhat-open": is_somewhat_open,
    "somewhat-semiopen": is_somewhat_semiopen,
}


def reference_find_witness(space, target, spec):
    universe = space._finite_universe("grid enumeration")
    for s in enumerate_grid_sets(spec, universe):
        if REFERENCE_CLASSES[target.have](space, s) and not REFERENCE_CLASSES[target.avoid](space, s):
            return s
    return None


def test_find_witness_matches_the_enumerating_reference():
    """Same witness or the same miss, for all 12 targets, on 150 spaces
    searched on their own grid and 150 with members on 1/6 searched on
    grids k <= 4."""
    targets = [SearchTarget(h, a) for h in SET_CLASSES for a in SET_CLASSES if h != a]
    assert len(targets) == 12
    found = {True: {True: 0, False: 0}, False: {True: 0, False: 0}}
    for seed, member_grid in (("search-on-grid", None), ("search-off-grid", 6)):
        for spec, space in walk_property_spaces(150, seed, member_grid):
            off_grid = any(spec.k % member.scale for member in space.members)
            for target in targets:
                expected = reference_find_witness(space, target, spec)
                assert find_witness(space, target, spec) == expected, (space.members, spec, target)
                found[off_grid][expected is not None] += 1
    # Hits and misses, each on and off the grid.
    assert all(count for by_hit in found.values() for count in by_hit.values()), found


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
