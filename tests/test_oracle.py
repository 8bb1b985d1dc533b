import dataclasses
import math
import random
import tracemalloc
from fractions import Fraction
from itertools import product
from operator import le

import pytest

import ftop.functions as functions
import ftop.gridbits as gridbits
import ftop.oracle as oracle
from ftop import (
    BackendMismatchError,
    FiniteFuzzySet,
    FtopError,
    FuzzyTopology,
    HierarchyInvariantError,
    OffGridError,
    PLFuzzySet,
    ResourceCapError,
    Universe,
    UniverseMismatchError,
    check_axioms,
    classify_set,
    generate,
    semi_interior,
)
from ftop.oracle import (
    SET_CLASSES,
    GridSpec,
    SearchTarget,
    SpaceCheckReport,
    SpaceCheckViolation,
    brute_semi_interior,
    check_space,
    enumerate_grid_sets,
    find_witness,
    random_topology,
    run_campaign,
)

import reference
from helpers import AB, M1, M2, ONE2, ZERO2, fs, grid, literal_space, t_fin, t_pl


def indiscrete():
    return generate([], universe=AB)


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
    for args, message in [
        ((0, 2), "universe_size must be >= 1, got 0"),
        ((2, 0), "grid denominator must be >= 1, got 0"),
        ((2, 2, 0), "budget must be >= 1, got 0"),
    ]:
        with pytest.raises(ValueError, match=message):
            GridSpec(*args)
    # Grid universes are labelled a to z: a 27-point spec is a sound count
    # of sets, but has no universe.
    assert GridSpec(26, 1, budget=2**26).universe().labels[-1] == "z"
    with pytest.raises(ValueError, match="a grid universe has at most 26 points, got 27"):
        GridSpec(27, 1, budget=2**27).universe()


def test_enumeration_is_lexicographic_and_complete():
    sets = list(enumerate_grid_sets(GridSpec(2, 2), AB))
    assert len(sets) == 9
    assert len(set(sets)) == 9
    assert sets[0] == ZERO2
    assert sets[1] == fs(0, "1/2")
    assert sets[2] == fs(0, 1)
    assert sets[3] == fs("1/2", 0)
    assert sets[-1] == ONE2


@pytest.mark.parametrize("s", [ZERO2, ONE2, fs("1/2", "2/3"), fs("3/4", "1/4"), fs(1, "1/5")])
def test_enumeration_below_a_set_keeps_the_grid_sets_below_it_in_order(s):
    spec = GridSpec(2, 6)
    expected = [g for g in enumerate_grid_sets(spec, AB) if g.leq(s)]
    assert list(enumerate_grid_sets(spec, AB, below=s)) == expected
    other = FiniteFuzzySet.of(Universe.of("x", "y"), ("1/2", 0))
    with pytest.raises(UniverseMismatchError, match=r"^universes differ: \('a', 'b'\) vs \('x', 'y'\)$"):
        list(enumerate_grid_sets(spec, AB, below=other))


def test_enumerated_sets_pass_the_public_constructor():
    for spec in (GridSpec(1, 1), GridSpec(2, 6), GridSpec(3, 4), GridSpec(4, 2)):
        for g in enumerate_grid_sets(spec):
            rebuilt = FiniteFuzzySet(g.universe, g.degrees)
            assert rebuilt == g and hash(rebuilt) == hash(g)


def test_enumeration_universe_must_match_spec():
    with pytest.raises(ValueError):
        list(enumerate_grid_sets(GridSpec(3, 2), AB))
    # ``below`` passes the check every finite set operation applies.
    with pytest.raises(BackendMismatchError, match="expected FiniteFuzzySet, got PLFuzzySet"):
        list(enumerate_grid_sets(GridSpec(2, 2), below=PLFuzzySet.zero()))
    # The grid walk would otherwise run over the space's own points.
    target = SearchTarget.parse("somewhat-open-not-open")
    for size in (1, 3):
        spec = GridSpec(size, 6)
        with pytest.raises(ValueError, match=f"universe has 2 points but spec expects {size}"):
            check_space(t_fin(), spec)
        with pytest.raises(ValueError, match=f"universe has 2 points but spec expects {size}"):
            find_witness(t_fin(), target, spec)
        with pytest.raises(ValueError, match=f"universe has 2 points but spec expects {size}"):
            brute_semi_interior(t_fin(), ZERO2, spec)


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


def test_brute_semi_interior_rejects_a_set_on_another_universe():
    other = FiniteFuzzySet.of(Universe.of("x", "y"), ("1/2", 0))
    with pytest.raises(UniverseMismatchError):
        brute_semi_interior(t_fin(), other, GridSpec(2, 6))


@pytest.mark.parametrize(
    "s, k",
    [(fs("3/4", "1/4"), 12), (ZERO2, 6), (ONE2, 6), (fs("1/2", "2/3"), 6), (fs(1, 0), 6)],
)
def test_brute_semi_interior_tests_every_grid_set_below_its_argument(monkeypatch, s, k):
    """One semiopen test per grid set below ``s``: prod(s(x) * k + 1)."""
    tested = []
    honest = oracle.is_semiopen

    def counted(space, g):
        assert g.leq(s)
        tested.append(g)
        return honest(space, g)

    monkeypatch.setattr(oracle, "is_semiopen", counted)
    space = t_fin()
    assert brute_semi_interior(space, s, GridSpec(2, k)) == semi_interior(space, s)
    assert len(tested) == len(set(tested)) == math.prod(d * k + 1 for d in s.degrees)


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
    ``choice`` over ``grid(k)`` gives from the same generator."""
    for k in (1, 2, 5):
        universe = GridSpec(3, k).universe()
        for seed in range(10):
            ours, reference = random.Random(seed), random.Random(seed)
            for _ in range(4):
                degrees = tuple(reference.choice(grid(k)) for _ in universe)
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


class TopDigitZeroed(gridbits.GridBits):
    """GridBits whose top member has first digit 0, its box rebuilt to match.

    The top member is then selected as ``Int(s)``, and its complement as
    ``Cl(s)``, on grid sets it does not lie below, or above.
    """

    def __init__(self, space, k):
        super().__init__(space, k)
        j, _, rank, key, nonzero = self.members[0]
        self.lows[j] = low = (0, *self.lows[j][1:])
        self.members[0] = (j, self.box(low, [k] * len(low)), rank, key, nonzero)


def test_check_space_reports_first_violation(monkeypatch):
    """A wrong digit in the bitsets is found at the first rank where the
    member holding it is ``Int(s)``: its digits differ from its numerators
    over k, so it fails the member half of the first law.  The top member
    with first digit 0 is ``Int(s)`` first on (0, 1, .., 1), which it does
    not lie below: rank 1 of ``indiscrete()`` on GridSpec(2, 1), rank 6 of
    ``t_fin`` on GridSpec(2, 6), and rank 7775 on 36 blocks behind two
    head points, the last rank of block 5."""
    monkeypatch.setattr(oracle, "GridBits", TopDigitZeroed)
    six = GridSpec(6, 5)
    cases = [
        (indiscrete(), GridSpec(2, 1), "interior-below-semi-interior", fs(0, 1), 2),
        (t_fin(), GridSpec(2, 6), "interior-below-semi-interior", fs(0, 1), 7),
        (
            random_topology(six, 34, 4),
            six,
            "interior-below-semi-interior",
            FiniteFuzzySet.of(six.universe(), (0, 1, 1, 1, 1, 1)),
            7776,
        ),
    ]
    for space, spec, check, subject, sets_checked in cases:
        report = check_space(space, spec)
        assert report == SpaceCheckReport(False, sets_checked, SpaceCheckViolation(check, subject))


def test_campaign_fails_on_every_seed_under_a_wrong_member_digit(monkeypatch):
    monkeypatch.setattr(oracle, "GridBits", TopDigitZeroed)
    result = run_campaign(20, 3, 3)
    assert [failure.seed for failure in result.failures] == list(range(20))
    for failure in result.failures:
        assert failure.phase == "space-laws"
        assert failure.detail.startswith("interior-below-semi-interior fails on ")


def chain_breaking_on_third_set(monkeypatch):
    """Make the first chain check of check_space refuse the third grid set's verdicts."""
    calls = []
    honest = oracle._chain_breaks

    def broken(*verdicts):
        calls.append(verdicts)
        return honest(*verdicts) | (1 << 2 if len(calls) == 1 else 0)

    monkeypatch.setattr(oracle, "_chain_breaks", broken)


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


# classify_set mutants whose evidence obeys every law of the check: only a
# comparison of its values with the walk's can notice them.
LAWFUL_MUTANTS = {
    "semi-closure-joins-closure": lambda space, s, c: dataclasses.replace(
        c, semi_closure=s.join(c.closure)
    ),
    "zero-interior": lambda space, s, c: dataclasses.replace(c, interior=space.bottom),
}


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
        if breakage in LAWFUL_MUTANTS:
            return LAWFUL_MUTANTS[breakage](space, s, c)
        if breakage == "semi-closure-off-the-grid":
            # On t_fin the second set is fs(1/6, 0), whose semi-closure
            # (1/2, 1/3) has numerators (3, 2) over the grid scale 6.  So
            # has (3/5, 2/5), off that grid, if multiplied by 6 // 5.
            return dataclasses.replace(c, semi_closure=fs("3/5", "2/5"))
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
    "breakage, check",
    [
        ("flip", "classify-set-agrees-with-walk"),
        ("raise", "implication-chain"),
        ("semi-closure-joins-closure", "classify-set-agrees-with-walk"),
        ("semi-closure-off-the-grid", "classify-set-agrees-with-walk"),
    ],
)
def test_check_space_reports_a_sampled_set_classify_set_gets_wrong(monkeypatch, breakage, check):
    seen = recording_classify_set(monkeypatch, breakage)
    report = check_space(t_fin(), GridSpec(2, 6))
    assert not report.ok
    assert report.violation.check == check
    assert report.violation.subject == seen[1] == fs("1/6", 0)
    assert report.sets_checked == 8
    assert len(seen) == 2


def mutate_classify_set(monkeypatch, mutant):
    """Make every ``oracle.classify_set`` call return the mutant's values."""
    honest, mutated = oracle.classify_set, LAWFUL_MUTANTS[mutant]

    def classify_set(space, s):
        return mutated(space, s, honest(space, s))

    monkeypatch.setattr(oracle, "classify_set", classify_set)


def test_check_space_reports_a_zero_interior_from_classify_set(monkeypatch):
    """A zero ``Int(s)`` from every classify_set call obeys the laws, but
    differs from the walk's on the first sampled set with a non-zero
    interior: rank 21 of 49, after ranks 0, 7 and 14."""
    mutate_classify_set(monkeypatch, "zero-interior")
    report = check_space(t_fin(), GridSpec(2, 6))
    assert report == SpaceCheckReport(
        False, 22, SpaceCheckViolation("classify-set-agrees-with-walk", fs("1/2", 0))
    )


@pytest.mark.parametrize(
    "mutant, failures", [("semi-closure-joins-closure", 14), ("zero-interior", 8)]
)
def test_campaign_fails_under_a_lawful_but_wrong_classify_set(monkeypatch, mutant, failures):
    mutate_classify_set(monkeypatch, mutant)
    result = run_campaign(20, 3, 3)
    assert not result.ok
    assert len(result.failures) == failures
    for failure in result.failures:
        assert failure.phase == "space-laws"
        assert failure.detail.startswith("classify-set-agrees-with-walk fails on ")


def test_campaign_compares_every_seed_even_off_the_grid(monkeypatch):
    """A closed form scaled by 3/4 leaves the 1/3 grid wherever it is not
    zero.  Every seed still compares it with the brute force, and the run
    names exactly the seeds whose semi-interior is not zero."""
    honest, nonzero = oracle.semi_interior, []

    def three_quarters(space, s):
        value = honest(space, s)
        nonzero.append(not value.is_zero())
        if value.is_zero():
            return value
        return FiniteFuzzySet(value.universe, [d * Fraction(3, 4) for d in value.degrees])

    monkeypatch.setattr(oracle, "semi_interior", three_quarters)
    result = run_campaign(20, 3, 3)
    assert not result.ok and result.agreements_checked == 20
    seeds = [failure.seed for failure in result.failures]
    assert seeds == [seed for seed, hit in enumerate(nonzero) if hit]
    assert seeds == [1, 3, 6, 7, 8, 9, 11, 12, 15, 16]
    for failure in result.failures:
        assert failure.phase == "semi-interior-agreement"
        assert failure.detail.startswith("closed form ") and " != brute force " in failure.detail


def test_campaign_lists_a_function_law_refusal_with_its_seed(monkeypatch):
    """Lifted-set verdicts that break the chain make
    ``FunctionClassification`` refuse every map: one ``function-laws``
    failure per seed, and nothing else fails."""
    monkeypatch.setattr(functions, "_set_verdicts", lambda space, s: (False, True, False, True))
    result = run_campaign(3, 2, 2)
    assert [(failure.phase, failure.seed) for failure in result.failures] == [
        ("function-laws", seed) for seed in range(3)
    ]
    assert result.functions_checked == 3
    for failure in result.failures:
        assert failure.detail == (
            "impossible verdict combination: fuzzy_continuous=False, "
            "fuzzy_semicontinuous=True, somewhat_fuzzy_continuous=False, "
            "somewhat_fuzzy_semicontinuous=True"
        )


def test_space_checks_name_the_laws_once():
    assert oracle.SPACE_CHECKS == (
        "interior-below-semi-interior",
        "semi-closure-below-closure",
        "semiopen-iff-closures-agree",
    )


def test_brute_semi_interior_does_not_use_the_walk(monkeypatch):
    def no_walk(space, k):
        raise AssertionError("the grid walk was used")

    monkeypatch.setattr(oracle, "GridBits", no_walk)
    with pytest.raises(AssertionError, match="grid walk"):
        check_space(t_fin(), GridSpec(2, 6))
    space = t_fin()
    assert brute_semi_interior(space, fs("3/4", "1/4"), GridSpec(2, 12)) == fs("1/2", "1/4")
    for member in space.members:
        assert brute_semi_interior(space, member, GridSpec(2, 6)) == member


# The literal reference check_space and find_witness are held to, stated on
# sets.  Each grid set s is taken in enumerate_grid_sets order.  Int(s) and
# Cl(s) are ``reference.interior`` and ``reference.closure``, from the
# members alone.  Cl(Int(s)) and Int(Cl(s)) go through the space's own
# operators, where check_space's tables take them too, so a corrupted
# closure or interior lands on the grid sets where those tables see it.

ALL_TARGETS = [SearchTarget(h, a) for h in SET_CLASSES for a in SET_CLASSES if h != a]


def literal_verdicts(space, s, interior, closure_of_interior):
    """The four verdicts of ``s``, strongest first, by their definitions on
    ``Int(s)`` and ``Cl(Int(s))``, and the semi-interior ``s /\\ Cl(Int(s))``."""
    inner, zero = s.meet(closure_of_interior), space.bottom
    verdicts = (
        interior == s,
        s.leq(closure_of_interior),
        s == zero or interior != zero,
        s == zero or inner != zero,
    )
    return verdicts, inner


def literal_grid(space, spec):
    """Each grid set in rank order with the nine values :func:`classify_set`
    must give for it: its four verdicts, then ``Int(s)``, ``Cl(s)``,
    ``Cl(Int(s))``, the semi-interior and the semi-closure."""
    stated, universe = literal_space(space), space.universe
    sets = enumerate_grid_sets(spec, universe)
    values = []
    for s, degrees in zip(sets, product(grid(spec.k), repeat=len(universe)), strict=True):
        interior = FiniteFuzzySet(universe, reference.interior(stated, degrees))
        closure_of_interior = space.closure(interior)
        verdicts, inner = literal_verdicts(space, s, interior, closure_of_interior)
        closure = FiniteFuzzySet(universe, reference.closure(stated, degrees))
        outer = s.join(space.interior(closure))
        values.append((s, (*verdicts, interior, closure, closure_of_interior, inner, outer)))
    return values


def classified(space, s):
    """The nine values of ``oracle.classify_set(space, s)``, in :func:`literal_grid` order."""
    c = oracle.classify_set(space, s)
    evidence = (c.interior, c.closure, c.closure_of_interior, c.semi_interior, c.semi_closure)
    return (*c.verdicts().values(), *evidence)


def literal_check_space(space, spec, grid_values=None):
    """:func:`check_space`'s report, stated on sets.

    Each grid set in rank order is held to the implication chain, then to
    the three laws of ``SPACE_CHECKS`` in full, and every ``ceil(size /
    8)``-th, the first included, must get all nine values from
    ``oracle.classify_set``.  The first failure wins.  ``grid_values`` is
    the :func:`literal_grid` of the space, if it is at hand.
    """
    step = -(-spec.size // 8)
    grid_values = literal_grid(space, spec) if grid_values is None else grid_values
    for rank, (s, values) in enumerate(grid_values):
        interior, closure, closure_of_interior, inner, outer = values[4:]
        holds = (
            not oracle._chain_breaks(*values[:4]),
            interior.leq(inner),
            outer.leq(closure),
            s == space.bottom or values[1] == (closure == closure_of_interior),
        )
        laws = zip(("implication-chain", *oracle.SPACE_CHECKS), holds)
        failed = next((name for name, held in laws if not held), None)
        if failed is None and rank % step == 0:
            try:
                if classified(space, s) != values:
                    failed = "classify-set-agrees-with-walk"
            except HierarchyInvariantError:
                failed = "implication-chain"
        if failed is not None:
            return SpaceCheckReport(False, rank + 1, SpaceCheckViolation(failed, s))
    return SpaceCheckReport(True, spec.size)


def literal_verdict_grid(space, spec):
    """Each grid set in rank order with its four verdicts, as
    :func:`literal_grid` gives them, from ``Int(s)`` alone."""
    stated, universe = literal_space(space), space.universe
    sets = enumerate_grid_sets(spec, universe)
    for s, degrees in zip(sets, product(grid(spec.k), repeat=len(universe)), strict=True):
        interior = FiniteFuzzySet(universe, reference.interior(stated, degrees))
        yield s, literal_verdicts(space, s, interior, space.closure(interior))[0]


def literal_witnesses(grid_values):
    """The first grid set of each of the 12 targets, or None, in one pass
    over a :func:`literal_grid` or :func:`literal_verdict_grid`: the first
    set with each combination of verdicts answers every target that
    combination meets."""
    found, seen = dict.fromkeys(ALL_TARGETS), set()
    for s, values in grid_values:
        verdicts = values[:4]
        if verdicts in seen:
            continue
        seen.add(verdicts)
        held = dict(zip(SET_CLASSES, verdicts))
        for target in ALL_TARGETS:
            if found[target] is None and held[target.have] and not held[target.avoid]:
                found[target] = s
    return found


def set_bits(bits):
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def bitset_walk(space, k):
    """Per grid set in rank order: its four verdicts as the bitsets of its
    block hold them, and the member bits selected as ``Int(s)`` and as
    ``Cl(s)`` there."""
    walk = gridbits.GridBits(space, k)
    walked = []
    for base, prefix in walk.blocks():
        *verdicts, interiors = walk.verdicts(base, prefix)
        block = [(tuple([bool(v >> r & 1) for v in verdicts]), [], []) for r in range(walk.size)]
        for side, selected in ((1, interiors), (2, walk.closures(prefix).items())):
            for j, ranks in selected:
                for r in set_bits(ranks):
                    block[r][side].append(j)
        walked.extend(block)
    return walked


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


def all_walk_property_spaces():
    """The 250 on-grid and 100 off-grid spaces the walk is held to."""
    return [*walk_property_spaces(250), *walk_property_spaces(100, "walk-off-grid", 6)]


def test_walk_matches_the_operators_and_classify_set_on_every_grid_set():
    """On every grid set of 250 spaces, and of 100 spaces with members on
    1/6 walked on grids k <= 4, :func:`classify_set` gives the literal
    reference's nine values, and the bitsets its verdicts and the member
    bits of its ``Int(s)`` and of the complement ``Cl(s)``.  The check
    and the search are held to the same literal grid of each space here,
    so that it is computed once."""
    for spec, space in all_walk_property_spaces():
        bit = {m: j for j, m in enumerate(space.members)}
        grid_values = literal_grid(space, spec)
        expected = []
        for s, values in grid_values:
            assert classified(space, s) == values
            expected.append((values[:4], [bit[values[4]]], [bit[values[5].complement()]]))
        assert bitset_walk(space, spec.k) == expected
        assert_check_and_search_match(space, spec, grid_values)


# 76 members over 46,656 grid sets: 36 blocks of 1296 ranks, two head points.
LARGE_SPEC = GridSpec(6, 5)


def large_space():
    return random_topology(LARGE_SPEC, 34, 4)


def test_bitsets_match_the_walk_with_two_head_points():
    """At every rank the bitsets select the member bits of
    ``space.interior(s)`` and of the complement ``space.closure(s)``, and
    give the verdicts :func:`literal_verdicts` gives on that ``Int(s)``."""
    space = large_space()
    assert len(space.members) == 76 and gridbits.GridBits(space, 5).head == 2
    bit = {m: j for j, m in enumerate(space.members)}
    closures = {m: space.closure(m) for m in space.members}
    expected = []
    for s in enumerate_grid_sets(LARGE_SPEC, space.universe):
        interior = space.interior(s)
        verdicts, _ = literal_verdicts(space, s, interior, closures[interior])
        expected.append((verdicts, [bit[interior]], [bit[space.closure(s).complement()]]))
    assert bitset_walk(space, 5) == expected


# One point, members 0, 1/7, 3/7, 5/7 and 1: a single block of 8191 ranks.
CHAIN_SPEC = GridSpec(1, 8190)


def chain_space():
    universe = CHAIN_SPEC.universe()
    subbasis = [FiniteFuzzySet.of(universe, [d]) for d in ("1/7", "3/7", "5/7")]
    return generate(subbasis, universe=universe)


def random_bounds(rng, n, k):
    """Bounds ``low <= high`` pointwise, each point drawn at random or at
    an edge: ``lo = 0``, ``hi = k``, or a single digit."""
    low, high = [], []
    for _ in range(n):
        lo, hi = sorted(rng.choices(range(k + 1), k=2))
        edge = rng.randrange(4)
        low.append(0 if edge == 0 else lo)
        high.append(k if edge == 1 else lo if edge == 2 else hi)
    return low, high


@pytest.mark.parametrize(
    "spec, head",
    [(GridSpec(3, 4), 0), (CHAIN_SPEC, 0), (GridSpec(5, 5), 1), (GridSpec(2, 70), 1)],
    ids=["single-block", "one-point-8191", "head-5x5", "head-2x70"],
)
def test_box_holds_the_ranks_whose_digits_lie_between_the_bounds(spec, head):
    """In every block, :meth:`GridBits.box` with :func:`_admitted` holds
    exactly the ranks whose digits, ``rank // place % (k + 1)``, lie
    between the bounds: one single block, the 8191-rank one-point block,
    and blocks behind a head prefix."""
    n, k, rng = spec.universe_size, spec.k, random.Random(str(spec))
    grid = gridbits.GridBits(random_topology(spec, 7, 2), k)
    assert (grid.head, grid.size * (k + 1) ** head) == (head, spec.size)
    places = [(k + 1) ** (n - 1 - i) for i in range(n)]
    bounds = [([0] * n, [k] * n), ([k] * n, [k] * n), ([0] * n, [0] * n)]
    bounds += [random_bounds(rng, n, k) for _ in range(12)]
    for low, high in bounds:
        box = grid.box(low, high)
        for base, prefix in grid.blocks():
            expected = 0
            for r in range(grid.size):
                digits = [(base + r) // place % (k + 1) for place in places]
                if all(map(le, low, digits)) and all(map(le, digits, high)):
                    expected |= 1 << r
            assert gridbits._admitted(box, prefix) == expected, (low, high, prefix)


def check_passes(space, spec):
    return check_space(space, spec).ok


def search_misses(space, spec):
    return find_witness(space, SearchTarget("open", "semiopen"), spec) is None


@pytest.mark.parametrize(
    "make, spec, run",
    [
        (large_space, LARGE_SPEC, check_passes),
        (large_space, LARGE_SPEC, search_misses),
        (chain_space, CHAIN_SPEC, check_passes),
        (chain_space, CHAIN_SPEC, search_misses),
    ],
    ids=[
        "check_space",
        "find_witness-miss",
        "check_space-one-point",
        "find_witness-miss-one-point",
    ],
)
def test_walk_memory_stays_bounded(make, spec, run):
    """A block bounds what the check and the search hold at once: under
    1 MB for 76 members over 46,656 grid sets, blocks of 1296 ranks, and
    for one point with 8191 grid values, a single block that large."""
    space = make()
    space.closure(space.bottom)  # the index is built before tracing starts
    tracemalloc.start()
    try:
        assert run(space, spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def multi_block_spaces():
    """Spaces whose grids span several blocks of ranks: 4 on
    ``GridSpec(5, 5)`` (6 blocks of 1296), and 10 with members on 1/6
    searched on ``GridSpec(2, 70)`` (71 blocks of 71), mostly off its grid."""
    master = random.Random("multi-block")
    families = ((GridSpec(5, 5), GridSpec(5, 5), 4), (GridSpec(2, 70), GridSpec(2, 6), 10))
    for spec, members, count in families:
        for _ in range(count):
            yield spec, random_topology(members, master.randint(0, 10**9), master.randint(1, 4))


def assert_check_and_search_match(space, spec, grid_values=None):
    """Equal reports, or an OffGridError naming the lcm of the member
    scales, and equal witnesses or misses for all 12 targets.
    ``grid_values`` is the :func:`literal_grid` of the space, if at hand."""
    if any(spec.k % member.scale for member in space.members):
        with pytest.raises(OffGridError) as err:
            check_space(space, spec)
        assert err.value.required_k == math.lcm(*[member.scale for member in space.members])
    else:
        grid_values = grid_values or literal_grid(space, spec)
        assert check_space(space, spec) == literal_check_space(space, spec, grid_values)
    witnesses = literal_witnesses(grid_values or literal_verdict_grid(space, spec))
    for target in ALL_TARGETS:
        assert find_witness(space, target, spec) == witnesses[target], (space.members, spec, target)


def test_check_and_search_match_the_literal_reference():
    """:func:`assert_check_and_search_match` on the 14 multi-block spaces;
    the walk test holds the 350 walk property spaces to it."""
    assert len(ALL_TARGETS) == 12
    for spec, space in multi_block_spaces():
        assert_check_and_search_match(space, spec)


class CorruptedIndex:
    """A space's member index with one closure or interior value replaced by ``value``."""

    def __init__(self, space, operator, argument, value):
        self.honest = space.members[0]._index_type(space.members)
        self.corruption = (operator, argument, value)

    def _corrupt(self, operator, s, honest):
        wrapped, argument, value = self.corruption
        return value if (operator, s) == (wrapped, argument) else honest

    def closure(self, s):
        return self._corrupt("closure", s, self.honest.closure(s))

    def interior(self, s):
        return self._corrupt("interior", s, self.honest.interior(s))


class CorruptedSpace(FuzzyTopology):
    """``t_fin`` with one closure or interior value of its index corrupted.

    The public operators, ``classify_set`` and the bitsets all read the
    index, so each of them sees the corruption.
    """

    def __init__(self, operator, argument, value):
        super().__init__(t_fin().members)
        object.__setattr__(self, "_index", CorruptedIndex(self, operator, argument, value))


# Each corruption spoils one member's Cl(m) or one complement's Int(1 - m)
# table entry, so that check_space's split laws find it on a grid set of
# GridSpec(2, 6) the sample does not reach (sets 1..6 of 49, step 7).
# Cl(M1) below M1 breaks the chain at M1 itself, which hides the member
# half m <= Cl(m) of the first law; with the chain check switched off on
# both sides, that half is what reports it.
CORRUPTIONS = {
    "implication-chain": (("closure", M1, ZERO2), M1, 3, True),
    "interior-below-semi-interior": (("closure", M1, ZERO2), M1, 3, False),
    "semi-closure-below-closure": (("interior", fs("1/2", "2/3"), ONE2), fs(0, "1/6"), 2, True),
    "semiopen-iff-closures-agree": (("closure", M1, ONE2), M1, 3, True),
}


@pytest.mark.parametrize("check", CORRUPTIONS)
def test_check_space_matches_the_literal_reference_on_corrupted_tables(monkeypatch, check):
    corruption, subject, sets_checked, chain_checked = CORRUPTIONS[check]
    if not chain_checked:
        monkeypatch.setattr(oracle, "_chain_breaks", lambda *verdicts: 0)
    space = CorruptedSpace(*corruption)
    spec = GridSpec(2, 6)
    report = check_space(space, spec)
    assert report == literal_check_space(space, spec)
    assert not report.ok
    assert report.violation == SpaceCheckViolation(check, subject)
    assert report.sets_checked == sets_checked
    assert (sets_checked - 1) % 7 != 0


def test_check_space_reports_a_corrupted_closure_of_the_zero_set():
    """``Cl(0)`` corrupted to M1 is ``Cl(Int(s))`` wherever ``Int(s)`` is
    zero, so the third law fails from rank 1 on; at rank 0 it does not
    apply, and the sample, which starts there, sees classify_set's
    ``Cl(0)`` differ from the complement of the top member."""
    space = CorruptedSpace("closure", ZERO2, M1)
    spec = GridSpec(2, 6)
    expected = SpaceCheckReport(False, 1, SpaceCheckViolation("classify-set-agrees-with-walk", ZERO2))
    assert check_space(space, spec) == literal_check_space(space, spec) == expected


def test_the_literal_reference_does_not_use_the_bitsets(monkeypatch):
    def no_bitsets(space, k):
        raise AssertionError("the bitsets were used")

    monkeypatch.setattr(oracle, "GridBits", no_bitsets)
    assert literal_check_space(t_fin(), GridSpec(2, 6)) == SpaceCheckReport(True, 49)
    witnesses = literal_witnesses(literal_verdict_grid(t_fin(), GridSpec(2, 2)))
    assert witnesses[SearchTarget.parse("semiopen-not-open")] == fs(0, "1/2")


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


def test_campaign_is_deterministic_and_counts_evidence():
    first = run_campaign(8, 2, 2)
    second = run_campaign(8, 2, 2)
    assert first == second
    assert first.ok
    assert first.spaces_checked == 8
    assert first.sets_checked == 8 * 9
    assert first.functions_checked == 8
    assert first.agreements_checked == 8
    data = first.as_dict()
    assert data["ok"] is True and data["failures"] == []
    with pytest.raises(ValueError, match="seeds must be >= 1, got -2"):
        run_campaign(-2, 2, 2)
