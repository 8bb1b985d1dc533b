"""Brute-force ground truth over finite degree grids.

The closed-form operators elsewhere in this package are fast but clever;
this module is slow and literal, so the two can check each other.  It
enumerates every fuzzy set whose degrees lie on the grid {0, 1/k, .., 1},
recomputes the semi-interior straight from its definition (join of all
semiopen sets below the argument), generates reproducible random spaces,
and searches for the sets witnessing that the openness hierarchy is
strict.  Its space check classifies every grid set once with
``semiclass.classify_set``, whose construction enforces the implication
chain, and re-verifies on that classification the three proved laws the
chain does not state.

Grid checks are exact, not approximate: when every degree of a topology
lies on the grid, interiors and closures never leave it (min, max and
complement of grid degrees are grid degrees), so quantifying over grid
sets quantifies over everything the operators can produce.
"""

from __future__ import annotations

import itertools
import math
import random
import string
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from .errors import HierarchyInvariantError, OffGridError, ResourceCapError
from .fset import FiniteFuzzySet, Universe, _reduced, join_family
from .functions import FuzzyFunction, classify_function
from .semiclass import (
    SetClassification,
    classify_set,
    is_semiopen,
    is_somewhat_open,
    is_somewhat_semiopen,
    semi_interior,
)
from .topology import FuzzyTopology, generate

__all__ = [
    "DEFAULT_ENUMERATION_BUDGET",
    "GridSpec",
    "SearchTarget",
    "SET_CLASSES",
    "SPACE_CHECKS",
    "SpaceCheckReport",
    "SpaceCheckViolation",
    "CampaignFailure",
    "CampaignResult",
    "grid_degrees",
    "enumerate_grid_sets",
    "brute_semi_interior",
    "random_topology",
    "check_space",
    "find_witness",
    "run_campaign",
]

DEFAULT_ENUMERATION_BUDGET = 250_000


def grid_degrees(k: int) -> tuple[Fraction, ...]:
    """The ascending degree grid {0, 1/k, ..., 1}."""
    if k < 1:
        raise ValueError(f"grid denominator must be >= 1, got {k}")
    return tuple(Fraction(i, k) for i in range(k + 1))


@dataclass(frozen=True)
class GridSpec:
    """Enumeration parameters: universe size, grid denominator, budget.

    The budget caps the number of grid sets, (k+1)**universe_size, so a
    typo in k cannot silently turn a test run into an overnight job.
    """

    universe_size: int
    k: int
    budget: int = DEFAULT_ENUMERATION_BUDGET

    def __post_init__(self) -> None:
        if self.universe_size < 1:
            raise ValueError(f"universe_size must be >= 1, got {self.universe_size}")
        if self.k < 1:
            raise ValueError(f"grid denominator must be >= 1, got {self.k}")
        if self.budget < 1:
            raise ValueError(f"budget must be >= 1, got {self.budget}")
        if self.size > self.budget:
            raise ResourceCapError(
                f"grid holds {self.size} sets, above the budget of {self.budget}"
            )

    @property
    def size(self) -> int:
        return (self.k + 1) ** self.universe_size

    def universe(self) -> Universe:
        return Universe.of(*string.ascii_lowercase[: self.universe_size])


def _require_on_grid(sets: Sequence[FiniteFuzzySet], k: int, what: str) -> None:
    """Raise unless every set lies on the 1/k grid, that is ``k % scale == 0``.

    The smallest grid holding every degree is the lcm of the scales.
    """
    off = [s for s in sets if k % s.scale]
    if off:
        example = next(d for d in off[0].degrees if (d * k).denominator != 1)
        needed = math.lcm(*(s.scale for s in sets))
        raise OffGridError(
            f"{what} has degrees off the 1/{k} grid (e.g. {example}); "
            f"the smallest grid holding every degree is k={needed}",
            required_k=needed,
        )


def enumerate_grid_sets(
    spec: GridSpec, universe: Universe | None = None
) -> Iterator[FiniteFuzzySet]:
    """Yield every grid fuzzy set exactly once, in lexicographic order.

    Order is over (element index, degree) with earlier elements most
    significant, so the first set satisfying any predicate is canonical
    and stable across runs.  The sets skip constructor validation: the
    spec and the universe size are checked here, and grid degrees lie in
    ``[0, 1]``.
    """
    if universe is None:
        universe = spec.universe()
    elif len(universe) != spec.universe_size:
        raise ValueError(
            f"universe has {len(universe)} points but spec expects {spec.universe_size}"
        )
    k = spec.k
    for nums in itertools.product(range(k + 1), repeat=spec.universe_size):
        yield _reduced(universe, k, nums)


def brute_semi_interior(
    space: FuzzyTopology, s: FiniteFuzzySet, spec: GridSpec
) -> FiniteFuzzySet:
    """Semi-interior computed literally: join all semiopen grid sets below s.

    This deliberately shares no algebra with the closed form in
    :mod:`ftop.semiclass`; each semiopen test goes straight through the
    interior and closure operators.  The result lower-bounds the true
    semi-interior and equals the closed form whenever the closed form's
    output lies on the grid, which makes this the validation oracle for
    that identity.
    """
    universe = space._finite_universe("grid enumeration")
    _require_on_grid([*space.members, s], spec.k, "the topology or queried set")
    below = [
        g
        for g in enumerate_grid_sets(spec, universe)
        if g.leq(s) and is_semiopen(space, g)
    ]
    return join_family(below, universe=universe)


def _random_grid_set(rng: random.Random, universe: Universe, k: int) -> FiniteFuzzySet:
    """A grid set with every numerator over ``k`` drawn uniformly from ``0..k``.

    Built as :func:`enumerate_grid_sets` builds them.  ``randrange(k + 1)``
    consumes the same draw as ``choice`` over :func:`grid_degrees` would,
    so a seed gives the same set as a Fraction-grid draw, and recorded
    ``verify`` reports stay reproducible.
    """
    return _reduced(universe, k, tuple([rng.randrange(k + 1) for _ in universe]))


def random_topology(spec: GridSpec, seed: int, subbasis_size: int) -> FuzzyTopology:
    """A reproducible random space: generate() over seeded grid subbasis sets.

    Identical (spec, seed, subbasis_size) always yields an identical
    member list.  Degrees stay on the grid, so the generated family can
    never outgrow the grid itself.
    """
    rng = random.Random(seed)
    universe = spec.universe()
    subbasis = [_random_grid_set(rng, universe, spec.k) for _ in range(subbasis_size)]
    return generate(subbasis, universe=universe)


def _holds_semiopen_iff_closures_agree(
    space: FuzzyTopology, s: FiniteFuzzySet, c: SetClassification
) -> bool:
    return s.is_zero() or c.is_semiopen == (c.closure == c.closure_of_interior)


# Each entry restates one proved law as an executable predicate of a grid
# set and its classification; names describe the behaviour checked, and
# every law must hold for every set in every space, so any violation is an
# operator bug.  The implication chain is not repeated here: constructing
# the classification enforces it, and check_space reports a refusal as the
# violation "implication-chain".
SPACE_CHECKS: tuple[
    tuple[str, Callable[[FuzzyTopology, FiniteFuzzySet, SetClassification], bool]], ...
] = (
    ("interior-below-semi-interior", lambda space, s, c: c.interior.leq(c.semi_interior)),
    ("semi-closure-below-closure", lambda space, s, c: c.semi_closure.leq(c.closure)),
    ("semiopen-iff-closures-agree", _holds_semiopen_iff_closures_agree),
)


@dataclass(frozen=True)
class SpaceCheckViolation:
    check: str
    subject: FiniteFuzzySet


@dataclass(frozen=True)
class SpaceCheckReport:
    ok: bool
    sets_checked: int
    violation: SpaceCheckViolation | None = None


def check_space(space: FuzzyTopology, spec: GridSpec) -> SpaceCheckReport:
    """Re-verify every proved law on every grid set of the space.

    Each grid set is classified once by :func:`classify_set`.  A refusal
    of that classification (its verdicts break the implication chain) is
    the violation ``"implication-chain"``; otherwise every law of
    :data:`SPACE_CHECKS` is checked on the classification.  Stops at the
    first violating (check, set) pair.  Requires all topology degrees on
    the grid so that interiors and closures are grid sets themselves and
    the sweep is exhaustive rather than a sample.
    """
    universe = space._finite_universe("grid enumeration")
    _require_on_grid(space.members, spec.k, "topology")
    checked = 0
    for s in enumerate_grid_sets(spec, universe):
        checked += 1
        try:
            c = classify_set(space, s)
        except HierarchyInvariantError:
            return SpaceCheckReport(False, checked, SpaceCheckViolation("implication-chain", s))
        for name, holds in SPACE_CHECKS:
            if not holds(space, s, c):
                return SpaceCheckReport(False, checked, SpaceCheckViolation(name, s))
    return SpaceCheckReport(True, checked)


SET_CLASSES: dict[str, Callable[[FuzzyTopology, FiniteFuzzySet], bool]] = {
    "open": lambda space, s: space.is_open(s),
    "semiopen": is_semiopen,
    "somewhat-open": is_somewhat_open,
    "somewhat-semiopen": is_somewhat_semiopen,
}


@dataclass(frozen=True)
class SearchTarget:
    """One strictness question: a set in class ``have`` but not ``avoid``."""

    have: str
    avoid: str

    def __post_init__(self) -> None:
        for name in (self.have, self.avoid):
            if name not in SET_CLASSES:
                known = ", ".join(sorted(SET_CLASSES))
                raise ValueError(f"unknown set class {name!r}; known classes: {known}")
        if self.have == self.avoid:
            raise ValueError(f"target {self.have}-not-{self.avoid} is unsatisfiable")

    @classmethod
    def parse(cls, text: str) -> "SearchTarget":
        normalized = text.strip().lower().replace("_", "-")
        parts = normalized.split("-not-")
        if len(parts) != 2:
            raise ValueError(
                f"cannot parse target {text!r}; expected <class>-not-<class>, "
                "e.g. semiopen-not-open"
            )
        return cls(parts[0], parts[1])

    def matches(self, space: FuzzyTopology, s: FiniteFuzzySet) -> bool:
        return SET_CLASSES[self.have](space, s) and not SET_CLASSES[self.avoid](space, s)

    def __str__(self) -> str:
        return f"{self.have}-not-{self.avoid}"


def find_witness(
    space: FuzzyTopology, target: SearchTarget, spec: GridSpec
) -> FiniteFuzzySet | None:
    """First grid set in enumeration order matching the target, else None.

    A None is grid-relative only: a finer grid (or none at all) may still
    hold a witness.  The topology's own degrees need not lie on the grid;
    classification is exact either way, the grid only bounds the search.
    """
    universe = space._finite_universe("grid enumeration")
    for s in enumerate_grid_sets(spec, universe):
        if target.matches(space, s):
            return s
    return None


@dataclass(frozen=True)
class CampaignFailure:
    phase: str
    seed: int
    detail: str


@dataclass(frozen=True)
class CampaignResult:
    """Outcome of one seeded verification campaign.

    Counts say how much evidence was gathered; ``failures`` is empty on a
    clean run.  Identical arguments reproduce identical results.
    """

    seeds: int
    universe_size: int
    k: int
    spaces_checked: int
    sets_checked: int
    agreements_checked: int
    functions_checked: int
    failures: tuple[CampaignFailure, ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    def as_dict(self) -> dict:
        return {
            "seeds": self.seeds,
            "universe_size": self.universe_size,
            "k": self.k,
            "spaces_checked": self.spaces_checked,
            "sets_checked": self.sets_checked,
            "agreements_checked": self.agreements_checked,
            "functions_checked": self.functions_checked,
            "ok": self.ok,
            "failures": [
                {"phase": f.phase, "seed": f.seed, "detail": f.detail}
                for f in self.failures
            ],
        }


MAX_CAMPAIGN_SUBBASIS = 4


def run_campaign(
    seeds: int, universe_size: int, k: int, *, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> CampaignResult:
    """Seeded sweep: space laws, closed-form agreement, function laws.

    Per seed i this builds a random space, runs :func:`check_space` on
    it, compares the closed-form semi-interior against
    :func:`brute_semi_interior` on a random grid set, then builds a
    second random space plus a random crisp map and classifies the map,
    which re-asserts the function-level equivalences and the implication
    chain.  All randomness derives from the seed index, so reports are
    bit-for-bit reproducible.
    """
    if seeds < 1:
        raise ValueError(f"seeds must be >= 1, got {seeds}")
    spec = GridSpec(universe_size, k, budget)
    failures: list[CampaignFailure] = []
    sets_checked = 0
    agreements = 0
    functions = 0
    for seed in range(seeds):
        rng = random.Random(f"ftop-campaign-{seed}")
        space = random_topology(spec, seed, rng.randint(0, MAX_CAMPAIGN_SUBBASIS))

        report = check_space(space, spec)
        sets_checked += report.sets_checked
        if not report.ok:
            violation = report.violation
            failures.append(
                CampaignFailure(
                    "space-laws",
                    seed,
                    f"{violation.check} fails on {violation.subject!r}",
                )
            )

        s = _random_grid_set(rng, space.universe, k)
        closed_form = semi_interior(space, s)
        if spec.k % closed_form.scale == 0:
            agreements += 1
            brute = brute_semi_interior(space, s, spec)
            if closed_form != brute:
                failures.append(
                    CampaignFailure(
                        "semi-interior-agreement",
                        seed,
                        f"closed form {closed_form!r} != brute force {brute!r} on {s!r}",
                    )
                )

        codomain_universe = spec.universe()
        codomain_subbasis = [
            _random_grid_set(rng, codomain_universe, k)
            for _ in range(rng.randint(0, MAX_CAMPAIGN_SUBBASIS))
        ]
        codomain = generate(codomain_subbasis, universe=codomain_universe)
        mapping = {x: rng.choice(codomain.universe.labels) for x in space.universe}
        fn = FuzzyFunction.from_mapping(space, codomain, mapping)
        functions += 1
        try:
            classify_function(fn)
        except HierarchyInvariantError as exc:
            failures.append(CampaignFailure("function-laws", seed, str(exc)))

    return CampaignResult(
        seeds=seeds,
        universe_size=universe_size,
        k=k,
        spaces_checked=seeds,
        sets_checked=sets_checked,
        agreements_checked=agreements,
        functions_checked=functions,
        failures=tuple(failures),
    )
