"""Brute-force ground truth over finite degree grids.

The closed-form operators elsewhere in this package are fast but clever;
this module is slow and literal, so the two can check each other.  It
considers every fuzzy set whose degrees lie on the grid {0, 1/k, .., 1}:
it recomputes the semi-interior straight from its definition (join of
all semiopen sets below the argument), checks the proved laws on every
grid set of a space, and searches for the sets witnessing that the
openness hierarchy is strict.  It also generates reproducible random
spaces.

The space check and the search share one walk of the grid on the member
masks of the space's index (``fset._MemberIndex.grid_walk``, through
:func:`_sweep`).  It derives every grid set's four verdicts from tables
filled once per member, and builds no set object per grid set.  The
check holds the verdicts to the implication chain
(``semiclass._chain_holds``), re-verifies the three proved laws the
chain does not state, and sends a fixed sample of at most eight grid
sets per space through ``semiclass.classify_set`` as well, whose
verdicts must match the walk's and whose evidence must obey the same
laws.  Two of the laws are checked split: since ``a <= b /\\ c`` iff
``a <= b`` and ``a <= c``, and ``a \\/ b <= c`` iff ``a <= c`` and
``b <= c``, "interior below semi-interior" is ``Int(s) <= s`` per set
and ``m <= Cl(m)`` per member ``m = Int(s)``, and "semi-closure below
closure" is ``s <= Cl(s)`` per set and ``Int(c) <= c`` per complement
``c = Cl(s)``.  The search returns the first grid set whose verdicts
put it in one class and not in another.  The literal semi-interior
shares nothing with the walk: it builds every grid set below its
argument as an object, through :func:`enumerate_grid_sets`.

Grid checks are exact, not approximate: when every degree of a topology
lies on the grid, interiors and closures never leave it (min, max and
complement of grid degrees are grid degrees), so quantifying over grid
sets quantifies over everything the operators can produce.  The check
requires this; the search does not, as its grid only bounds where it
looks.
"""

from __future__ import annotations

import itertools
import math
import random
import string
from dataclasses import dataclass
from fractions import Fraction
from operator import le
from typing import Callable, Iterator, NamedTuple, Sequence

from .errors import HierarchyInvariantError, OffGridError, ResourceCapError, UniverseMismatchError
from .fset import FiniteFuzzySet, Universe, _reduced, _rescaled, join_family
from .functions import FuzzyFunction, classify_function
from .semiclass import _chain_holds, classify_set, is_semiopen, semi_interior, set_verdicts
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

# Grid universes label their points a, b, ..., so they hold at most 26.
_GRID_LABELS = string.ascii_lowercase


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
        """The points ``a``, ``b``, ...; raises ``ValueError`` beyond ``z``."""
        labels = _GRID_LABELS[: self.universe_size]
        if len(labels) != self.universe_size:
            raise ValueError(
                f"a grid universe has at most {len(_GRID_LABELS)} points, "
                f"got {self.universe_size}"
            )
        return Universe.of(*labels)


def _require_on_grid(sets: Sequence[FiniteFuzzySet], k: int, what: str) -> None:
    """Raise unless every set lies on the 1/k grid, that is ``k % scale == 0``.

    The smallest grid holding every degree is the lcm of the scales.
    """
    off = [s for s in sets if k % s.scale]
    if off:
        example = next(d for d in off[0].degrees if (d * k).denominator != 1)
        needed = math.lcm(*[s.scale for s in sets])
        raise OffGridError(
            f"{what} has degrees off the 1/{k} grid (e.g. {example}); "
            f"the smallest grid holding every degree is k={needed}",
            required_k=needed,
        )


def _grid_universe(spec: GridSpec, universe: Universe | None) -> Universe:
    """``universe``, which must have ``spec.universe_size`` points, or the spec's own."""
    if universe is None:
        return spec.universe()
    if len(universe) != spec.universe_size:
        raise ValueError(
            f"universe has {len(universe)} points but spec expects {spec.universe_size}"
        )
    return universe


def enumerate_grid_sets(
    spec: GridSpec, universe: Universe | None = None, *, below: FiniteFuzzySet | None = None
) -> Iterator[FiniteFuzzySet]:
    """Yield every grid fuzzy set exactly once, in lexicographic order.

    Order is over (element index, degree) with earlier elements most
    significant, so the first set satisfying any predicate is canonical
    and stable across runs.  With ``below``, a set on the same universe,
    only the grid sets below it are yielded, in the same order: the
    numerators ``0..floor(below(x) * k)`` at each point ``x``.  The sets
    skip constructor validation: the spec and the universe size are
    checked here, and grid degrees lie in ``[0, 1]``.
    """
    universe = _grid_universe(spec, universe)
    k = spec.k
    if below is None:
        boxes = [range(k + 1)] * spec.universe_size
    elif below.universe != universe:
        raise UniverseMismatchError(
            f"universes differ: {universe.labels} vs {below.universe.labels}"
        )
    else:
        boxes = [range(n * k // below.scale + 1) for n in below.nums]
    for nums in itertools.product(*boxes):
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
    that identity.  Only the grid sets below ``s`` are built, by
    :func:`enumerate_grid_sets` with ``below=s``.
    """
    universe = space._finite_universe("grid enumeration")
    space._check_value(s)
    _require_on_grid([*space.members, s], spec.k, "the topology or queried set")
    semiopen = [g for g in enumerate_grid_sets(spec, universe, below=s) if is_semiopen(space, g)]
    return join_family(semiopen, universe=universe)


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


class _Evidence(NamedTuple):
    """One grid set and its operator values, each as numerators over one scale.

    ``semiopen`` is the set's verdict; ``closure_of_interior`` is
    ``Cl(Int(s))``, ``semi_interior`` is ``s /\\ Cl(Int(s))`` and
    ``semi_closure`` is ``s \\/ Int(Cl(s))``.
    """

    s: Sequence[int]
    semiopen: bool
    interior: Sequence[int]
    closure: Sequence[int]
    closure_of_interior: Sequence[int]
    semi_interior: Sequence[int]
    semi_closure: Sequence[int]


def _leq(low: Sequence[int], high: Sequence[int]) -> bool:
    return all(map(le, low, high))


# Each entry restates one proved law as an executable predicate of a grid
# set's evidence; names describe the behaviour checked, and every law must
# hold for every set in every space, so any violation is an operator bug.
# The implication chain is not repeated here: check_space holds every
# set's verdicts to it and reports a refusal as the violation
# "implication-chain".  The walk in check_space checks the same laws in
# their split form, under these names.
SPACE_CHECKS: tuple[tuple[str, Callable[[_Evidence], bool]], ...] = (
    ("interior-below-semi-interior", lambda e: _leq(e.interior, e.semi_interior)),
    ("semi-closure-below-closure", lambda e: _leq(e.semi_closure, e.closure)),
    (
        "semiopen-iff-closures-agree",
        lambda e: not any(e.s) or e.semiopen == (e.closure == e.closure_of_interior),
    ),
)


def _inner_tables(space: FuzzyTopology, scale: int) -> tuple[list, list]:
    """``Int(s)`` and ``Cl(Int(s))`` by the walk's inner bit: each member and its closure."""
    members = space._index._members
    return (
        [_rescaled(m, scale) for m in members],
        [_rescaled(space.closure(m), scale) for m in members],
    )


def _outer_tables(space: FuzzyTopology, scale: int) -> tuple[list, list]:
    """``Cl(s)`` and ``Int(Cl(s))`` by the walk's outer bit: each complement and its interior."""
    complements = space._index._complements
    return (
        [_rescaled(c, scale) for c in complements],
        [_rescaled(space.interior(c), scale) for c in complements],
    )


def _sweep(
    space: FuzzyTopology, k: int, interiors: list, closures_of_interiors: list
) -> Iterator[tuple[tuple[int, ...], int, int, tuple[bool, bool, bool, bool]]]:
    """Every grid set with its walk bits and its four verdicts, in enumeration order.

    Yields ``(nums, inner, outer, verdicts)``: ``nums`` and the bits are
    those of ``_MemberIndex.grid_walk(k)``, and ``verdicts`` are open,
    semiopen, somewhat open and somewhat semiopen, read off the
    :func:`_inner_tables` over ``lcm(k, L)``, the walk's scale.  Since
    ``Int(s)`` is the member ``m`` at the inner bit, ``s`` is open iff it
    equals ``m``, semiopen iff ``s <= Cl(m)``, and its semi-interior is
    the pointwise min of ``s`` and ``Cl(m)``.  Member degrees may lie off
    the grid: every vector is over the walk's scale.
    """
    for nums, inner, outer in space._index.grid_walk(k):
        interior = interiors[inner]
        closure_of_interior = closures_of_interiors[inner]
        zero = not any(nums)
        yield nums, inner, outer, (
            interior == nums,
            _leq(nums, closure_of_interior),
            zero or any(interior),
            zero or any(map(min, nums, closure_of_interior)),
        )


# Grid sets per space that also go through the public classify_set.
_SAMPLE = 8


@dataclass(frozen=True)
class SpaceCheckViolation:
    check: str
    subject: FiniteFuzzySet


@dataclass(frozen=True)
class SpaceCheckReport:
    ok: bool
    sets_checked: int
    violation: SpaceCheckViolation | None = None


def _broken_law(evidence: _Evidence) -> str | None:
    """The name of the first law of :data:`SPACE_CHECKS` that fails, if any."""
    for name, holds in SPACE_CHECKS:
        if not holds(evidence):
            return name
    return None


def _sample_violation(
    space: FuzzyTopology, s: FiniteFuzzySet, verdicts: tuple[bool, ...], scale: int
) -> str | None:
    """What :func:`classify_set` on ``s`` breaks: the chain, the walk's verdicts, a law."""
    try:
        c = classify_set(space, s)
    except HierarchyInvariantError:
        return "implication-chain"
    if (c.is_open, c.is_semiopen, c.is_somewhat_open, c.is_somewhat_semiopen) != verdicts:
        return "classify-set-agrees-with-walk"
    values = (c.interior, c.closure, c.closure_of_interior, c.semi_interior, c.semi_closure)
    return _broken_law(
        _Evidence(_rescaled(s, scale), c.is_semiopen, *[_rescaled(v, scale) for v in values])
    )


def check_space(space: FuzzyTopology, spec: GridSpec) -> SpaceCheckReport:
    """Re-verify every proved law on every grid set of the space.

    The grid is walked on the space's member masks (:func:`_sweep`), so no
    set object is built per grid set.  Each set's four verdicts are held
    to the implication chain (``semiclass._chain_holds``), a refusal being
    the violation ``"implication-chain"``, and then to the laws of
    :data:`SPACE_CHECKS` in order.  The first two are checked split, as
    the module docstring states: their member halves ``m <= Cl(m)`` and
    ``Int(c) <= c`` once per member before the walk, their set halves
    ``Int(s) <= s`` and ``s <= Cl(s)`` per set; the third per set.  Every
    ``ceil(size / 8)``-th grid set, the first included, also goes through
    the public :func:`classify_set`: its verdicts must equal the walk's
    (else the violation ``"classify-set-agrees-with-walk"``) and the laws
    must hold on its evidence.  Stops at the first violating (check, set)
    pair; the subject is the only set built besides the sample.  Requires
    all topology degrees on the grid so that interiors and closures are
    grid sets themselves and the sweep covers every value the operators
    can produce.
    """
    universe = _grid_universe(spec, space._finite_universe("grid enumeration"))
    _require_on_grid(space.members, spec.k, "topology")
    scale = space._index.grid_scale(spec.k)
    interiors, closures_of_interiors = _inner_tables(space, scale)
    closures, interiors_of_closures = _outer_tables(space, scale)
    inner_halves = list(map(_leq, interiors, closures_of_interiors))
    outer_halves = list(map(_leq, interiors_of_closures, closures))
    (below_semi_interior, _), (below_closure, _), (closures_agree, _) = SPACE_CHECKS
    step = -(-spec.size // _SAMPLE)
    checked = 0
    walk = _sweep(space, spec.k, interiors, closures_of_interiors)
    for nums, inner, outer, (open_, semiopen, somewhat, somewhat_semi) in walk:
        closure = closures[outer]
        if not _chain_holds(open_, semiopen, somewhat, somewhat_semi):
            failed = "implication-chain"
        elif not (inner_halves[inner] and _leq(interiors[inner], nums)):
            failed = below_semi_interior
        elif not (outer_halves[outer] and _leq(nums, closure)):
            failed = below_closure
        elif any(nums) and semiopen != (closure == closures_of_interiors[inner]):
            failed = closures_agree
        elif checked % step == 0:
            verdicts = (open_, semiopen, somewhat, somewhat_semi)
            failed = _sample_violation(space, _reduced(universe, scale, nums), verdicts, scale)
        else:
            failed = None
        checked += 1
        if failed is not None:
            return SpaceCheckReport(
                False, checked, SpaceCheckViolation(failed, _reduced(universe, scale, nums))
            )
    return SpaceCheckReport(True, checked)


# The classes a search can name, strongest first: the verdicts of
# semiclass.set_verdicts, spelled with "-" for "_".
SET_CLASSES = ("open", "semiopen", "somewhat-open", "somewhat-semiopen")


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

    def _positions(self) -> tuple[int, int]:
        """Where ``have`` and ``avoid`` sit among four verdicts, strongest first."""
        return SET_CLASSES.index(self.have), SET_CLASSES.index(self.avoid)

    def matches(self, space: FuzzyTopology, s: FiniteFuzzySet) -> bool:
        verdicts = set_verdicts(space, s)
        return verdicts[self.have.replace("-", "_")] and not verdicts[self.avoid.replace("-", "_")]

    def __str__(self) -> str:
        return f"{self.have}-not-{self.avoid}"


def find_witness(
    space: FuzzyTopology, target: SearchTarget, spec: GridSpec
) -> FiniteFuzzySet | None:
    """First grid set in enumeration order matching the target, else None.

    The grid is walked on the space's member masks (:func:`_sweep`), as
    :func:`check_space` walks it, but only its verdicts are read: no table
    for ``Cl(s)`` is filled and only the witness is built as a set.
    A None is grid-relative only: a finer grid (or none at all) may still
    hold a witness.  The topology's own degrees need not lie on the grid;
    classification is exact either way, the grid only bounds the search.
    """
    universe = _grid_universe(spec, space._finite_universe("grid enumeration"))
    scale = space._index.grid_scale(spec.k)
    have, avoid = target._positions()
    for nums, _, _, verdicts in _sweep(space, spec.k, *_inner_tables(space, scale)):
        if verdicts[have] and not verdicts[avoid]:
            return _reduced(universe, scale, nums)
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
