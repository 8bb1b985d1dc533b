"""Brute-force ground truth over finite degree grids.

The closed-form operators elsewhere in this package are fast but clever;
this module is slow and literal, so the two can check each other.  It
considers every fuzzy set whose degrees lie on the grid {0, 1/k, .., 1}:
it recomputes the semi-interior straight from its definition (join of
all semiopen sets below the argument), checks the proved laws on every
grid set of a space, and searches for the sets witnessing that the
openness hierarchy is strict.  It also generates reproducible random
spaces.

The space check and the search share one representation of the grid,
``gridbits.GridBits``: every grid set is a bit of a Python int, a block
of ranks at a time, and each member's grid digits, read off its own
numerators, give its ranks below ``s`` and below ``1 - s``.  Each
block's four verdicts are then a few AND, OR and XOR operations per
member, from boxes built once per member, and no set object is built
per grid set.  The check holds the verdicts to the implication chain
(``semiclass._chain_breaks``, which works on bitsets as on bools),
re-verifies the three proved laws the chain does not state, and sends a
fixed sample of at most eight grid sets per space through
``semiclass.classify_set`` as well, whose verdicts and operator values
must equal the ones the bitsets selected: the laws are stated once, on
the bitsets, and the sample compares an independent computation with
them instead of re-testing the laws on its output.  Two of the laws
split: since ``a <= b /\\ c`` iff ``a <= b`` and ``a <= c``, and
``a \\/ b <= c`` iff ``a <= c`` and ``b <= c``, "interior below
semi-interior" is ``Int(s) <= s`` per set and ``m <= Cl(m)`` per member
``m = Int(s)``, and "semi-closure below closure" is ``s <= Cl(s)`` per
set and ``Int(c) <= c`` per complement ``c = Cl(s)``.  The set halves
hold by construction as long as each member's digits are right, since
the bitsets select a member only where its digits put it below ``s``, or
below ``1 - s``.  So the check tests the member halves, on the member
sets, and holds each member's digits to its numerators over ``k``, which
on the grid they equal: a member with other digits fails the first
law's member half.  The first violation is the lowest set bit of a
block's violations, and the search's witness the lowest set bit of the
sets in one class and not in another.  The literal semi-interior shares
nothing with the bitsets: it builds every grid set below its argument as
an object, through :func:`enumerate_grid_sets`.

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
from dataclasses import asdict, dataclass
from typing import Iterator, Sequence

from .errors import HierarchyInvariantError, OffGridError, ResourceCapError
from .fset import FiniteFuzzySet, Universe, _reduced, _rescaled, join_family
from .functions import FuzzyFunction, classify_function
from .gridbits import GridBits
from .semiclass import _CLASSES, _chain_breaks, classify_set, is_semiopen, semi_interior
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


@dataclass(frozen=True)
class GridSpec:
    """Enumeration parameters: universe size and grid denominator.

    A grid holds (k+1)**universe_size sets; one above
    ``DEFAULT_ENUMERATION_BUDGET`` raises ``ResourceCapError``, so a typo
    in k cannot silently turn a test run into an overnight job.  Since
    k >= 1 and 2**18 > 250,000, a grid has at most 17 points, labelled
    a..q.
    """

    universe_size: int
    k: int

    def __post_init__(self) -> None:
        if self.universe_size < 1:
            raise ValueError(f"universe_size must be >= 1, got {self.universe_size}")
        if self.k < 1:
            raise ValueError(f"grid denominator must be >= 1, got {self.k}")
        # At least 2**n and at least k + 1 sets: a grid past either bound is
        # refused before (k+1)**n is computed, which for a large n or k
        # would be too long to print or even to hold; k is never printed.
        if self.universe_size > DEFAULT_ENUMERATION_BUDGET.bit_length():
            raise ResourceCapError(
                f"grid holds at least 2**{self.universe_size} sets, above the budget of "
                f"{DEFAULT_ENUMERATION_BUDGET}"
            )
        if self.k >= DEFAULT_ENUMERATION_BUDGET:
            raise ResourceCapError(
                f"grid holds at least k + 1 sets, above the budget of {DEFAULT_ENUMERATION_BUDGET}"
            )
        if self.size > DEFAULT_ENUMERATION_BUDGET:
            raise ResourceCapError(
                f"grid holds {self.size} sets, above the budget of {DEFAULT_ENUMERATION_BUDGET}"
            )

    @property
    def size(self) -> int:
        return (self.k + 1) ** self.universe_size

    def universe(self) -> Universe:
        """The points ``a``, ``b``, ..."""
        return Universe.of(*_GRID_LABELS[: self.universe_size])


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
    numerators ``0..floor(below(x) * k)`` at each point ``x``; ``below``
    passes the check of every finite set operation.  The sets skip
    constructor validation: the spec and the universe size are checked
    here, and grid degrees lie in ``[0, 1]``.
    """
    universe = _grid_universe(spec, universe)
    k = spec.k
    boxes = [range(k + 1)] * spec.universe_size
    if below is not None:
        FiniteFuzzySet.zero(universe)._require_compatible(below)
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
    :func:`enumerate_grid_sets` with ``below=s``.  Each semiopen test is
    the public, checked :func:`ftop.semiclass.is_semiopen`, whose ``leq``
    is the only public ``FiniteFuzzySet.leq`` call of the benchmark's
    ``sweep`` workload: the benchmark smoke test's
    ``fset.leq.calls > 0`` rests on it.
    """
    universe = space._finite_universe("grid enumeration")
    space._check_value(s)
    _require_on_grid([*space.members, s], spec.k, "the topology or queried set")
    semiopen = [g for g in enumerate_grid_sets(spec, universe, below=s) if is_semiopen(space, g)]
    return join_family(semiopen, universe=universe)


def _random_grid_set(rng: random.Random, universe: Universe, k: int) -> FiniteFuzzySet:
    """A grid set with every numerator over ``k`` drawn uniformly from ``0..k``.

    Built as :func:`enumerate_grid_sets` builds them.  ``randrange(k + 1)``
    consumes the same draw as ``choice`` over the Fraction grid
    ``(0, 1/k, ..., 1)``, so a seed gives the same set either way, and
    recorded ``verify`` reports stay reproducible.
    """
    return _reduced(universe, k, tuple([rng.randrange(k + 1) for _ in universe]))


def _random_space(rng: random.Random, spec: GridSpec, size: int) -> FuzzyTopology:
    """The space ``generate`` builds from ``size`` grid sets drawn from ``rng``."""
    universe = spec.universe()
    subbasis = [_random_grid_set(rng, universe, spec.k) for _ in range(size)]
    return generate(subbasis, universe=universe)


def random_topology(spec: GridSpec, seed: int, subbasis_size: int) -> FuzzyTopology:
    """A reproducible random space: generate() over seeded grid subbasis sets.

    Identical (spec, seed, subbasis_size) always yields an identical
    member list.  Degrees stay on the grid, so the generated family can
    never outgrow the grid itself.
    """
    return _random_space(random.Random(seed), spec, subbasis_size)


# The proved laws check_space holds every grid set to, by the names it
# reports them under and in that order; names describe the behaviour
# checked, and every law must hold for every set in every space, so any
# violation is an operator bug.  The implication chain is not repeated
# here: check_space holds every set's verdicts to it and reports a
# refusal as the violation "implication-chain".  Each law is stated once,
# on the bitsets, in the split form the module docstring gives.
SPACE_CHECKS = (
    "interior-below-semi-interior",
    "semi-closure-below-closure",
    "semiopen-iff-closures-agree",
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


def _sample_violation(space: FuzzyTopology, s: FiniteFuzzySet, walked: tuple) -> str | None:
    """What :func:`classify_set` on ``s`` breaks: the chain, or agreement with the bitsets.

    ``walked`` is what the bitsets selected for ``s``: its four verdicts,
    strongest first, then ``Int(s)``, ``Cl(s)``, ``Cl(Int(s))``, the
    semi-interior and the semi-closure, as sets.  :func:`classify_set`
    must give each of them; a refusal of the chain is the violation
    ``"implication-chain"``, any other difference
    ``"classify-set-agrees-with-walk"``.
    """
    try:
        c = classify_set(space, s)
    except HierarchyInvariantError:
        return "implication-chain"
    values = (c.interior, c.closure, c.closure_of_interior, c.semi_interior, c.semi_closure)
    return None if (*c._held, *values) == walked else "classify-set-agrees-with-walk"


def check_space(space: FuzzyTopology, spec: GridSpec) -> SpaceCheckReport:
    """Re-verify every proved law on every grid set of the space.

    The grid is checked a block of ranks at a time, each grid set a bit
    of an int (``gridbits.GridBits``), so no set object is built per grid
    set.  The four verdicts are held to the implication chain
    (``semiclass._chain_breaks``), a break being the violation
    ``"implication-chain"``, and then to the laws of :data:`SPACE_CHECKS`
    in order.  The first two are checked by their member halves, as the
    module docstring states, on the sets ``space.members``, in their
    canonical order, and their complements: where a member fails
    ``m <= Cl(m)``, or its grid digits are not its numerators over ``k``,
    the first law fails on the ranks where it is ``Int(s)``, and where a
    complement fails ``Int(c) <= c``, the second on the ranks where it is
    ``Cl(s)``; the third on every non-zero grid set.  Every
    ``ceil(size / 8)``-th grid set, the first included, also goes through
    the public :func:`classify_set`, in rank order up to the first law
    violation: its four verdicts, ``Int(s)``, ``Cl(s)``, ``Cl(Int(s))``,
    semi-interior and semi-closure must equal, as sets, the ones the
    bitsets selected for it (else the violation
    ``"classify-set-agrees-with-walk"``); the bitsets' semi-interior and
    semi-closure are the pointwise min and max of numerators over ``k``,
    not the sets' meet and join.  Those values obey every law, as
    the bitsets have just checked on that rank, so the comparison is at
    least as strict as checking the laws on :func:`classify_set`'s
    output, and it also catches lawful but wrong values.  Stops at the
    first violating (check, set) pair, the lowest rank with a violation;
    the subject is the only set built besides the sample.  Requires all
    topology degrees on the grid so that interiors and closures are grid
    sets themselves and the check covers every value the operators can
    produce.
    """
    universe = _grid_universe(spec, space._finite_universe("grid enumeration"))
    _require_on_grid(space.members, spec.k, "topology")
    grid, k = GridBits(space, spec.k), spec.k
    members = space.members
    complements = [m.complement() for m in members]
    closures_of_interiors = grid.closures_of_interiors
    interiors_of_closures = [space._index.interior(c) for c in complements]
    # The member halves: where one fails, its law fails on every rank the
    # member is Int(s), or its complement Cl(s).  On the grid a member's
    # digits are its numerators over k; one with other digits may be
    # selected as Int(s) where it is not below s, which the first law names.
    below_members = {
        j
        for j, m in enumerate(members)
        if not m._leq(closures_of_interiors[j]) or grid.lows[j] != _rescaled(m, k)
    }
    above_members = [j for j, c in enumerate(complements) if not interiors_of_closures[j]._leq(c)]
    complement_bits = {c: j for j, c in enumerate(complements)}
    matches = [complement_bits.get(c) for c in closures_of_interiors]
    # Per member bit, the digits over k of Cl(m) and of Int(1 - m), for the sample.
    closure_digits = [_rescaled(c, k) for c in closures_of_interiors]
    interior_digits = [_rescaled(i, k) for i in interiors_of_closures]
    step = -(-spec.size // _SAMPLE)
    for base, prefix in grid.blocks():
        closure_ranks = grid.closures(prefix)
        *verdict_bits, selected = grid.verdicts(base, prefix)
        below = above = agree = 0
        for j in above_members:
            above |= closure_ranks.get(j, 0)
        for j, interior in selected:
            agree |= interior & closure_ranks.get(matches[j], 0)
            if j in below_members:
                below |= interior
        chain = _chain_breaks(*verdict_bits)
        disagree = (verdict_bits[1] ^ agree) & ~int(base == 0)
        broken = chain | below | above | disagree
        first = (broken & -broken).bit_length() - 1 if broken else grid.size
        for offset in range(-base % step, first, step):
            nums = grid.digits(base + offset)
            s = _reduced(universe, k, nums)
            # The member bits whose ranks hold s: its Int(s) and its Cl(s).
            inner = next(j for j, ranks in selected if ranks >> offset & 1)
            outer = next(j for j, ranks in closure_ranks.items() if ranks >> offset & 1)
            # The semi-interior and semi-closure as pointwise min and max of
            # numerators over k, independent of the sets' meet and join.
            low = tuple(map(min, nums, closure_digits[inner]))
            high = tuple(map(max, nums, interior_digits[outer]))
            walked = (
                *[bool(v >> offset & 1) for v in verdict_bits],
                members[inner],
                complements[outer],
                closures_of_interiors[inner],
                _reduced(universe, k, low),
                _reduced(universe, k, high),
            )
            failed = _sample_violation(space, s, walked)
            if failed is not None:
                return SpaceCheckReport(False, base + offset + 1, SpaceCheckViolation(failed, s))
        if broken:
            laws = zip(("implication-chain", *SPACE_CHECKS), (chain, below, above, disagree))
            failed = next(name for name, bits in laws if bits >> first & 1)
            subject = grid.grid_set(base + first)
            return SpaceCheckReport(False, base + first + 1, SpaceCheckViolation(failed, subject))
    return SpaceCheckReport(True, spec.size)


# The classes a search can name, strongest first: the verdicts of
# semiclass.set_verdicts, spelled with "-" for "_".
SET_CLASSES = tuple(name.replace("_", "-") for name in _CLASSES)


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

    def __str__(self) -> str:
        return f"{self.have}-not-{self.avoid}"


def find_witness(
    space: FuzzyTopology, target: SearchTarget, spec: GridSpec
) -> FiniteFuzzySet | None:
    """First grid set in enumeration order matching the target, else None.

    The grid is searched a block of ranks at a time as :func:`check_space`
    checks it (``gridbits.GridBits``), but only the verdicts are derived:
    no ``Cl(s)`` is selected, and only the witness, the lowest set bit of
    the first block holding one, is built as a set.
    A None is grid-relative only: a finer grid (or none at all) may still
    hold a witness.  The topology's own degrees need not lie on the grid;
    classification is exact either way, the grid only bounds the search.
    """
    _grid_universe(spec, space._finite_universe("grid enumeration"))
    grid = GridBits(space, spec.k)
    have, avoid = target._positions()
    for base, prefix in grid.blocks():
        verdicts = grid.verdicts(base, prefix)
        hits = verdicts[have] & ~verdicts[avoid]
        if hits:
            return grid.grid_set(base + (hits & -hits).bit_length() - 1)
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
        data = asdict(self)
        failures = data.pop("failures")
        return {**data, "ok": self.ok, "failures": list(failures)}


MAX_CAMPAIGN_SUBBASIS = 4


def run_campaign(seeds: int, universe_size: int, k: int) -> CampaignResult:
    """Seeded sweep: space laws, closed-form agreement, function laws.

    Per seed i this builds a random space, runs :func:`check_space` on
    it, compares the closed-form semi-interior against
    :func:`brute_semi_interior` on a random grid set, then builds a
    second random space plus a random crisp map and classifies the map,
    which re-asserts the function-level equivalences and the implication
    chain.  Every seed compares: the space and the set lie on the grid,
    so the brute force sees every grid set below the set, and a closed
    form off the grid is a disagreement, not a skipped comparison.  So
    ``agreements_checked`` and ``functions_checked`` equal ``seeds``.
    All randomness derives from the seed index, so reports are
    bit-for-bit reproducible.  The grid is a ``GridSpec``, so one above
    ``DEFAULT_ENUMERATION_BUDGET`` sets raises ``ResourceCapError``; each
    space comes from at most ``MAX_CAMPAIGN_SUBBASIS`` subbasis sets, at
    most 168 members, well inside the default generation cap.
    """
    if seeds < 1:
        raise ValueError(f"seeds must be >= 1, got {seeds}")
    spec = GridSpec(universe_size, k)
    failures: list[CampaignFailure] = []
    sets_checked = 0
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
        brute = brute_semi_interior(space, s, spec)
        if closed_form != brute:
            failures.append(
                CampaignFailure(
                    "semi-interior-agreement",
                    seed,
                    f"closed form {closed_form!r} != brute force {brute!r} on {s!r}",
                )
            )

        codomain = _random_space(rng, spec, rng.randint(0, MAX_CAMPAIGN_SUBBASIS))
        mapping = {x: rng.choice(codomain.universe.labels) for x in space.universe}
        fn = FuzzyFunction.from_mapping(space, codomain, mapping)
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
        agreements_checked=seeds,
        functions_checked=seeds,
        failures=tuple(failures),
    )
