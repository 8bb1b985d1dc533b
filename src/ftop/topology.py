"""Finite fuzzy topologies over either set backend.

A topology is a finite family of fuzzy sets that contains the constant 0
and constant 1 and is closed under binary meet and binary join.  For a
finite family, pairwise closure already gives closure under all finite
meets and all joins of subfamilies, so each operator selects one member:

* interior of ``s`` = the greatest member below ``s``: the join of all
  members below ``s`` is itself a member, and below ``s``;
* closure of ``s`` = ``1 - Int(1 - s)``, the complement of the greatest
  member below ``1 - s``: ``s <= 1 - m`` iff ``m <= 1 - s``, so the
  closed sets above ``s`` are the complements of the members below
  ``1 - s``, and their meet is the complement of their join.

Each backend supplies that lookup as an index built once per space.
The public :meth:`FuzzyTopology.interior` and :meth:`FuzzyTopology.closure`
check their argument against the space; the classifiers and the oracle
check a query once and then read ``space._index`` directly.  The
finite index (``fset._MemberIndex``) ANDs integer bitmasks, with dual
thresholds for closure, so it never computes ``1 - s``.  The
piecewise-linear index (``plin._MemberIndex``) sorts the members by exact
mass, descending; interior is the first member below ``s``, and closure
the complement of the first member below ``1 - s``, through the same
order test.

Fuzzy sets under pointwise min and max form a distributive lattice, so
the lattice a subbasis generates is the set of joins of its finite meets:
:func:`generate` builds it in a meet pass and then a join pass, and adds
the constants once at the end.  Both passes skip comparable pairs: if
``a <= b``, the meet is ``a`` and the join is ``b``.

:func:`check_axioms` builds no meet or join to ask whether it is a
member.  The backend's ``_grid`` gives every member's exact values on
one grid of points ``U`` (the points of a finite universe, or the union
of all members' PL breakpoints), and each member is linear on every cell
of ``U``, the interval between adjacent points.  So ``a <= b`` iff it
holds at ``U``; and a member equals ``min(a, b)`` iff it agrees with it
at ``U`` and ``a - b`` changes sign strictly inside no cell, since such a
change is a breakpoint of the min (and of the max) where no member has
one.  The pair loop compares two value vectors, and looks the pointwise
min and max up among the members' vectors; a set is built only as the
witness of a reported violation.  No member is paired with a constant,
which is comparable with every set.

Only the finite backend can be enumerated or mapped point by point;
:meth:`FuzzyTopology._finite_universe` is the one check that a space is
finite, for every caller that needs it.

Membership is semantic: a set is open iff it *equals* some member, not iff
it is listed under the same name.  Members are kept deduplicated and in a
canonical order so that reports and witness selection are deterministic:
lexicographic in the degrees of a finite set, or in the breakpoints of a
PL set, decided by ``_order_key`` on integer keys over the lcm of the
member scales, so no Fraction is built.  The constructor puts
them in that order, so the finite index, ``gridbits`` and ``oracle`` take
``members`` as they are and never sort.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from operator import le, mul, sub
from typing import Iterable, Protocol, Sequence

from .errors import BackendMismatchError, FtopError, ResourceCapError
from .fset import FiniteFuzzySet, Universe

__all__ = [
    "FuzzyValue",
    "AxiomViolation",
    "InvalidTopologyError",
    "FuzzyTopology",
    "check_axioms",
    "validate",
    "generate",
    "DEFAULT_GENERATION_CAP",
]

DEFAULT_GENERATION_CAP = 4096


class FuzzyValue(Protocol):
    """What a set backend must provide for topology-level code.

    ``meet(*others)`` and ``join(*others)`` are the pointwise min and max
    of the value and any number of others, and ``leq`` the pointwise
    order.  These public operations check each argument with
    ``_require_compatible(other)``, which raises ``BackendMismatchError``
    for a value of another backend and ``UniverseMismatchError`` for one
    over another universe.  ``_leq``, ``_meet`` and ``_join`` are the same
    binary operations without that check, for code that holds values it
    built or checked already: a set is checked once, where it enters a
    public entry, and the lattice work behind that entry runs unchecked.
    ``_meets(other)``, also unchecked, is true iff the meet is not zero,
    and builds no set.  ``_grid(members)`` gives each member's exact values
    on one grid of points, as ``(nums, dens)``: value k is
    ``nums[k] / (dens[k] * L)`` over one scale ``L``, equal values have
    equal pairs, and ``dens`` is None iff every denominator is 1; with
    it comes the number of cells between adjacent points on which every
    member is linear (0 for a finite universe).
    ``_index_type(members)`` builds the backend's greatest-member index,
    whose ``interior(s)`` and ``closure(s)`` select a member or its
    complement.  Every value holds its numerators over a positive integer
    ``scale``, and ``_order_key(L)`` for a multiple ``L`` of it is an
    integer sequence whose order over ``L`` is the canonical member order.
    """

    _index_type: type
    scale: int

    def complement(self) -> "FuzzyValue": ...
    def meet(self, *others: "FuzzyValue") -> "FuzzyValue": ...
    def join(self, *others: "FuzzyValue") -> "FuzzyValue": ...
    def leq(self, other: "FuzzyValue") -> bool: ...
    def _meet(self, other: "FuzzyValue") -> "FuzzyValue": ...
    def _join(self, other: "FuzzyValue") -> "FuzzyValue": ...
    def _leq(self, other: "FuzzyValue") -> bool: ...
    def _meets(self, other: "FuzzyValue") -> bool: ...
    @staticmethod
    def _grid(members: Sequence["FuzzyValue"]) -> tuple[list, int]: ...
    def is_zero(self) -> bool: ...
    def bottom(self) -> "FuzzyValue": ...
    def top(self) -> "FuzzyValue": ...
    def _order_key(self, scale: int) -> Sequence[int]: ...
    def _require_compatible(self, other: object) -> None: ...


@dataclass(frozen=True)
class AxiomViolation:
    """One failed topology axiom with the witnessing sets.

    ``axiom`` is ``"i"`` (constants missing), ``"ii"`` (a pairwise meet is
    not a member), or ``"iii"`` (a pairwise join is not a member).
    """

    axiom: str
    detail: str
    witnesses: tuple


class InvalidTopologyError(FtopError, ValueError):
    def __init__(self, violations: Sequence[AxiomViolation]):
        super().__init__("; ".join(v.detail for v in violations))
        self.violations = tuple(violations)


def _in_order(members: Iterable[FuzzyValue]) -> tuple[FuzzyValue, ...]:
    """``members`` in canonical order, compared as integers over one scale.

    ``_order_key(L)`` over the lcm ``L`` of the member scales orders the
    members lexicographically by their degrees or breakpoints, without
    building a Fraction.
    """
    members = list(members)
    scale = math.lcm(*[member.scale for member in members])
    return tuple(sorted(members, key=lambda member: member._order_key(scale)))


def check_axioms(opens: Sequence[FuzzyValue]) -> list[AxiomViolation]:
    """Report every axiom violation in a candidate family (empty = valid).

    Pairwise meet/join closure is checked against semantic membership; for
    a finite family this is equivalent to closure under all finite meets
    and arbitrary joins of subfamilies.  Violations come in member order of
    ``(a, b)``, after any missing constant, with a pair's meet before its join.
    Each distinct member is checked against the first once, up front, so
    a family mixing backends or universes raises at its first odd member,
    and the pairs are compared unchecked.

    The backend's ``_grid`` gives every member's exact values on one grid
    of points ``U``, once: the points of a finite universe, or the union
    of all members' PL breakpoints.  Every member is linear on each cell
    of ``U``, the interval between adjacent points, so ``a <= b`` iff it
    holds at ``U``, and a member equals ``min(a, b)`` iff it agrees with
    it at ``U`` and ``a - b`` changes sign strictly inside no cell: such a
    change is a breakpoint of ``min(a, b)`` and of ``max(a, b)`` inside a
    cell, where no member has one, so both are violations.  Otherwise the
    pointwise min and max at ``U`` are looked up among the members' values,
    the constants included.  A meet or join is built only as the witness
    of a reported violation.
    """
    if not opens:
        raise ValueError("a topology candidate must be a non-empty family")
    members = list(dict.fromkeys(opens))
    first = members[0]
    for member in members:
        first._require_compatible(member)
    member_set = set(members)
    violations: list[AxiomViolation] = []
    bottom, top = first.bottom(), first.top()
    if bottom not in member_set:
        violations.append(AxiomViolation("i", "the constant-0 set is not a member", (bottom,)))
    if top not in member_set:
        violations.append(AxiomViolation("i", "the constant-1 set is not a member", (top,)))
    vectors, cells = first._grid(members)
    inner = [pair for pair in zip(members, vectors) if pair[0] != bottom and pair[0] != top]
    listed = None
    for i, (a, (a_nums, a_dens)) in enumerate(inner):
        for b, (b_nums, b_dens) in inner[i + 1 :]:
            left, right = _over(a_nums, b_dens), _over(b_nums, a_dens)
            if all(map(le, left, right)) or all(map(le, right, left)):
                continue
            gaps = list(map(sub, left, right))
            crossing = any(g0 > 0 > g1 or g0 < 0 < g1 for g0, g1 in zip(gaps[:cells], gaps[1:]))
            if not crossing:
                if listed is None:
                    listed = {_key(*vector) for vector in vectors}
                low = _pick(gaps, (a_nums, a_dens), (b_nums, b_dens))
                high = _pick(gaps, (b_nums, b_dens), (a_nums, a_dens))
            if crossing or low not in listed:
                violations.append(
                    AxiomViolation("ii", "a pairwise meet is not a member", (a, b, a._meet(b)))
                )
            if crossing or high not in listed:
                violations.append(
                    AxiomViolation("iii", "a pairwise join is not a member", (a, b, a._join(b)))
                )
    return violations


def _over(nums: Sequence[int], dens: Sequence[int] | None) -> Sequence[int]:
    """``nums`` times ``dens`` pointwise, or ``nums`` where ``dens`` is None (all 1)."""
    return nums if dens is None else list(map(mul, nums, dens))


def _key(nums: Sequence[int], dens: Sequence[int] | None) -> tuple:
    """Values as one hashable key, equal iff the values are: the numerators
    where every denominator is 1, and else the ``(num, den)`` pairs."""
    return tuple(nums) if dens is None else tuple(list(zip(nums, dens)))


def _pick(gaps: list, first: tuple, second: tuple) -> tuple:
    """The key of ``first``'s value where ``gaps`` is not positive, else ``second``'s.

    ``first`` and ``second`` are ``(nums, dens)``.  With ``gaps`` the signs
    of ``a - b`` at each point, ``_pick(gaps, a, b)`` is the key of
    ``min(a, b)`` and ``_pick(gaps, b, a)`` that of ``max(a, b)``.
    """
    (a_nums, a_dens), (b_nums, b_dens) = first, second
    nums = [x if gap <= 0 else y for gap, x, y in zip(gaps, a_nums, b_nums)]
    if a_dens is None and b_dens is None:
        return tuple(nums)
    ones = repeat(1)
    dens = [x if gap <= 0 else y for gap, x, y in zip(gaps, a_dens or ones, b_dens or ones)]
    return _key(nums, dens if max(dens) > 1 else None)


def validate(opens: Sequence[FuzzyValue]) -> "FuzzyTopology":
    """Return the topology formed by ``opens`` or raise with the violations."""
    violations = check_axioms(opens)
    if violations:
        raise InvalidTopologyError(violations)
    return FuzzyTopology(tuple(set(opens)))


def _require_cap(family: dict, cap: int) -> None:
    if len(family) > cap:
        raise ResourceCapError(
            f"generated family exceeds the cap of {cap} members; "
            "raise the cap explicitly if this is intended"
        )


def _close(generators: Iterable[FuzzyValue], combine, cap: int, check=None) -> dict:
    """Each generator ``g``, with ``combine(m, g)`` for each member ``m`` so far.

    A member comparable with ``g`` is skipped: its meet and join with ``g``
    are ``m`` or ``g``.  ``check(g)``, if given, runs as ``g`` is reached,
    so a generator of another backend or universe raises there, before it
    is compared with anything; the comparisons (``_leq``) and ``combine``
    do not check.  The family starts empty: the constants are comparable
    with every set, so on a chain they would only add comparisons.  The
    ``cap`` is checked after each generator, so the
    family holds at most about twice the cap; the family is a subset of
    the result, so exceeding the cap here means the result does too.
    """
    family: dict = {}
    for g in generators:
        if check is not None:
            check(g)
        grown = [combine(m, g) for m in family if not (m._leq(g) or g._leq(m))]
        family[g] = None
        family.update(dict.fromkeys(grown))
        _require_cap(family, cap)
    return family


def generate(
    subbasis: Sequence[FuzzyValue],
    *,
    universe: Universe | None = None,
    cap: int | None = None,
) -> "FuzzyTopology":
    """Smallest topology containing ``subbasis``: the joins of its finite meets.

    A meet pass builds the base ``{meet(A) : A a non-empty subset of
    subbasis}``, and a join pass all non-empty joins of base members.  The
    constants are added once at the end: 0 is the empty join, and 1 is the
    empty meet, whose join with any member is 1.  The joins are closed
    under meet too: in a distributive lattice ``(a | b) & c = (a & c) |
    (b & c)``, and a meet of base members is a base member (Birkhoff,
    *Lattice Theory*, 1967).  ``universe`` is needed only for an empty
    finite subbasis.  A ``cap`` on the member count (default 4096,
    overridable) turns the potential exponential blow-up into a loud error
    instead of a silent truncation.  Each pass checks the cap as it grows,
    which stops early on a subset of the result, and the final family is
    checked once more, so the error is raised iff the result exceeds the cap.
    The meet pass checks each subbasis set against the constants as it
    reaches it; the members it builds from them are not checked again.
    """
    cap = DEFAULT_GENERATION_CAP if cap is None else cap
    if subbasis:
        bottom, top = subbasis[0].bottom(), subbasis[0].top()
    elif universe is not None:
        bottom, top = FiniteFuzzySet.zero(universe), FiniteFuzzySet.one(universe)
    else:
        raise ValueError("an empty subbasis needs a universe to pick the constants from")
    base = _close(subbasis, lambda m, g: m._meet(g), cap, bottom._require_compatible)
    family = _close(base, lambda m, g: m._join(g), cap)
    family.update(dict.fromkeys((bottom, top)))
    _require_cap(family, cap)
    return FuzzyTopology(tuple(family))


@dataclass(frozen=True)
class FuzzyTopology:
    """An immutable, validated finite fuzzy topology.

    Construct through :func:`validate` or :func:`generate`; the constructor
    itself trusts its input to be a deduplicated topology, and only puts
    ``members`` in canonical order (:func:`_in_order`), which every index
    and report takes as given.  Queries keep no state: interior and
    closure pick an existing member (or its complement), so nothing is
    memoized.
    """

    members: tuple[FuzzyValue, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", _in_order(self.members))

    @cached_property
    def bottom(self) -> FuzzyValue:
        return self.members[0].bottom()

    @cached_property
    def top(self) -> FuzzyValue:
        return self.members[0].top()

    @cached_property
    def _member_set(self) -> frozenset:
        return frozenset(self.members)

    @cached_property
    def _index(self):
        return self.members[0]._index_type(self.members)

    @property
    def universe(self) -> Universe | None:
        """The finite universe, or None for the piecewise-linear backend."""
        first = self.members[0]
        return first.universe if isinstance(first, FiniteFuzzySet) else None

    def _finite_universe(self, what: str) -> Universe:
        """The finite universe, or ``BackendMismatchError`` for a PL space.

        ``what`` names the operation that needs a finite space, for the
        message.  Every finite-only entry point checks through here.
        """
        universe = self.universe
        if universe is None:
            raise BackendMismatchError(f"{what} needs the finite backend")
        return universe

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def _check_value(self, s: FuzzyValue) -> None:
        self.members[0]._require_compatible(s)

    def interior(self, s: FuzzyValue) -> FuzzyValue:
        """Largest open set below ``s``: the greatest member below it."""
        self._check_value(s)
        return self._index.interior(s)

    def closure(self, s: FuzzyValue) -> FuzzyValue:
        """Smallest closed set above ``s``: ``1 - Int(1 - s)``."""
        self._check_value(s)
        return self._index.closure(s)

    def is_open(self, s: FuzzyValue) -> bool:
        """True iff ``s`` semantically equals a member."""
        self._check_value(s)
        return s in self._member_set

    def is_closed(self, s: FuzzyValue) -> bool:
        """True iff the complement of ``s`` is a member."""
        return self.is_open(s.complement())
