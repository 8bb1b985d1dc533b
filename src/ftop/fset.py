"""Finite-universe fuzzy sets under the pointwise min/max lattice.

A fuzzy set over a finite universe assigns each point an exact rational
degree.  Meet and join are pointwise min and max, complement is ``1 - v``,
and the order is pointwise ``<=``; together these make the sets over one
universe a complete distributive lattice with the all-zero set at the
bottom and the all-one set at the top.  All values are immutable and every
operation is pure.

Degrees are held as integer numerators over one integer scale per set, so
the lattice operations, the order and the interior/closure kernel run on
plain ints.  They stay exact rationals: ``Fraction`` appears only in the
public constructor and the derived ``degrees`` view.  Every set built
from degrees, by the public constructor or the document reader, comes
from integer ratios ``(p, q)`` through the one entry :func:`_from_ratios`.

Sets are checked where they enter: the public ``meet``, ``join`` and
``leq`` check that every argument is a finite set over the same universe
(``_require_compatible``), and then run the unchecked binary primitives
:func:`_meet`, :func:`_join` and :func:`_leq`.  Code that holds sets it
built or checked already, such as ``topology`` and ``semiclass``, calls
those primitives directly, as the methods ``_meet``, ``_join`` and
``_leq``, and asks :func:`_meets` whether two sets meet, ``f /\\ g != 0``,
without building the meet.

Sets are built by setting their three slots through the class's own slot
member descriptors, bound once at import: a frozen dataclass refuses
``setattr``, and ``object.__setattr__`` looks the descriptor up again on
every call.  A set built without checks (:func:`_trusted`), as every
lattice result is, took 0.34 µs that way against 0.68 µs (3 points,
Python 3.11.7, 2-core KVM guest).

Tuples are built from lists, never from generators or ``map``: CPython
builds a tuple from an iterator of unknown length by resizing it, and
when such a tuple is freed it joins the free list for its length, which
then only grows, up to 2000 tuples per length.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from operator import le, or_
from typing import Iterable, Iterator, Mapping, Sequence

from .degrees import as_degree
from .errors import BackendMismatchError, UniverseMismatchError

__all__ = ["Universe", "FiniteFuzzySet", "join_family", "inf_family"]


@dataclass(frozen=True)
class Universe:
    """Ordered finite list of distinct point labels.

    The order is fixed at construction and gives every label a canonical
    index; two universes are interchangeable exactly when their label
    lists are identical.  The labels are kept as a tuple, whatever
    sequence they come in, so a universe is always hashable.
    """

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if isinstance(self.labels, str):
            raise TypeError(
                f"universe labels must be a sequence, not the string {self.labels!r}; "
                "use Universe.of(...) or a tuple"
            )
        object.__setattr__(self, "labels", tuple(self.labels))
        if not self.labels:
            raise ValueError("universe must be non-empty")
        if any(not isinstance(label, str) or not label for label in self.labels):
            raise ValueError("universe labels must be non-empty strings")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"duplicate labels in universe: {self.labels}")

    @classmethod
    def of(cls, *labels: str) -> "Universe":
        return cls(labels)

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self) -> Iterator[str]:
        return iter(self.labels)

    def __contains__(self, label: object) -> bool:
        return isinstance(label, str) and label in self._positions

    @cached_property
    def _positions(self) -> dict[str, int]:
        return {label: index for index, label in enumerate(self.labels)}

    def index(self, label: str) -> int:
        try:
            return self._positions[label]
        except KeyError:
            raise KeyError(f"label {label!r} not in universe {self.labels}") from None


@dataclass(frozen=True, init=False, eq=False, repr=False, slots=True)
class FiniteFuzzySet:
    """A fuzzy set over a finite universe, one exact degree per point.

    The degree at point ``i`` is ``nums[i] / scale``, where ``scale`` is
    the lcm of the reduced denominators, or equivalently the one positive
    scale with ``gcd(scale, *nums) == 1``.  That form is canonical, so
    structural equality is semantic equality: two sets are equal iff they
    share a universe and agree at every point, and ``==`` and ``hash``
    compare the integers only.  ``degrees`` is a derived read-only tuple
    of Fractions for the library API and ``repr``.  Setting
    or deleting a field raises ``FrozenInstanceError``; any other name
    raises ``TypeError`` or ``AttributeError``, by CPython version.
    """

    universe: Universe
    scale: int
    nums: tuple[int, ...]

    def __init__(self, universe: Universe, degrees: Sequence[Fraction]) -> None:
        if len(degrees) != len(universe):
            raise ValueError(f"{len(degrees)} degrees for universe of size {len(universe)}")
        for value in degrees:
            if not isinstance(value, Fraction) or not 0 <= value.numerator <= value.denominator:
                raise ValueError(f"invalid degree {value!r}; use as_degree()")
        canonical = _from_ratios(universe, [(v.numerator, v.denominator) for v in degrees])
        _set_universe(self, universe)
        _set_scale(self, canonical.scale)
        _set_nums(self, canonical.nums)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not FiniteFuzzySet:
            return NotImplemented
        return (
            self.nums == other.nums
            and self.scale == other.scale
            and (self.universe is other.universe or self.universe == other.universe)
        )

    def __hash__(self) -> int:
        return hash((self.scale, self.nums))

    @property
    def degrees(self) -> tuple[Fraction, ...]:
        scale = self.scale
        return tuple([Fraction(n, scale) for n in self.nums])

    @classmethod
    def of(cls, universe: Universe, degrees: Mapping[str, object] | Iterable[object]) -> "FiniteFuzzySet":
        """Build from a label mapping or an iterable in universe order.

        Values go through :func:`ftop.degrees.as_degree`, so ints, strings
        like ``"1/2"``, and Fractions are all accepted; floats are not.
        """
        if isinstance(degrees, Mapping):
            missing = [label for label in universe if label not in degrees]
            if missing:
                raise KeyError(f"missing degrees for labels {missing}")
            extra = [label for label in degrees if label not in universe]
            if extra:
                raise KeyError(f"degrees given for unknown labels {extra}")
            values = tuple([as_degree(degrees[label]) for label in universe])
        elif isinstance(degrees, str):
            raise TypeError(f"degrees must be a mapping or a tuple, not the string {degrees!r}")
        else:
            values = tuple([as_degree(value) for value in degrees])
        return cls(universe, values)

    @classmethod
    def constant(cls, universe: Universe, value: object) -> "FiniteFuzzySet":
        degree = as_degree(value)
        return cls(universe, (degree,) * len(universe))

    @classmethod
    def zero(cls, universe: Universe) -> "FiniteFuzzySet":
        return _trusted(universe, 1, (0,) * len(universe))

    @classmethod
    def one(cls, universe: Universe) -> "FiniteFuzzySet":
        return _trusted(universe, 1, (1,) * len(universe))

    def at(self, label: str) -> Fraction:
        return Fraction(self.nums[self.universe.index(label)], self.scale)

    def by_label(self) -> dict[str, Fraction]:
        return dict(zip(self.universe.labels, self.degrees))

    def _require_compatible(self, other: object) -> None:
        """Raise unless ``other`` is a finite set over the same universe."""
        if other.__class__ is FiniteFuzzySet and other.universe is self.universe:
            return
        if not isinstance(other, FiniteFuzzySet):
            raise BackendMismatchError(f"expected FiniteFuzzySet, got {type(other).__name__}")
        if other.universe is not self.universe and other.universe != self.universe:
            raise UniverseMismatchError(
                f"universes differ: {self.universe.labels} vs {other.universe.labels}"
            )

    def complement(self) -> "FiniteFuzzySet":
        """``1 - v`` pointwise; ``scale - n`` keeps the scale canonical."""
        scale = self.scale
        return _trusted(self.universe, scale, tuple([scale - n for n in self.nums]))

    def _pointwise(self, op, others: tuple["FiniteFuzzySet", ...]) -> "FiniteFuzzySet":
        """``op`` (min or max) of self and ``others``, folded pairwise, as in ``plin``.

        Each set is checked as the fold reaches it, then combined with the
        result so far by the unchecked :func:`_combine`.
        """
        result = self
        for other in others:
            self._require_compatible(other)
            result = _combine(op, result, other)
        return result

    def meet(self, *others: "FiniteFuzzySet") -> "FiniteFuzzySet":
        """Pointwise minimum of self and every set in ``others``, folded pairwise."""
        return self._pointwise(min, others)

    def join(self, *others: "FiniteFuzzySet") -> "FiniteFuzzySet":
        """Pointwise maximum of self and every set in ``others``, folded pairwise."""
        return self._pointwise(max, others)

    def leq(self, other: "FiniteFuzzySet") -> bool:
        """Pointwise order: true iff ``self(x) <= other(x)`` everywhere.

        On different scales ``a / p <= b / q`` is compared as ``a * q <= b * p``.
        """
        self._require_compatible(other)
        return _leq(self, other)

    def is_zero(self) -> bool:
        return not any(self.nums)

    def support(self) -> tuple[str, ...]:
        """Labels with strictly positive degree."""
        return tuple([label for label, n in zip(self.universe.labels, self.nums) if n])

    def bottom(self) -> "FiniteFuzzySet":
        return FiniteFuzzySet.zero(self.universe)

    def top(self) -> "FiniteFuzzySet":
        return FiniteFuzzySet.one(self.universe)

    def _order_key(self, scale: int) -> tuple[int, ...]:
        """The numerators over ``scale``, a multiple of the own scale.

        On one ``scale`` these keys order sets lexicographically by their
        degrees, the canonical member order.
        """
        return _rescaled(self, scale)

    def __repr__(self) -> str:
        inside = ", ".join(
            f"{label}: {value}" for label, value in zip(self.universe.labels, self.degrees)
        )
        return f"FiniteFuzzySet({{{inside}}})"


_new = object.__new__
_set_universe = FiniteFuzzySet.__dict__["universe"].__set__
_set_scale = FiniteFuzzySet.__dict__["scale"].__set__
_set_nums = FiniteFuzzySet.__dict__["nums"].__set__


def _trusted(universe: Universe, scale: int, nums: tuple[int, ...]) -> FiniteFuzzySet:
    """Build a set from a canonical ``(scale, nums)`` pair, skipping all checks.

    Only pairs canonical by construction come through here: each of
    ``0 <= n <= scale`` holds and ``gcd(scale, *nums) == 1``.  Complements
    keep their scale, since ``gcd(scale, scale - n) == gcd(scale, n)``;
    everything else goes through :func:`_reduced` first.
    """
    value = _new(FiniteFuzzySet)
    _set_universe(value, universe)
    _set_scale(value, scale)
    _set_nums(value, nums)
    return value


def _reduced(universe: Universe, scale: int, nums: tuple[int, ...]) -> FiniteFuzzySet:
    """The set ``nums / scale``, canonical after dividing out ``gcd(scale, *nums)``.

    For :func:`_from_ratios`, lattice results, the grid sets of ``oracle``
    and the preimages and images of ``functions.FuzzyFunction``: their
    numerators lie in ``[0, scale]`` by construction, but may share a
    factor with it.
    """
    g = math.gcd(scale, *nums)
    if g != 1:
        scale //= g
        nums = tuple([n // g for n in nums])
    return _trusted(universe, scale, nums)


def _from_ratios(universe: Universe, ratios: Sequence[tuple[int, int]]) -> FiniteFuzzySet:
    """The set with degree ``p / q`` at point i, for ``ratios[i] = (p, q)``.

    The one entry from degrees, for the public constructor and the
    document reader, which check the count and ``0 <= p <= q`` first.  The
    ratios are brought to the lcm of the ``q``; a document's pairs need
    not be in lowest terms, so :func:`_reduced` divides out the gcd.
    """
    scale = math.lcm(*[q for _, q in ratios])
    return _reduced(universe, scale, tuple([p * (scale // q) for p, q in ratios]))


def _rescaled(value: FiniteFuzzySet, scale: int) -> tuple[int, ...]:
    """The numerators of ``value`` over ``scale``, a multiple of its own scale."""
    factor = scale // value.scale
    return value.nums if factor == 1 else tuple([n * factor for n in value.nums])


def _leq(f: FiniteFuzzySet, g: FiniteFuzzySet) -> bool:
    """``f <= g`` at every point, for sets over one universe; nothing is checked."""
    p, q = f.scale, g.scale
    if p == q:
        return all(map(le, f.nums, g.nums))
    for a, b in zip(f.nums, g.nums):
        if a * q > b * p:
            return False
    return True


def _combine(op, f: FiniteFuzzySet, g: FiniteFuzzySet) -> FiniteFuzzySet:
    """``op`` (min or max) of f and g at every point, over the lcm of their scales."""
    scale = f.scale
    if g.scale == scale:
        return _reduced(f.universe, scale, tuple(list(map(op, f.nums, g.nums))))
    scale = math.lcm(scale, g.scale)
    values = map(op, _rescaled(f, scale), _rescaled(g, scale))
    return _reduced(f.universe, scale, tuple(list(values)))


def _meets(f: FiniteFuzzySet, g: FiniteFuzzySet) -> bool:
    """``f /\\ g != 0``: some point is positive in both, on any two scales."""
    return any(map(min, f.nums, g.nums))


def _meet(f: FiniteFuzzySet, g: FiniteFuzzySet) -> FiniteFuzzySet:
    return _combine(min, f, g)


def _join(f: FiniteFuzzySet, g: FiniteFuzzySet) -> FiniteFuzzySet:
    return _combine(max, f, g)


# The unchecked binary primitives, for callers that hold sets over one
# universe already: lattice results and members of one space.
FiniteFuzzySet._leq, FiniteFuzzySet._meet, FiniteFuzzySet._join = _leq, _meet, _join
FiniteFuzzySet._meets = _meets


class _MemberIndex:
    """Greatest-member-below queries on a finite topology, by integer bitmasks.

    Every degree is stored as the integer ``m(x) * L``, where ``L`` is the
    lcm of the member scales, so ``m(x) * L = n * L // scale`` exactly.
    Bits number the members in the order given, which ``FuzzyTopology``
    keeps lexicographic in their degrees; that order extends the pointwise
    one, so a member strictly below another gets the lower bit.  Each
    point keeps its distinct stored values in ascending order, each with
    the mask of the members at or below that value there.

    ``m(x) <= s(x)`` iff ``m(x) * L <= floor(s(x) * L)``, because
    ``m(x) * L`` is an integer, so the members below a query ``s`` are the
    AND of one prefix mask per point, and queries never change ``L``.
    The members are trusted to be closed under join, as in
    ``FuzzyTopology``: then the join of the members below ``s`` is one of
    them and lies above all the others, so it has the highest set bit.
    """

    def __init__(self, members: Sequence[FiniteFuzzySet]):
        self._scale = scale = math.lcm(*[member.scale for member in members])
        self._members = tuple(members)
        self._complements = tuple([member.complement() for member in members])
        self._columns = []
        for column in zip(*[_rescaled(member, scale) for member in members]):
            masks: dict[int, int] = {}
            for bit, value in enumerate(column):
                masks[value] = masks.get(value, 0) | 1 << bit
            values = sorted(masks)
            self._columns.append((values, list(accumulate((masks[v] for v in values), or_))))

    def interior(self, s: FiniteFuzzySet) -> FiniteFuzzySet:
        """The greatest member below ``s``: thresholds ``n * L // scale``."""
        scale, q, mask = self._scale, s.scale, -1
        for (values, prefix), n in zip(self._columns, s.nums):
            mask &= prefix[bisect_right(values, n * scale // q) - 1]
        return self._members[mask.bit_length() - 1]

    def closure(self, s: FiniteFuzzySet) -> FiniteFuzzySet:
        """The complement of the greatest member below ``1 - s``.

        ``1 - s(x)`` is ``(scale - n) / scale``, so the dual threshold is
        ``(scale - n) * L // scale`` and the member is selected without
        computing ``1 - s``.
        """
        scale, q, mask = self._scale, s.scale, -1
        for (values, prefix), n in zip(self._columns, s.nums):
            mask &= prefix[bisect_right(values, (q - n) * scale // q) - 1]
        return self._complements[mask.bit_length() - 1]


FiniteFuzzySet._index_type = _MemberIndex


def join_family(
    sets: Sequence[FiniteFuzzySet], universe: Universe | None = None
) -> FiniteFuzzySet:
    """Pointwise supremum of a finite family.

    The empty family returns the all-zero set (bottom), which keeps
    interior computations total; ``universe`` is only needed in that case.
    """
    sets = list(sets)
    if not sets:
        if universe is None:
            raise ValueError("empty family needs an explicit universe")
        return FiniteFuzzySet.zero(universe)
    return sets[0].join(*sets[1:])


def inf_family(
    sets: Sequence[FiniteFuzzySet], universe: Universe | None = None
) -> FiniteFuzzySet:
    """Pointwise infimum; the empty family returns the all-one set (top)."""
    sets = list(sets)
    if not sets:
        if universe is None:
            raise ValueError("empty family needs an explicit universe")
        return FiniteFuzzySet.one(universe)
    return sets[0].meet(*sets[1:])
