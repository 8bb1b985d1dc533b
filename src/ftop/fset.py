"""Finite-universe fuzzy sets under the pointwise min/max lattice.

A fuzzy set over a finite universe assigns each point an exact rational
degree.  Meet and join are pointwise min and max, complement is ``1 - v``,
and the order is pointwise ``<=``; together these make the sets over one
universe a complete distributive lattice with the all-zero set at the
bottom and the all-one set at the top.  All values are immutable and every
operation is pure.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from operator import or_
from typing import Iterable, Iterator, Mapping, Sequence

from .degrees import ONE, ZERO, as_degree
from .errors import BackendMismatchError, UniverseMismatchError

__all__ = ["Universe", "FiniteFuzzySet", "join_family", "inf_family"]


@dataclass(frozen=True)
class Universe:
    """Ordered finite list of distinct point labels.

    The order is fixed at construction and gives every label a canonical
    index; two universes are interchangeable exactly when their label
    lists are identical.
    """

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.labels:
            raise ValueError("universe must be non-empty")
        if any(not isinstance(label, str) or not label for label in self.labels):
            raise ValueError("universe labels must be non-empty strings")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"duplicate labels in universe: {self.labels}")

    @classmethod
    def of(cls, *labels: str) -> "Universe":
        return cls(tuple(labels))

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self) -> Iterator[str]:
        return iter(self.labels)

    def __contains__(self, label: object) -> bool:
        return label in self.labels

    @cached_property
    def _positions(self) -> dict[str, int]:
        return {label: index for index, label in enumerate(self.labels)}

    def index(self, label: str) -> int:
        try:
            return self._positions[label]
        except KeyError:
            raise KeyError(f"label {label!r} not in universe {self.labels}") from None


@dataclass(frozen=True)
class FiniteFuzzySet:
    """A fuzzy set over a finite universe, one exact degree per point.

    Structural equality is semantic equality: two sets are equal iff they
    share a universe and agree at every point.
    """

    universe: Universe
    degrees: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.degrees) != len(self.universe):
            raise ValueError(
                f"{len(self.degrees)} degrees for universe of size {len(self.universe)}"
            )
        for value in self.degrees:
            if not isinstance(value, Fraction) or value < ZERO or value > ONE:
                raise ValueError(f"invalid degree {value!r}; use as_degree()")

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
            values = tuple(as_degree(degrees[label]) for label in universe)
        else:
            values = tuple(as_degree(value) for value in degrees)
        return cls(universe, values)

    @classmethod
    def constant(cls, universe: Universe, value: object) -> "FiniteFuzzySet":
        degree = as_degree(value)
        return cls(universe, (degree,) * len(universe))

    @classmethod
    def zero(cls, universe: Universe) -> "FiniteFuzzySet":
        return cls(universe, (ZERO,) * len(universe))

    @classmethod
    def one(cls, universe: Universe) -> "FiniteFuzzySet":
        return cls(universe, (ONE,) * len(universe))

    def at(self, label: str) -> Fraction:
        return self.degrees[self.universe.index(label)]

    def by_label(self) -> dict[str, Fraction]:
        return dict(zip(self.universe.labels, self.degrees))

    def _require_compatible(self, other: object) -> None:
        """Raise unless ``other`` is a finite set over the same universe."""
        if not isinstance(other, FiniteFuzzySet):
            raise BackendMismatchError(f"expected FiniteFuzzySet, got {type(other).__name__}")
        if other.universe is not self.universe and other.universe != self.universe:
            raise UniverseMismatchError(
                f"universes differ: {self.universe.labels} vs {other.universe.labels}"
            )

    def complement(self) -> "FiniteFuzzySet":
        return _trusted(self.universe, tuple(ONE - value for value in self.degrees))

    def _pointwise(self, op, others: tuple["FiniteFuzzySet", ...]) -> "FiniteFuzzySet":
        columns = [self.degrees]
        for other in others:
            self._require_compatible(other)
            columns.append(other.degrees)
        return _trusted(self.universe, tuple(map(op, *columns))) if others else self

    def meet(self, *others: "FiniteFuzzySet") -> "FiniteFuzzySet":
        """Pointwise minimum of self and every set in ``others``, in one pass."""
        return self._pointwise(min, others)

    def join(self, *others: "FiniteFuzzySet") -> "FiniteFuzzySet":
        """Pointwise maximum of self and every set in ``others``, in one pass."""
        return self._pointwise(max, others)

    def leq(self, other: "FiniteFuzzySet") -> bool:
        """Pointwise order: true iff ``self(x) <= other(x)`` everywhere."""
        self._require_compatible(other)
        return all(a <= b for a, b in zip(self.degrees, other.degrees))

    def is_zero(self) -> bool:
        return all(value == ZERO for value in self.degrees)

    def support(self) -> tuple[str, ...]:
        """Labels with strictly positive degree."""
        return tuple(
            label for label, value in zip(self.universe.labels, self.degrees) if value > ZERO
        )

    def bottom(self) -> "FiniteFuzzySet":
        return FiniteFuzzySet.zero(self.universe)

    def top(self) -> "FiniteFuzzySet":
        return FiniteFuzzySet.one(self.universe)

    def sort_key(self) -> tuple[Fraction, ...]:
        return self.degrees

    def __repr__(self) -> str:
        inside = ", ".join(
            f"{label}: {value}" for label, value in zip(self.universe.labels, self.degrees)
        )
        return f"FiniteFuzzySet({{{inside}}})"


def _trusted(universe: Universe, degrees: tuple[Fraction, ...]) -> FiniteFuzzySet:
    """Build a set from degrees already known valid, skipping ``__post_init__``.

    Only values valid by construction come through here: lattice results
    (min, max and ``1 - v`` of degrees in ``[0, 1]`` stay in ``[0, 1]``),
    grid sets of ``oracle.enumerate_grid_sets`` and the preimages and
    images of ``functions.FuzzyFunction``, one degree per point each.
    """
    value = object.__new__(FiniteFuzzySet)
    object.__setattr__(value, "universe", universe)
    object.__setattr__(value, "degrees", degrees)
    return value


class _MemberIndex:
    """Greatest-member-below queries on a finite topology, by integer bitmasks.

    Bits number the members in lexicographic order of their degrees.  That
    order extends the pointwise one, so a member strictly below another
    gets the lower bit.  Every degree is stored as the integer ``m(x) * L``,
    where ``L`` is the lcm of all member denominators, and each point keeps
    its distinct stored values in ascending order, each with the mask of
    the members at or below that value there.

    ``m(x) <= s(x)`` iff ``m(x) * L <= floor(s(x) * L)``, because
    ``m(x) * L`` is an integer, so the members below a query ``s`` are the
    AND of one prefix mask per point, and queries never change ``L``.
    The members are trusted to be closed under join, as in
    ``FuzzyTopology``: then the join of the members below ``s`` is one of
    them and lies above all the others, so it has the highest set bit.
    """

    def __init__(self, members: Sequence[FiniteFuzzySet]):
        ordered = sorted(members, key=FiniteFuzzySet.sort_key)
        self._members = tuple(ordered)
        self._complements = tuple(member.complement() for member in ordered)
        self._scale = scale = math.lcm(
            *(degree.denominator for member in ordered for degree in member.degrees)
        )
        self._columns = []
        for column in zip(*(member.degrees for member in ordered)):
            masks: dict[int, int] = {}
            for bit, degree in enumerate(column):
                value = degree.numerator * scale // degree.denominator
                masks[value] = masks.get(value, 0) | 1 << bit
            values = sorted(masks)
            self._columns.append((values, list(accumulate((masks[v] for v in values), or_))))

    def interior(self, s: FiniteFuzzySet) -> FiniteFuzzySet:
        """The greatest member below ``s``: thresholds ``floor(s(x) * L)``."""
        scale, mask = self._scale, -1
        for (values, prefix), d in zip(self._columns, s.degrees):
            mask &= prefix[bisect_right(values, d.numerator * scale // d.denominator) - 1]
        return self._members[mask.bit_length() - 1]

    def closure(self, s: FiniteFuzzySet) -> FiniteFuzzySet:
        """The complement of the greatest member below ``1 - s``.

        ``m(x) <= 1 - s(x)`` iff ``m(x) * L <= L - ceil(s(x) * L)``, and that
        dual threshold is ``floor((q - p) * L / q)`` for ``s(x) = p / q``, so
        the member is selected without computing ``1 - s``.
        """
        scale, mask = self._scale, -1
        for (values, prefix), d in zip(self._columns, s.degrees):
            q = d.denominator
            mask &= prefix[bisect_right(values, (q - d.numerator) * scale // q) - 1]
        return self._complements[mask.bit_length() - 1]


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
