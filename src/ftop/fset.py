"""Finite-universe fuzzy sets under the pointwise min/max lattice.

A fuzzy set over a finite universe assigns each point an exact rational
degree.  Meet and join are pointwise min and max, complement is ``1 - v``,
and the order is pointwise ``<=``; together these make the sets over one
universe a complete distributive lattice with the all-zero set at the
bottom and the all-one set at the top.  All values are immutable and every
operation is pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
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
        return FiniteFuzzySet(self.universe, tuple(ONE - value for value in self.degrees))

    def _pointwise(self, op, others: tuple["FiniteFuzzySet", ...]) -> "FiniteFuzzySet":
        columns = [self.degrees]
        for other in others:
            self._require_compatible(other)
            columns.append(other.degrees)
        return FiniteFuzzySet(self.universe, tuple(map(op, *columns))) if others else self

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
