"""Piecewise-linear fuzzy sets on the unit interval, exact throughout.

Membership functions are continuous piecewise-linear maps ``[0,1] -> [0,1]``
given by breakpoints ``(x, y)`` with rational coordinates: the first x is 0,
the last is 1, x strictly increases, and the value between breakpoints is
the linear interpolation.  Min, max, and complement of such functions are
again piecewise-linear with rational breakpoints, because segment crossings
solve linear equations; everything here is computed exactly, with no
epsilon anywhere.

Binary operations (meet, join, order) sweep both breakpoint lists once
with two pointers, so one of them on sets with m and n breakpoints costs
O(m + n) exact rational steps; variadic meet and join fold pairwise.

Construction always canonicalizes (interior breakpoints collinear with
their neighbours are dropped), so structural equality coincides with
pointwise equality and sets can be used as dict keys and topology members.
The public constructor also validates every breakpoint; lattice results,
computed from valid sets, skip that validation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .degrees import ONE, ZERO, as_degree
from .errors import BackendMismatchError

__all__ = ["PLFuzzySet"]

Breakpoint = tuple[Fraction, Fraction]


def _canonicalize(points: Sequence[Breakpoint]) -> tuple[Breakpoint, ...]:
    """Drop interior points collinear with their neighbours.

    An interior point is removable iff the segment from the last kept point
    to the next point passes through it; testing against the last *kept*
    point (not the raw predecessor) collapses whole collinear runs.
    """
    result: list[Breakpoint] = [points[0]]
    for index in range(1, len(points) - 1):
        x0, y0 = result[-1]
        x1, y1 = points[index]
        x2, y2 = points[index + 1]
        if (y1 - y0) * (x2 - x1) == (y2 - y1) * (x1 - x0):
            continue
        result.append(points[index])
    result.append(points[-1])
    return tuple(result)


def _interpolate(left: Breakpoint, right: Breakpoint, x: Fraction) -> Fraction:
    (x0, y0), (x1, y1) = left, right
    return y0 + (y1 - y0) * (x - x0) / (x1 - x0)


def _walk(
    p: Sequence[Breakpoint], q: Sequence[Breakpoint]
) -> Iterator[tuple[Fraction, Fraction, Fraction]]:
    """Yield ``(x, f(x), g(x))`` at every breakpoint x of either f or g, in order.

    ``p`` and ``q`` are the breakpoint lists of f and g.  Two pointers walk
    both lists once, so the sweep takes O(m + n) steps for m and n
    breakpoints: at an x where only one function has a breakpoint, the
    other is interpolated on its current segment, whose right end is the
    breakpoint its pointer rests on.  Both lists start at 0 and end at 1,
    so the pointers leave their lists together.
    """
    i = j = 0
    while i < len(p):
        (px, py), (qx, qy) = p[i], q[j]
        if px == qx:
            yield px, py, qy
            i += 1
            j += 1
        elif px < qx:
            yield px, py, _interpolate(q[j - 1], q[j], px)
            i += 1
        else:
            yield qx, _interpolate(p[i - 1], p[i], qx), qy
            j += 1


@dataclass(frozen=True)
class PLFuzzySet:
    """A continuous piecewise-linear membership function on ``[0, 1]``."""

    breakpoints: tuple[Breakpoint, ...]

    def __post_init__(self) -> None:
        points = self.breakpoints
        if len(points) < 2:
            raise ValueError("need at least the two endpoint breakpoints")
        if points[0][0] != ZERO or points[-1][0] != ONE:
            raise ValueError("breakpoints must start at x=0 and end at x=1")
        for (x0, y0), (x1, y1) in zip(points, points[1:]):
            if x1 <= x0:
                raise ValueError(f"x-coordinates must strictly increase: {x0} then {x1}")
        for x, y in points:
            if not isinstance(x, Fraction) or not isinstance(y, Fraction):
                raise ValueError(f"breakpoint ({x!r}, {y!r}) is not exact-rational")
            if y < ZERO or y > ONE:
                raise ValueError(f"membership value {y} outside [0, 1]")
        canonical = _canonicalize(points)
        if canonical != points:
            object.__setattr__(self, "breakpoints", canonical)

    @classmethod
    def from_breakpoints(cls, pairs: Iterable[tuple[object, object]]) -> "PLFuzzySet":
        """Build from ``(x, y)`` pairs of ints, Fractions, or "p/q" strings."""
        return cls(tuple((as_degree(x), as_degree(y)) for x, y in pairs))

    @classmethod
    def constant(cls, value: object) -> "PLFuzzySet":
        degree = as_degree(value)
        return cls(((ZERO, degree), (ONE, degree)))

    @classmethod
    def zero(cls) -> "PLFuzzySet":
        return cls.constant(0)

    @classmethod
    def one(cls) -> "PLFuzzySet":
        return cls.constant(1)

    def at(self, x: Fraction | int | str) -> Fraction:
        """Evaluate at a rational point by exact linear interpolation."""
        x = as_degree(x)  # the domain is [0, 1], same range as degrees
        points = self.breakpoints
        for left, right in zip(points, points[1:]):
            if left[0] <= x <= right[0]:
                return left[1] if x == left[0] else _interpolate(left, right, x)
        raise AssertionError("unreachable: breakpoints cover [0, 1]")

    def _pointwise(self, op, others: tuple["PLFuzzySet", ...]) -> "PLFuzzySet":
        """Fold ``op`` (min or max) over ``others``, one linear sweep per pair.

        Between consecutive merged x-coordinates both functions are linear,
        so the difference changes sign inside a cell only if it has strictly
        opposite signs at the cell ends; the crossing then solves a linear
        equation and is rational, and becomes a breakpoint of the result.
        """
        result = self
        for other in others:
            self._require_compatible(other)
            points: list[Breakpoint] = []
            x0 = a0 = d0 = ZERO
            for x, a, b in _walk(result.breakpoints, other.breakpoints):
                d = a - b
                if (d0 > 0 and d < 0) or (d0 < 0 and d > 0):
                    t = d0 / (d0 - d)  # both functions meet at x0 + t * (x - x0)
                    points.append((x0 + t * (x - x0), a0 + t * (a - a0)))
                points.append((x, op(a, b)))
                x0, a0, d0 = x, a, d
            result = _trusted(_canonicalize(points))
        return result

    def meet(self, *others: "PLFuzzySet") -> "PLFuzzySet":
        """Pointwise minimum of self and every set in ``others``, folded pairwise."""
        return self._pointwise(min, others)

    def join(self, *others: "PLFuzzySet") -> "PLFuzzySet":
        """Pointwise maximum of self and every set in ``others``, folded pairwise."""
        return self._pointwise(max, others)

    def complement(self) -> "PLFuzzySet":
        # y -> 1 - y keeps collinearity, so the result is canonical already.
        return _trusted(tuple((x, ONE - y) for x, y in self.breakpoints))

    def leq(self, other: "PLFuzzySet") -> bool:
        """Pointwise order, decided exactly in one sweep of O(m + n) steps.

        Checking the merged breakpoints suffices: both functions are linear
        on every merged segment, and a linear inequality on a segment holds
        iff it holds at both ends.  The sweep stops at the first violation.
        """
        self._require_compatible(other)
        return all(a <= b for _, a, b in _walk(self.breakpoints, other.breakpoints))

    def is_zero(self) -> bool:
        return all(y == ZERO for _, y in self.breakpoints)

    def bottom(self) -> "PLFuzzySet":
        return PLFuzzySet.zero()

    def top(self) -> "PLFuzzySet":
        return PLFuzzySet.one()

    def sort_key(self) -> tuple[Breakpoint, ...]:
        return self.breakpoints

    def _require_compatible(self, other: object) -> None:
        """Raise unless ``other`` is a PL set; all of them share ``[0, 1]``."""
        if not isinstance(other, PLFuzzySet):
            raise BackendMismatchError(f"expected PLFuzzySet, got {type(other).__name__}")

    def __repr__(self) -> str:
        inside = ", ".join(f"({x}, {y})" for x, y in self.breakpoints)
        return f"PLFuzzySet([{inside}])"


def _trusted(points: tuple[Breakpoint, ...]) -> PLFuzzySet:
    """Wrap canonical, valid breakpoints without ``__post_init__``.

    Only lattice results come through here: their x-coordinates are the
    increasing merged grid of valid sets and their values stay in ``[0, 1]``.
    """
    value = object.__new__(PLFuzzySet)
    object.__setattr__(value, "breakpoints", points)
    return value
