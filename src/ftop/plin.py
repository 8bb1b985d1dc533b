"""Piecewise-linear fuzzy sets on the unit interval, exact throughout.

Membership functions are continuous piecewise-linear maps ``[0,1] -> [0,1]``
given by breakpoints ``(x, y)`` with rational coordinates: the first x is 0,
the last is 1, x strictly increases, and the value between breakpoints is
the linear interpolation.  Min, max, and complement of such functions are
again piecewise-linear with rational breakpoints, because segment crossings
solve linear equations; everything here is computed exactly, with no
epsilon anywhere.

Each set holds one positive integer ``scale`` and integer tuples ``xs`` and
``ys``: breakpoint i is ``(xs[i] / scale, ys[i] / scale)``.  The form is
canonical: interior breakpoints collinear with their neighbours are dropped
and ``gcd(scale, *xs, *ys) == 1``, so structural equality is pointwise
equality and ``==`` and ``hash`` compare integers.  ``breakpoints`` is a
derived tuple of Fractions for the library API and ``repr``.

Binary operations (meet, join, order) sweep both breakpoint lists once
with two pointers, on the lcm of the two scales, so one of them on sets
with m and n breakpoints costs O(m + n) integer steps.  Meet and join
read the merged points from the generator :func:`_walk`; the order test
:func:`_leq`, which interior and closure call once per member tried, is
the same sweep written out as one loop that stops at the first
violation.  A value interpolated on a segment of width ``d`` is kept as
a numerator over ``d * scale``, so comparisons cross-multiply instead of
dividing.  Variadic meet and join fold pairwise.  Every set built from
breakpoints, by the public constructor or the document reader, comes
from integer ratios through the one entry :func:`_from_ratios`, which
states the breakpoint rules; lattice results, computed from valid sets,
skip it.
A topology's interior and closure select a member by its exact mass
(``_MemberIndex``), with no join built; closure is the dual of interior,
``1 - Int(1 - s)``, and tests the order with the same ``_leq``.

Tuples are built from lists, never from generators: CPython builds a
tuple from a generator by resizing it, and when such a tuple is freed it
joins the free list for its length, which then only grows, up to 2000
tuples per length (600 ``classify set`` requests kept 1.6 MB that way).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .degrees import ONE, ZERO, as_degree, format_ratio
from .errors import BackendMismatchError

__all__ = ["PLFuzzySet"]

Breakpoint = tuple[Fraction, Fraction]
Ints = tuple[int, ...]
Column = Sequence[int]  # stored ``Ints`` or a rescaled list


@dataclass(frozen=True, init=False, repr=False, slots=True)
class PLFuzzySet:
    """A continuous piecewise-linear membership function on ``[0, 1]``.

    Breakpoint i is ``(xs[i] / scale, ys[i] / scale)``, in the canonical
    form of the module docstring.  Setting or deleting a field raises
    ``FrozenInstanceError``; any other name raises ``TypeError`` or
    ``AttributeError``, by CPython version.
    """

    scale: int
    xs: Ints
    ys: Ints

    def __init__(self, breakpoints: Sequence[Breakpoint]) -> None:
        """Validate ``(x, y)`` Fraction pairs and store them canonically.

        Exactness is checked first, so every malformed breakpoint raises
        ``ValueError``; then :func:`_from_ratios` checks the rest.
        """
        points = tuple(breakpoints)
        for x, y in points:
            if not isinstance(x, Fraction) or not isinstance(y, Fraction):
                raise ValueError(f"breakpoint ({x!r}, {y!r}) is not exact-rational")
        canonical = _from_ratios(
            [(x.numerator, x.denominator, y.numerator, y.denominator) for x, y in points]
        )
        _set_scale(self, canonical.scale)
        _set_xs(self, canonical.xs)
        _set_ys(self, canonical.ys)

    @property
    def breakpoints(self) -> tuple[Breakpoint, ...]:
        scale = self.scale
        return tuple([(Fraction(x, scale), Fraction(y, scale)) for x, y in zip(self.xs, self.ys)])

    @classmethod
    def from_breakpoints(cls, pairs: Iterable[tuple[object, object]]) -> "PLFuzzySet":
        """Build from ``(x, y)`` pairs of ints, Fractions, or "p/q" strings."""
        return cls([(as_degree(x), as_degree(y)) for x, y in pairs])

    @classmethod
    def constant(cls, value: object) -> "PLFuzzySet":
        degree = as_degree(value)
        return cls(((ZERO, degree), (ONE, degree)))

    @classmethod
    def zero(cls) -> "PLFuzzySet":
        return _trusted(1, (0, 1), (0, 0))

    @classmethod
    def one(cls) -> "PLFuzzySet":
        return _trusted(1, (0, 1), (1, 1))

    def at(self, x: Fraction | int | str) -> Fraction:
        """Evaluate at a rational point by exact linear interpolation."""
        position = as_degree(x) * self.scale  # the domain is [0, 1], same range as degrees
        xs, ys = self.xs, self.ys
        i = bisect_left(xs, position)
        if xs[i] == position:
            return Fraction(ys[i], self.scale)
        x0, y0 = xs[i - 1], ys[i - 1]
        return (y0 + (ys[i] - y0) * (position - x0) / (xs[i] - x0)) / self.scale

    def _pointwise(self, op, others: tuple["PLFuzzySet", ...]) -> "PLFuzzySet":
        """Fold ``op`` (min or max) over ``others``, one linear sweep per pair."""
        result = self
        for other in others:
            self._require_compatible(other)
            result = _combine(op, result, other)
        return result

    def meet(self, *others: "PLFuzzySet") -> "PLFuzzySet":
        """Pointwise minimum of self and every set in ``others``, folded pairwise."""
        return self._pointwise(min, others)

    def join(self, *others: "PLFuzzySet") -> "PLFuzzySet":
        """Pointwise maximum of self and every set in ``others``, folded pairwise."""
        return self._pointwise(max, others)

    def complement(self) -> "PLFuzzySet":
        """``1 - y`` pointwise; ``scale - y`` keeps collinearity and the gcd."""
        scale = self.scale
        return _trusted(scale, self.xs, tuple([scale - y for y in self.ys]))

    def leq(self, other: "PLFuzzySet") -> bool:
        """Pointwise order, decided exactly in one sweep of O(m + n) steps.

        Checking the merged breakpoints suffices: both functions are linear
        on every merged segment, and a linear inequality on a segment holds
        iff it holds at both ends.  The sweep stops at the first violation.
        """
        self._require_compatible(other)
        return _leq(self, other)

    def is_zero(self) -> bool:
        return not any(self.ys)

    def bottom(self) -> "PLFuzzySet":
        return PLFuzzySet.zero()

    def top(self) -> "PLFuzzySet":
        return PLFuzzySet.one()

    def _order_key(self, scale: int) -> list[int]:
        """``xs`` and ``ys`` over ``scale``, a multiple of the own scale, interleaved.

        On one ``scale`` these keys order sets lexicographically by their
        breakpoints, the canonical member order: x, then y, breakpoint by
        breakpoint, and a prefix first.
        """
        factor = scale // self.scale
        return [value * factor for point in zip(self.xs, self.ys) for value in point]

    def _require_compatible(self, other: object) -> None:
        """Raise unless ``other`` is a PL set; all of them share ``[0, 1]``."""
        if not isinstance(other, PLFuzzySet):
            raise BackendMismatchError(f"expected PLFuzzySet, got {type(other).__name__}")

    def __repr__(self) -> str:
        inside = ", ".join(f"({x}, {y})" for x, y in self.breakpoints)
        return f"PLFuzzySet([{inside}])"


# Fields are set through the class's own slot descriptors, as in ``fset``.
_new = object.__new__
_set_scale, _set_xs, _set_ys = [PLFuzzySet.__dict__[name].__set__ for name in ("scale", "xs", "ys")]


def _trusted(scale: int, xs: Ints, ys: Ints) -> PLFuzzySet:
    """Build a set from a canonical ``(scale, xs, ys)`` triple, skipping all checks.

    Only triples canonical by construction come through here; lattice
    results go through :func:`_reduced` first.
    """
    value = _new(PLFuzzySet)
    _set_scale(value, scale)
    _set_xs(value, xs)
    _set_ys(value, ys)
    return value


def _from_ratios(points: Sequence[tuple[int, int, int, int]]) -> PLFuzzySet:
    """The set with breakpoints ``(px / qx, py / qy)``, given as integer quadruples.

    The one entry from breakpoints, for the public constructor and the
    document reader, and the one statement of the breakpoint rules: at
    least two breakpoints, the first x is 0 and the last is 1, x strictly
    increases, and every y lies in ``[0, 1]``.  They are checked on the
    numerators over the lcm of the ``q``; a violation is a ``ValueError``
    naming the values.
    """
    scale = math.lcm(*[q for _, qx, _, qy in points for q in (qx, qy)])
    xs = [px * (scale // qx) for px, qx, _, _ in points]
    ys = [py * (scale // qy) for _, _, py, qy in points]
    if len(xs) < 2:
        raise ValueError("need at least the two endpoint breakpoints")
    if xs[0] != 0 or xs[-1] != scale:
        raise ValueError("breakpoints must start at x=0 and end at x=1")
    for x0, x1 in zip(xs, xs[1:]):
        if x1 <= x0:
            raise ValueError(
                "x-coordinates must strictly increase: "
                f"{format_ratio(x0, scale)} then {format_ratio(x1, scale)}"
            )
    for y in ys:
        if y < 0 or y > scale:
            raise ValueError(f"membership value {format_ratio(y, scale)} outside [0, 1]")
    return _trusted(*_reduced(scale, [(x, y, 1) for x, y in zip(xs, ys)]))


def _reduced(scale: int, points: Sequence[tuple[int, int, int]]) -> tuple[int, Ints, Ints]:
    """The canonical form of valid breakpoints ``(x / (k * scale), y / (k * scale))``.

    An interior point is dropped iff the segment from the last kept point
    to the next point passes through it; testing against the last *kept*
    point (not the raw predecessor) collapses whole collinear runs.  The
    test cross-multiplies the slopes with each point's own ``k``, so it
    runs on small numbers; only the kept points are brought to the lcm of
    their ``k``.  Then ``gcd(scale, *xs, *ys)`` is divided out.
    """
    kept = [points[0]]
    for i in range(1, len(points) - 1):
        x0, y0, k0 = kept[-1]
        x1, y1, k1 = points[i]
        x2, y2, k2 = points[i + 1]
        if (y1 * k0 - y0 * k1) * (x2 * k1 - x1 * k2) != (y2 * k1 - y1 * k2) * (x1 * k0 - x0 * k1):
            kept.append(points[i])
    kept.append(points[-1])
    common = math.lcm(*[k for _, _, k in kept])
    scale *= common
    xs = [x * (common // k) for x, _, k in kept]
    ys = [y * (common // k) for _, y, k in kept]
    g = math.gcd(scale, *xs, *ys)
    if g != 1:
        scale //= g
        xs = [x // g for x in xs]
        ys = [y // g for y in ys]
    return scale, tuple(xs), tuple(ys)


def _on_scale(value: PLFuzzySet, scale: int) -> tuple[Column, Column]:
    """The ``xs`` and ``ys`` of ``value`` over ``scale``, a multiple of its own."""
    if value.scale == scale:
        return value.xs, value.ys
    factor = scale // value.scale
    return [x * factor for x in value.xs], [y * factor for y in value.ys]


def _common(f: PLFuzzySet, g: PLFuzzySet) -> tuple[int, Column, Column, Column, Column]:
    """The lcm ``L`` of both scales, then ``xs`` and ``ys`` of f and of g over it."""
    scale = math.lcm(f.scale, g.scale)
    return (scale, *_on_scale(f, scale), *_on_scale(g, scale))


def _walk(fx: Column, fy: Column, gx: Column, gy: Column) -> Iterator[tuple[int, int, int, int]]:
    """Yield ``(x, a, b, d)`` at every breakpoint of f or g, in order.

    The four columns are the breakpoints of f and g over one scale ``L``.
    At each merged point ``x / L``, f and g take the values ``a / (d * L)``
    and ``b / (d * L)``.  Two pointers walk both lists once, so the sweep
    takes O(m + n) steps for m and n breakpoints.  Where both functions
    have a breakpoint, ``d = 1``.  Where only one has, the other is
    interpolated on its current segment, whose right end is the breakpoint
    its pointer rests on; ``d`` is that segment's width, so the
    interpolated numerator is an integer, and the own value is multiplied
    by ``d``.  Both lists start at 0 and end at 1, so the pointers leave
    their lists together.
    """
    i = j = 0
    while i < len(fx):
        x, u = fx[i], gx[j]
        if x == u:
            yield x, fy[i], gy[j], 1
            i += 1
            j += 1
        elif x < u:
            x0, y0 = gx[j - 1], gy[j - 1]
            d = u - x0
            yield x, fy[i] * d, y0 * d + (gy[j] - y0) * (x - x0), d
            i += 1
        else:
            x0, y0 = fx[i - 1], fy[i - 1]
            d = x - x0
            yield u, y0 * d + (fy[i] - y0) * (u - x0), gy[j] * d, d
            j += 1


def _leq(f: PLFuzzySet, g: PLFuzzySet) -> bool:
    """``f <= g`` at every merged breakpoint, hence everywhere.

    The sweep of :func:`_walk` as one loop that returns at the first
    violation.  At a breakpoint ``x`` of one side only, the other side's
    segment ``[x0, x1]`` gives it ``(y0 (x1 - x) + y1 (x - x0)) / (x1 - x0)``,
    so the own value is multiplied by the width ``x1 - x0``.
    """
    _, fx, fy, gx, gy = _common(f, g)
    i = j = 0
    while i < len(fx):
        x, u = fx[i], gx[j]
        if x == u:
            if fy[i] > gy[j]:
                return False
            i += 1
            j += 1
        elif x < u:
            x0 = gx[j - 1]
            if fy[i] * (u - x0) > gy[j - 1] * (u - x) + gy[j] * (x - x0):
                return False
            i += 1
        else:
            u0 = fx[i - 1]
            if fy[i - 1] * (x - u) + fy[i] * (u - u0) > gy[j] * (x - u0):
                return False
            j += 1
    return True


def _combine(op, f: PLFuzzySet, g: PLFuzzySet) -> PLFuzzySet:
    """``op`` (min or max) of f and g, crossings included, canonical.

    Between consecutive merged points both functions are linear, so their
    difference changes sign inside a cell only if it has strictly opposite
    signs at the cell ends.  With differences ``e0 / d0`` and ``e1 / d1``
    there (over ``L``), the crossing lies at ``t = e0 d1 / (e0 d1 - e1 d0)``
    of the cell; it is rational and becomes a breakpoint of the result.

    Each result point is held as numerators ``(x, y)`` over ``k * L``,
    with the factor ``gcd(k, x, y)`` divided out, until :func:`_reduced`
    brings the kept points to one scale.
    """
    scale, fx, fy, gx, gy = _common(f, g)
    out: list[tuple[int, int, int]] = []
    x0 = a0 = e0 = 0
    d0 = 1
    for x, a, b, d in _walk(fx, fy, gx, gy):
        e = a - b
        if (e0 > 0 and e < 0) or (e0 < 0 and e > 0):
            tn, td = e0 * d, e0 * d - e * d0
            if td < 0:
                tn, td = -tn, -td
            k = d0 * d * td
            cx = (x0 * td + tn * (x - x0)) * d0 * d
            cy = a0 * d * td + tn * (a * d0 - a0 * d)
            c = math.gcd(k, cx, cy)
            out.append((cx // c, cy // c, k // c))
        y = op(a, b)
        c = math.gcd(d, y)  # x * d shares every factor of d
        out.append((x * (d // c), y // c, d // c))
        x0, a0, e0, d0 = x, a, e, d
    return _trusted(*_reduced(scale, out))


def _mass(value: PLFuzzySet) -> int:
    """``2 * scale**2`` times ``∫ value`` over ``[0, 1]``, by the trapezoid rule."""
    xs, ys = value.xs, value.ys
    return sum((x1 - x0) * (y0 + y1) for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:]))


class _MemberIndex:
    """Greatest-member-below queries on a PL topology, by exact mass.

    For continuous functions the mass ``∫ m`` is strictly monotone: if
    ``m <= m'`` and ``m != m'``, they differ on an interval, so
    ``∫ m < ∫ m'``.  The members are trusted to be closed under join, as
    in ``FuzzyTopology``: then the members below ``s`` have a greatest
    one, and every other member below ``s`` lies under it and has less
    mass.  So with the members sorted once by descending mass, the first
    member below ``s`` is ``Int(s)``; no join is built.  Closure is the
    dual, ``Cl(s) = 1 - Int(1 - s)``: the complement of ``s``, the same
    search, and the complement of the member found.  No table of member
    complements is kept, since one ``classify set`` asks for two closures,
    fewer than a space has members.  Masses are compared as integers over
    the lcm ``L`` of the member scales.
    """

    def __init__(self, members: Sequence[PLFuzzySet]):
        scale = math.lcm(*[member.scale for member in members])
        self._members = tuple(
            sorted(members, key=lambda m: _mass(m) * (scale // m.scale) ** 2, reverse=True)
        )

    def interior(self, s: PLFuzzySet) -> PLFuzzySet:
        """The first member, by descending mass, below ``s``."""
        return next(member for member in self._members if _leq(member, s))

    def closure(self, s: PLFuzzySet) -> PLFuzzySet:
        """``1 - Int(1 - s)``: the complement of the first member below ``1 - s``."""
        return self.interior(s.complement()).complement()


PLFuzzySet._index_type = _MemberIndex
