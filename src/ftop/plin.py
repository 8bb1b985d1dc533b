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
with m and n breakpoints costs O(m + n) integer steps.  The order test
:func:`_leq`, which interior and closure call once per member tried, is
one loop that stops at the first violation.  :func:`_meets`, whether
``f /\\ g != 0``, is a pass of the generator :func:`_walk` that stops at
the first cell where both sets are positive, and builds nothing.  A
value interpolated on a segment of width ``d`` is kept as a numerator
over ``d * scale``, so comparisons cross-multiply instead of dividing.
Meet and join (:func:`_combine`) build nothing that these tests decide:
if ``f <= g`` the meet is f and the join is g, and the other way round
if ``g <= f``; the meet of sets that do not meet is 0.  Only the
remaining pairs, which cross, are swept constructively over the merged
points of :func:`_walk`.  Variadic meet and join fold pairwise.  The
public ``meet``, ``join`` and ``leq`` check that every argument is a PL
set, then run these primitives; code that holds PL sets already calls
them directly, as the methods ``_meet``, ``_join``, ``_leq`` and
``_meets``, as in ``fset``.  Every set built from breakpoints, by the
public constructor or the document reader, comes from two columns of
integer ratios, the x and the y of each breakpoint, through the one
entry :func:`_from_ratios`, which states the breakpoint rules; lattice
results, computed from valid sets, skip it.  Both reach the one
canonicalization, :func:`_reduced`, on integer columns.
A topology's interior and closure select a member by its exact mass
(``_MemberIndex``), with no join built; closure is the dual of interior,
``1 - Int(1 - s)``, and tests the order with the same ``_leq``.
Validating a listing sweeps no pair: :func:`_grid` reads every member
once at the union of all members' breakpoints, and ``topology`` decides
each pair's order, meet and join on those values.

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
from itertools import repeat
from operator import mul
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
            [(x.numerator, x.denominator) for x, _ in points],
            [(y.numerator, y.denominator) for _, y in points],
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
        """Build from ``(x, y)`` pairs of ints, Fractions, or "p/q" strings.

        A string, as the argument or as an item, is a ``TypeError``: it
        would unpack into characters.  Any other item that is not a pair
        is a ``ValueError`` naming it.
        """
        if isinstance(pairs, str):
            raise TypeError(f"breakpoints must be (x, y) pairs, not the string {pairs!r}")
        points = []
        for pair in pairs:
            if isinstance(pair, str):
                raise TypeError(f"a breakpoint must be an (x, y) pair, not the string {pair!r}")
            try:
                x, y = pair
            except (TypeError, ValueError):
                raise ValueError(f"breakpoint {pair!r} is not an (x, y) pair") from None
            points.append((as_degree(x), as_degree(y)))
        return cls(points)

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


def _from_ratios(xs: Sequence[tuple[int, int]], ys: Sequence[tuple[int, int]]) -> PLFuzzySet:
    """The set with breakpoints ``(xs[i], ys[i])``, each an integer ratio ``(p, q)``.

    The one entry from breakpoints, for the public constructor and the
    document reader, and the one statement of the breakpoint rules: at
    least two breakpoints, the first x is 0 and the last is 1, x strictly
    increases, and every y lies in ``[0, 1]``.  They are checked on the
    numerators over the lcm of the ``q``; a violation is a ``ValueError``
    naming the values.
    """
    scale = math.lcm(*[q for _, q in xs], *[q for _, q in ys])
    xs = [p * (scale // q) for p, q in xs]
    ys = [p * (scale // q) for p, q in ys]
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
    return _trusted(*_reduced(scale, xs, ys, [1] * len(xs)))


def _reduced(scale: int, xs: list[int], ys: list[int], ks: list[int]) -> tuple[int, Ints, Ints]:
    """The canonical form of valid breakpoints, given as integer columns.

    Breakpoint i is ``(xs[i] / (k * scale), ys[i] / (k * scale))`` with
    ``k = ks[i]``: 1 for every point the reader gives, and the point's own
    denominator for one a lattice sweep interpolated or found at a
    crossing.  An interior point is dropped iff the segment from the last
    kept point to the next point passes through it; testing against the
    last *kept* point (not the raw predecessor) collapses whole collinear
    runs.  The test cross-multiplies the slopes with each point's own
    ``k``, so it runs on small numbers; only the kept points are brought
    to the lcm of their ``k``.  Then the gcd of the scale and every kept
    numerator is divided out.
    """
    x0, y0, k0 = xs[0], ys[0], ks[0]
    x1, y1, k1 = xs[1], ys[1], ks[1]
    kept_x, kept_y, kept_k = [x0], [y0], [k0]
    for x2, y2, k2 in zip(xs[2:], ys[2:], ks[2:]):
        if (y1 * k0 - y0 * k1) * (x2 * k1 - x1 * k2) != (y2 * k1 - y1 * k2) * (x1 * k0 - x0 * k1):
            kept_x.append(x1)
            kept_y.append(y1)
            kept_k.append(k1)
            x0, y0, k0 = x1, y1, k1
        x1, y1, k1 = x2, y2, k2
    kept_x.append(x1)
    kept_y.append(y1)
    kept_k.append(k1)
    common = math.lcm(*kept_k)
    if common != 1:
        scale *= common
        kept_x = [x * (common // k) for x, k in zip(kept_x, kept_k)]
        kept_y = [y * (common // k) for y, k in zip(kept_y, kept_k)]
    g = math.gcd(scale, *kept_x, *kept_y)
    if g != 1:
        scale //= g
        kept_x = [x // g for x in kept_x]
        kept_y = [y // g for y in kept_y]
    return scale, tuple(kept_x), tuple(kept_y)


def _on_scale(value: PLFuzzySet, scale: int) -> tuple[Column, Column]:
    """The ``xs`` and ``ys`` of ``value`` over ``scale``, a multiple of its own."""
    if value.scale == scale:
        return value.xs, value.ys
    factor = repeat(scale // value.scale)
    return list(map(mul, value.xs, factor)), list(map(mul, value.ys, factor))


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


def _meets(f: PLFuzzySet, g: PLFuzzySet) -> bool:
    """``f /\\ g != 0``, in one pass of :func:`_walk` that stops where they meet.

    Both sets are linear on each merged cell, and a linear function that
    is not negative is positive inside a cell iff it is positive at one of
    its ends.  So they are both positive somewhere iff some cell has each
    of them positive at one of its ends; the first point is a cell of its
    own.  Only signs are read, so the widths ``d`` do not matter.
    """
    a0 = b0 = 0
    for _, a, b, _ in _walk(*_common(f, g)[1:]):
        if (a0 or a) and (b0 or b):
            return True
        a0, b0 = a, b
    return False


def _combine(op, f: PLFuzzySet, g: PLFuzzySet) -> PLFuzzySet:
    """``op`` (min or max) of f and g, crossings included, canonical.

    An order sweep decides most pairs without building anything: if
    ``f <= g`` the result is f for min and g for max, and the other way
    round if ``g <= f``; a min of sets that do not :func:`_meets` is 0.
    Only a pair that is neither comparable nor, for min, disjoint is
    swept constructively.

    Between consecutive merged points both functions are linear, so their
    difference changes sign inside a cell only if it has strictly opposite
    signs at the cell ends.  With differences ``e0 / d0`` and ``e1 / d1``
    there (over ``L``), the crossing lies at ``t = e0 d1 / (e0 d1 - e1 d0)``
    of the cell; it is rational and becomes a breakpoint of the result.

    Each result point is held as numerators ``(x, y)`` over ``k * L``,
    with the factor ``gcd(k, x, y)`` divided out, until :func:`_reduced`
    brings the kept points to one scale.
    """
    if _leq(f, g):
        return f if op is min else g
    if _leq(g, f):
        return g if op is min else f
    if op is min and not _meets(f, g):
        return PLFuzzySet.zero()
    scale, fx, fy, gx, gy = _common(f, g)
    xs: list[int] = []
    ys: list[int] = []
    ks: list[int] = []
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
            xs.append(cx // c)
            ys.append(cy // c)
            ks.append(k // c)
        y = op(a, b)
        c = math.gcd(d, y)  # x * d shares every factor of d
        xs.append(x * (d // c))
        ys.append(y // c)
        ks.append(d // c)
        x0, a0, e0, d0 = x, a, e, d
    return _trusted(*_reduced(scale, xs, ys, ks))


def _meet(f: PLFuzzySet, g: PLFuzzySet) -> PLFuzzySet:
    return _combine(min, f, g)


def _join(f: PLFuzzySet, g: PLFuzzySet) -> PLFuzzySet:
    return _combine(max, f, g)


def _grid(members: Sequence[PLFuzzySet]) -> tuple[list[tuple[Column, list[int] | None]], int]:
    """Every member's exact values on the union ``U`` of all their breakpoints.

    For each member, in the order given, ``(nums, dens)``: at point k of
    ``U`` (over the lcm ``L`` of the member scales) the member takes
    ``nums[k] / (dens[k] * L)``, and ``dens`` is None iff every
    denominator is 1.  At its own breakpoint the denominator is 1; inside
    its segment ``[x0, x1]``, at ``u``, it is the segment's width
    ``d = x1 - x0``, with ``y0 d + (y1 - y0)(u - x0)`` over it, as in
    :func:`_walk`, and the factor ``gcd(n, d)`` divided out, so equal
    values are equal pairs.  Values of two members are compared by
    cross-multiplying, so no number outgrows those of :func:`_leq`.  The
    second item is the number of cells of ``U``, the intervals between
    adjacent points, on each of which every member is linear.

    A member with a breakpoint at every point of ``U`` keeps its ``ys``,
    and a constant is its value repeated.  Any other member gets values
    inserted only into the segments that hold points of ``U``, a flat
    segment's without arithmetic.
    """
    scale = math.lcm(*[member.scale for member in members])
    columns = [_on_scale(member, scale) for member in members]
    union = set().union(*[xs for xs, _ in columns])
    points = sorted(union)
    vectors = []
    for xs, ys in columns:
        if len(xs) == len(points):
            vectors.append((ys, None))
            continue
        if len(xs) == 2 and ys[0] == ys[1]:
            vectors.append(([ys[0]] * len(points), None))
            continue
        nums, widths = list(ys), []
        missing = sorted(union.difference(xs))
        j = 0
        while j < len(missing):
            i = bisect_left(xs, missing[j])
            x0, x1, y0, y1 = xs[i - 1], xs[i], ys[i - 1], ys[i]
            k0 = bisect_left(points, x0)
            k1 = bisect_left(points, x1, k0)
            j += k1 - k0 - 1
            if y0 == y1:
                nums[k0 + 1 : k0 + 1] = [y0] * (k1 - k0 - 1)
                continue
            d = x1 - x0
            inside = []
            for k in range(k0 + 1, k1):
                n = y0 * d + (y1 - y0) * (points[k] - x0)
                c = math.gcd(n, d)
                inside.append(n // c)
                if c != d:
                    widths.append((k, d // c))
            nums[k0 + 1 : k0 + 1] = inside
        dens = None
        if widths:
            dens = [1] * len(points)
            for k, d in widths:
                dens[k] = d
        vectors.append((nums, dens))
    return vectors, len(points) - 1


# The unchecked binary primitives, as in ``fset``: every PL set is on [0, 1].
PLFuzzySet._leq, PLFuzzySet._meet, PLFuzzySet._join = _leq, _meet, _join
PLFuzzySet._meets = _meets
PLFuzzySet._grid = staticmethod(_grid)


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
