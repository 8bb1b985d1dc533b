"""A space's grid sets as rank bitsets: every 1/k grid set at once.

:class:`GridBits` takes the grid sets of a finite space in
``oracle.enumerate_grid_sets`` order, one block of ranks at a time, as
the bits of Python ints: bit ``r`` stands for the grid set of rank ``r``.
A set of grid sets is then one int, and a question about all of them is
a few AND, OR and XOR operations per member instead of one loop step per
grid set, the bit-parallel representation of Baeza-Yates and Gonnet ("A
new approach to text searching", CACM 35(10), 1992).  The ranks where a
member lies below ``s``, or below ``1 - s``, come from the member's own
grid digits, ``ceil(m(x) * k)`` per point, read off its numerators;
``Int(s)`` and ``Cl(s)`` follow from one cover walk that takes the
members from the highest bit down, over their boxes below ``s`` and
over their dual boxes below ``1 - s``, and the four verdicts from two
boxes of ranks per distinct ``Cl(Int(s))``.  The members come in the
space's own order, and no index is read.
``oracle.check_space`` and ``oracle.find_witness`` read the laws, the
first violation and the first witness off the lowest set bits.  Memory
is bounded by a block, and a block keeps no stripe: each box, for
bounds ``low <= high`` pointwise, is built afresh at one multiplication
per trailing point.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from operator import le, mul
from typing import Iterator, Sequence

from .fset import FiniteFuzzySet, _reduced
from .topology import FuzzyTopology


# A block holds the grid sets that share their leading points: at most
# this many, unless the last point alone has more grid values.
_BLOCK = 4096


def _admitted(box: tuple, prefix: tuple[int, ...]) -> int:
    """A :meth:`GridBits.box` in the block at ``prefix``: its bits if the prefix fits."""
    low, high, bits = box
    return bits if not low or all(map(le, low, prefix)) and all(map(le, prefix, high)) else 0


class GridBits:
    """A space's 1/k grid sets as the bits of ints, a block of ranks at a time.

    Bit ``r`` of the block at ``base`` is the grid set of rank ``base + r``
    in ``oracle.enumerate_grid_sets`` order, whose numerators over ``k`` are
    the base-``(k + 1)`` digits of its rank.  A block spans the last ``t``
    points, the most whose ``(k + 1) ** t`` sets fit in ``_BLOCK`` ranks
    but at least one; the digits of the ``head`` leading points are its
    prefix.  The ranks whose digits lie between two bounds are a
    :meth:`box`: bounds the prefix must meet, and the AND over the
    trailing points of one stripe each, the ranks where that point's
    digit is in range: runs of ``w`` bits every ``w * (k + 1)``, ``w``
    being the point's place value.  The bounds must satisfy ``low <= high``
    pointwise, as every caller's do.  A block keeps no stripe, only each
    trailing point's place value and the bits where its runs start.

    Member bit ``j`` is ``space.members[j]``, in the space's canonical
    order, which extends the pointwise one.  Its digits ``lows[j]`` are
    ``ceil(m(x) * k)`` per point, computed from the member's numerators:
    ``m(x) <= a / k`` iff ``a >= ceil(m(x) * k)``, on the grid or off it.
    So member ``j`` lies below ``s`` where every digit of ``s`` is at
    least ``lows[j]``, and below ``1 - s`` where every digit is at most
    ``k`` minus them (:attr:`duals`).  ``Int(s)`` is the member with the
    highest bit below ``s``, so member ``j`` is ``Int(s)`` on the ranks it
    is below minus those of every higher member; ``Cl(s)`` is the
    complement of the highest member below ``1 - s``.  One walk,
    :meth:`_cover`, selects both: :meth:`verdicts` runs it over the
    member boxes, :meth:`closures` over the dual boxes, so the duality
    lives only in the boxes.  ``closures_of_interiors[j]`` is
    ``Cl(m)``, the set; its floor digits bound where ``s`` is semiopen.
    """

    def __init__(self, space: FuzzyTopology, k: int):
        self.universe, n = space.universe, len(space.universe)
        t = 1
        while t < n and (k + 1) ** (t + 1) <= _BLOCK:
            t += 1
        self.k, self.head, self.size = k, n - t, (k + 1) ** t
        self.full = (1 << self.size) - 1
        # Per trailing point: its place value, and a bit every (k + 1) places.
        self._place_starts = [
            ((k + 1) ** (t - 1 - p), self.full // ((1 << (k + 1) ** (t - p)) - 1))
            for p in range(t)
        ]
        self._rank_places = [(k + 1) ** (n - 1 - i) for i in range(n)]
        members = space.members
        # Per member bit: its digits ceil(m(x) * k), and its closure Cl(m).
        self.lows = [tuple([-(-v * k // m.scale) for v in m.nums]) for m in members]
        self.closures_of_interiors = [space._index.closure(m) for m in members]
        # Per member, top bit first: where it is below s, its rank if it
        # lies on the grid, which of the distinct Cl(m) is its own, and
        # whether it is non-zero.
        ones, zeros = [k] * n, [0] * n
        keys: dict[FiniteFuzzySet, int] = {}
        self.members = []
        for j in reversed(range(len(members))):
            low, rank = self.lows[j], -1
            if k % members[j].scale == 0:
                rank = sum(map(mul, low, self._rank_places))
            key = keys.setdefault(self.closures_of_interiors[j], len(keys))
            self.members.append((j, self.box(low, ones), rank, key, any(low)))
        # Per distinct Cl(m): where s <= Cl(m), and where s /\ Cl(m) = 0.
        self.semiopen = [self.box(zeros, [v * k // c.scale for v in c.nums]) for c in keys]
        self.disjoint = [self.box(zeros, [0 if v else k for v in c.nums]) for c in keys]

    def box(self, low: Sequence[int], high: Sequence[int]) -> tuple:
        """The ranks whose digits lie between ``low`` and ``high`` pointwise.

        Needs ``low <= high`` pointwise.  Each trailing point's stripe is
        one product: a run of ``(hi - lo + 1) * place`` bits, shifted by
        ``lo * place``, times ``starts``, which has a bit every
        ``place * (k + 1)`` ranks.  No run is longer than that period, so
        no carry crosses.  The stripe is not kept.
        """
        h, bits = self.head, self.full
        for (place, starts), lo, hi in zip(self._place_starts, low[h:], high[h:]):
            bits &= starts * (((1 << (hi - lo + 1) * place) - 1) << lo * place)
        return low[:h], high[:h], bits

    def blocks(self) -> Iterator[tuple[int, tuple[int, ...]]]:
        """``(base, prefix)`` of every block, in rank order."""
        for i, prefix in enumerate(itertools.product(range(self.k + 1), repeat=self.head)):
            yield i * self.size, prefix

    def digits(self, rank: int) -> tuple[int, ...]:
        """The numerators over ``k`` of the grid set of ``rank``: its base-``(k + 1)`` digits."""
        base = self.k + 1
        return tuple([rank // place % base for place in self._rank_places])

    def grid_set(self, rank: int) -> FiniteFuzzySet:
        """The grid set of ``rank``, built as ``oracle.enumerate_grid_sets`` builds it."""
        return _reduced(self.universe, self.k, self.digits(rank))

    @cached_property
    def duals(self) -> list[tuple[int, tuple]]:
        """Per member, top bit first: where it is below ``1 - s``."""
        zeros, k, lows = [0] * len(self.universe), self.k, self.lows
        return [(j, self.box(zeros, [k - v for v in lows[j]])) for j in reversed(range(len(lows)))]

    def _cover(self, boxes: list, prefix: tuple[int, ...]) -> Iterator[tuple[tuple, int]]:
        """Each entry of ``boxes``, top bit first, with the ranks it adds.

        An entry's box (its second item) is admitted to the block at
        ``prefix``; an entry that adds no rank to those of the entries
        before it is skipped, and the walk stops once the block is
        covered.  The greatest member below ``s`` is the first to cover
        ``s``'s rank, and so is the greatest below ``1 - s`` over the
        dual boxes: one walk selects ``Int(s)`` and ``Cl(s)`` alike.
        """
        covered = 0
        for entry in boxes:
            ranks = _admitted(entry[1], prefix) & ~covered
            if ranks:
                covered |= ranks
                yield entry, ranks
                if covered == self.full:
                    return

    def closures(self, prefix: tuple[int, ...]) -> dict[int, int]:
        """Where each complement is ``Cl(s)`` in the block at ``prefix``, by member bit."""
        return {j: ranks for (j, _), ranks in self._cover(self.duals, prefix)}

    def verdicts(self, base: int, prefix: tuple[int, ...]) -> tuple:
        """The four verdicts in the block at ``base`` as bitsets, and each ``Int(s)``.

        Returns open, semiopen, somewhat open and somewhat semiopen, then
        ``(j, ranks)`` for every member ``j`` that is ``Int(s)`` somewhere
        in the block, with those ranks.  With ``m = Int(s)``, ``s`` is
        open iff it is ``m``, semiopen iff ``s <= Cl(m)``, somewhat open
        iff ``s`` is zero or ``m`` is not, and somewhat semiopen iff ``s``
        is zero or ``s /\\ Cl(m)`` is not.  The zero set has rank 0.
        """
        semiopen = [_admitted(box, prefix) for box in self.semiopen]
        disjoint = [_admitted(box, prefix) for box in self.disjoint]
        opened = semi = somewhat = meets = 0
        selected = []
        for (j, _, rank, key, nonzero), interior in self._cover(self.members, prefix):
            selected.append((j, interior))
            if 0 <= rank - base < self.size:
                opened |= interior & 1 << rank - base
            semi |= interior & semiopen[key]
            meets |= interior & ~disjoint[key]
            if nonzero:
                somewhat |= interior
        zero = int(base == 0)
        return opened, semi, somewhat | zero, meets | zero, selected
