"""An independent reference, used only to check outputs.

Finite fuzzy sets are tuples of integer numerators over one common
denominator, so the lattice operations are plain ``min``/``max`` on ints.
Piecewise-linear (PL) sets are tuples of ``(x, y)`` breakpoints on
``[0, 1]``.  It shares no code with ``ftop`` and is deliberately literal:
the topology is the meet/join fixpoint, the interior is the join of the
members below a set and the closure is the meet of the closed sets above
it; a search walks every grid set in order.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm

Vec = tuple[int, ...]


def _meet(a: Vec, b: Vec) -> Vec:
    return tuple(map(min, a, b))


def _join(a: Vec, b: Vec) -> Vec:
    return tuple(map(max, a, b))


def _leq(a: Vec, b: Vec) -> bool:
    return all(x <= y for x, y in zip(a, b))


class Space:
    """The topology generated by a subbasis of numerator tuples over ``den``.

    With ``complete`` the subbasis already lists every member but the
    constants, and is taken as it is.
    """

    def __init__(self, n: int, den: int, subbasis: list[Vec], complete: bool = False):
        self.den = den
        self.zero, self.one = (0,) * n, (den,) * n
        family = {self.zero, self.one, *map(tuple, subbasis)}
        frontier = [] if complete else list(family)
        while frontier:
            fresh = set()
            for a in frontier:
                for b in list(family):
                    for c in (_meet(a, b), _join(a, b)):
                        if c not in family:
                            fresh.add(c)
            family |= fresh
            frontier = list(fresh)
        self.members = family
        self.closed = {tuple(den - v for v in m) for m in family}

    def interior(self, s: Vec) -> Vec:
        result = self.zero
        for member in self.members:
            if _leq(member, s):
                result = _join(result, member)
        return result

    def closure(self, s: Vec) -> Vec:
        result = self.one
        for closed in self.closed:
            if _leq(s, closed):
                result = _meet(result, closed)
        return result

    def verdicts(self, s: Vec) -> dict[str, bool]:
        interior = self.interior(s)
        semi_interior = _meet(s, self.closure(interior))
        zero = s == self.zero
        return {
            "open": s in self.members,
            "semiopen": _leq(s, self.closure(interior)),
            "somewhat_open": zero or interior != self.zero,
            "somewhat_semiopen": zero or semi_interior != self.zero,
        }

    def evidence(self, s: Vec) -> dict[str, Vec]:
        interior, closure = self.interior(s), self.closure(s)
        return {
            "interior": interior,
            "closure": closure,
            "semi_interior": _meet(s, self.closure(interior)),
            "semi_closure": _join(s, self.interior(closure)),
        }

    def first_witness(self, have: str, avoid: str, grid: int) -> Vec | None:
        """The first set on the 1/grid grid in ``have`` but not in ``avoid``.

        Sets are walked in lexicographic order of their degrees, earlier
        points most significant; ``den`` must be a multiple of ``grid``.
        """
        step = self.den // grid
        degrees = range(0, self.den + 1, step)
        for s in itertools.product(degrees, repeat=len(self.zero)):
            verdicts = self.verdicts(s)
            if verdicts[have] and not verdicts[avoid]:
                return s
        return None


def space_from(spec: dict, den: int | None = None) -> Space:
    """Build from the generator's ``{"n", "k", "subbasis"}`` description.

    ``den`` rescales onto a finer common denominator (a multiple of k).
    """
    den = den or spec["k"]
    scale = den // spec["k"]
    subbasis = [tuple(v * scale for v in values) for values in spec["subbasis"]]
    return Space(spec["n"], den, subbasis)


def as_vec(degrees: dict[str, str], labels: list[str], den: int) -> Vec:
    """Numerators over ``den`` of a rendered ``{label: "p/q"}`` set."""
    out = []
    for label in labels:
        value = Fraction(degrees[label]) * den
        if value.denominator != 1:
            raise ValueError(f"degree {degrees[label]} is not on the 1/{den} grid")
        out.append(int(value))
    return tuple(out)


def as_text(vec: Vec, labels: list[str], den: int) -> dict[str, str]:
    return {label: str(Fraction(v, den)) for label, v in zip(labels, vec)}


def common_denominator(*ks: int) -> int:
    return lcm(*ks)


# --- piecewise-linear sets ------------------------------------------------

PL = tuple[tuple[Fraction, Fraction], ...]


def pl_from(body: dict) -> PL:
    """A PL set from its ``{"breakpoints": [[x, y], ...]}`` document body."""
    return tuple((Fraction(x), Fraction(y)) for x, y in body["breakpoints"])


def pl_vectors(sets: list[PL]) -> list[tuple[Fraction, ...]]:
    """The values of PL sets on ``[0, 1]`` at all their breakpoints together.

    Every set is linear between consecutive points of that joint grid, so
    equality and the pointwise order of two sets are exactly those of
    their vectors.  Meets and joins are not: two sets may cross between
    grid points.
    """
    xs = sorted({x for f in sets for x, _ in f})
    vectors = []
    for f in sets:
        values, segment = [], 0
        for x in xs:
            while f[segment + 1][0] < x:
                segment += 1
            (x0, y0), (x1, y1) = f[segment], f[segment + 1]
            values.append(y0 + (y1 - y0) * (x - x0) / (x1 - x0))
        vectors.append(tuple(values))
    return vectors
