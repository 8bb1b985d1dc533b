"""The literal reference for the set, operator and classifier layers.

Every rule is stated here once, on plain values, and shares no code
with ``ftop``: this module imports nothing from it.  The tests turn
ftop's sets into these values with ``helpers.literal`` and compare.

* A finite set is the tuple of its Fraction degrees, in universe order.
* A PL set is the tuple of its ``(x, y)`` Fraction breakpoints, with no
  interior breakpoint collinear with its neighbours.
* A space is a :class:`Space`: its members, and their complements, the
  closed sets.

The PL set layer is the quadratic algorithm the linear sweep replaced:
evaluate both functions at every merged x by a linear scan, add the
crossings, then drop collinear points.  The operators are the folds:
``Int(s)`` is the join of the members below ``s``, and ``Cl(s)`` the
meet of the complements above it.  The verdicts follow their
definitions, and a crisp map lifts a set point by point.  Nothing is
fast here; callers keep their inputs small.
"""

from fractions import Fraction
from operator import le

ZERO, ONE = Fraction(0), Fraction(1)

CONTINUITY_CLASSES = (
    "fuzzy_continuous", "fuzzy_semicontinuous",
    "somewhat_fuzzy_continuous", "somewhat_fuzzy_semicontinuous",
)
OPENNESS_CLASSES = (
    "fuzzy_open", "fuzzy_semiopen_fn", "somewhat_fuzzy_open_fn", "somewhat_fuzzy_semiopen_fn",
)


# --- PL sets: breakpoint tuples -------------------------------------------


def at(points, x):
    """The value at ``x``: a breakpoint's own, or interpolated on the first
    segment that reaches ``x``."""
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        if x <= x1:
            if x == x1:
                return y1
            if x == x0:
                return y0
            return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    raise AssertionError("unreachable: breakpoints cover [0, 1]")


def merged_grid(p, q):
    """Every breakpoint of ``p`` or ``q``, and every point where they cross."""
    xs = sorted({x for x, _ in p} | {x for x, _ in q})
    gaps = [at(p, x) - at(q, x) for x in xs]
    crossings = []
    for x0, x1, d0, d1 in zip(xs, xs[1:], gaps, gaps[1:]):
        if (d0 > 0 and d1 < 0) or (d0 < 0 and d1 > 0):
            crossings.append(x0 + d0 / (d0 - d1) * (x1 - x0))
    return sorted(set(xs) | set(crossings))


def canonicalize(points):
    """Drop interior points collinear with their neighbours.

    An interior point is removable iff the segment from the last kept point
    to the next point passes through it; testing against the last *kept*
    point (not the raw predecessor) collapses whole collinear runs.
    """
    kept = [points[0]]
    for (x1, y1), (x2, y2) in zip(points[1:], points[2:]):
        x0, y0 = kept[-1]
        if (y1 - y0) * (x2 - x1) != (y2 - y1) * (x1 - x0):
            kept.append((x1, y1))
    return (*kept, points[-1])


def fold(op, first, others):
    """``op`` (min or max) of PL sets, one pair at a time."""
    result = first
    for q in others:
        xs = merged_grid(result, q)
        result = canonicalize(tuple((x, op(at(result, x), at(q, x))) for x in xs))
    return result


def breakpoint_error(points):
    """The message of the first breakpoint rule ``points`` breaks, or None.

    The rules, in order: at least two points, x from 0 to 1, x strictly
    increasing, every y in ``[0, 1]``.
    """
    if len(points) < 2:
        return "need at least the two endpoint breakpoints"
    if points[0][0] != 0 or points[-1][0] != 1:
        return "breakpoints must start at x=0 and end at x=1"
    for (x0, _), (x1, _) in zip(points, points[1:]):
        if x1 <= x0:
            return f"x-coordinates must strictly increase: {x0} then {x1}"
    for _, y in points:
        if not 0 <= y <= 1:
            return f"membership value {y} outside [0, 1]"
    return None


# --- the lattice, on either kind of set -----------------------------------


def is_pl(value):
    """True for breakpoints, false for degrees."""
    return isinstance(value[0], tuple)


def meet(first, *others):
    if is_pl(first):
        return fold(min, first, others)
    return tuple(min(point) for point in zip(first, *others))


def join(first, *others):
    if is_pl(first):
        return fold(max, first, others)
    return tuple(max(point) for point in zip(first, *others))


def complement(value):
    if is_pl(value):
        return tuple((x, 1 - y) for x, y in value)
    return tuple(1 - d for d in value)


def leq(a, b):
    """``a <= b`` at every point; for PL sets, at every merged breakpoint."""
    if is_pl(a):
        xs = sorted({x for x, _ in a} | {x for x, _ in b})
        return all(at(a, x) <= at(b, x) for x in xs)
    return all(map(le, a, b))


def constant(like, degree):
    """The constant set ``degree`` of the same kind and universe as ``like``."""
    if is_pl(like):
        return ((ZERO, degree), (ONE, degree))
    return (degree,) * len(like)


def is_zero(value):
    return value == constant(value, ZERO)


def check_axioms(members):
    """Every axiom a candidate family breaks, in the order ftop reports them.

    First ``("i", c)`` for each constant ``c``, 0 then 1, that is not
    listed; then, for each pair ``(a, b)`` in listed order,
    ``("ii", a, b, meet)`` and ``("iii", a, b, join)`` for a meet or join
    that is not listed.
    """
    members = list(dict.fromkeys(members))
    violations = [("i", c) for c in (constant(members[0], ZERO), constant(members[0], ONE))
                  if c not in members]
    for i, a in enumerate(members):
        for b in members[i + 1 :]:
            for axiom, combined in (("ii", meet(a, b)), ("iii", join(a, b))):
                if combined not in members:
                    violations.append((axiom, a, b, combined))
    return violations


# --- operators and set verdicts on a space --------------------------------


class Space:
    """The members of a space, and their complements, the closed sets."""

    def __init__(self, members):
        self.members = tuple(members)
        self.closed = tuple([complement(m) for m in self.members])


def order(members):
    """The canonical member order: lexicographic in the degrees, or in the
    breakpoints, x before y and a prefix first."""
    return sorted(members)


def interior(space, s):
    """The join of the members below ``s``, and 0 if there is none."""
    below = [m for m in space.members if leq(m, s)]
    return join(*below) if below else constant(s, ZERO)


def closure(space, s):
    """The meet of the closed sets above ``s``, and 1 if there is none."""
    above = [c for c in space.closed if leq(s, c)]
    return meet(*above) if above else constant(s, ONE)


def semi_interior(space, s):
    """``s /\\ Cl(Int(s))``."""
    return meet(s, closure(space, interior(space, s)))


def semi_closure(space, s):
    """``s \\/ Int(Cl(s))``."""
    return join(s, interior(space, closure(space, s)))


def set_verdicts(space, s):
    """The four verdicts of ``s``, strongest first, each by its definition:
    a member; below ``Cl(Int(s))``; zero or above a non-zero member; zero
    or with a non-zero semi-interior."""
    zero = is_zero(s)
    return {
        "open": s in space.members,
        "semiopen": leq(s, closure(space, interior(space, s))),
        "somewhat_open": zero or any(not is_zero(m) and leq(m, s) for m in space.members),
        "somewhat_semiopen": zero or not is_zero(semi_interior(space, s)),
    }


# --- crisp maps between finite spaces -------------------------------------


def preimage(targets, beta):
    """``x -> beta(f(x))``, where domain point i goes to codomain point ``targets[i]``."""
    return tuple(beta[t] for t in targets)


def image(targets, size, alpha):
    """``y -> max alpha(x) over f(x) = y``, 0 on an empty fiber, for ``size``
    codomain points."""
    return tuple(
        max([a for a, t in zip(alpha, targets) if t == y], default=ZERO) for y in range(size)
    )


def classify_map(domain, codomain, targets):
    """The eight map verdicts, and the first failing member of each failed class.

    A continuity class holds iff the preimage of every codomain member has
    the set verdict of the same rank in the domain, and an openness class
    iff the image of every domain member has it in the codomain.  Members
    are tried in :func:`order`, each lifted set is classified afresh.
    """
    size = len(codomain.members[0])
    verdicts, witnesses = {}, {}
    sides = (
        (CONTINUITY_CLASSES, domain, codomain, lambda beta: preimage(targets, beta)),
        (OPENNESS_CLASSES, codomain, domain, lambda alpha: image(targets, size, alpha)),
    )
    for names, space, source, lift in sides:
        verdicts.update(dict.fromkeys(names, True))
        for member in order(source.members):
            for name, holds in zip(names, set_verdicts(space, lift(member)).values()):
                if not holds and verdicts[name]:
                    verdicts[name] = False
                    witnesses[name] = member
    return verdicts, witnesses
