"""The semiopen hierarchy: predicates, semi-operators, and the classifier.

A set ``s`` is *semiopen* when it lies below the closure of its own
interior, and *semiclosed* when its complement is semiopen.  The
semi-interior (largest semiopen set below ``s``) is computed by the closed
form ``s /\\ Cl(Int(s))``; the semi-closure dually by ``s \\/ Int(Cl(s))``.
The closed form is not taken on faith: the oracle module re-derives the
semi-interior by exhaustive enumeration over degree grids and the test
suite requires bit-exact agreement wherever the grid can express the
answer.

The *somewhat-open* notions only ask that the (semi-)interior be non-zero,
which yields the implication chain

    open  =>  semiopen  =>  somewhat open  <=>  somewhat semiopen

stated once, by :func:`_chain_breaks`, which answers for four bools or,
bit by bit, for four ints holding one verdict per bit.  It is enforced
through :func:`_require_chain` by :class:`SetClassification`, by
:func:`set_verdicts` and per quadruple by
``functions.FunctionClassification``, and on every grid set at once by
``oracle.check_space``.

Besides the standalone definitions, one derivation (``_derive``) turns
``Int(s)`` and ``Cl(Int(s))`` into verdicts, and builds no set of its
own: it asks whether ``s`` meets ``Cl(Int(s))`` with the unchecked
``_meets``, which decides somewhat semiopen without building the
semi-interior.
:func:`set_verdicts` returns its verdicts alone, which is all
``functions.classify_function`` reads of a lifted set (through
``_set_verdicts``, which does not check the set); :func:`classify_set`
adds the evidence, and builds the two sets in it that are not members or
their complements, the semi-interior and the semi-closure.  Both check
the query once and then read the space's member index and the unchecked
lattice primitives, while the standalone predicates and semi-operators
go through the public, checked operators and lattice operations, one
definition at a time.
``gridbits.GridBits`` derives the same verdicts a second way, for every
grid set of a space at once, as one bitset per verdict, for
``oracle.check_space`` and ``oracle.find_witness`` alike.
``check_space`` requires :func:`classify_set` to agree with the bitsets
on a fixed sample of each space's grid sets, in its verdicts and in its
evidence: ``Int(s)``, ``Cl(s)``, ``Cl(Int(s))`` and the two
semi-operators must equal the values the bitsets selected.  The standalone
predicates and semi-operators restate the definitions one at a time.  The
tests hold the classifier, the predicates and the semi-operators to a
literal reference that shares no code with this package, and the
brute-force oracle holds the semi-interior to an enumeration of grid sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import HierarchyInvariantError
from .topology import FuzzyTopology, FuzzyValue

__all__ = [
    "is_semiopen",
    "is_semiclosed",
    "semi_interior",
    "semi_closure",
    "is_somewhat_open",
    "is_somewhat_semiopen",
    "SetClassification",
    "set_verdicts",
    "classify_set",
]

# The four set classes, strongest first: the keys of every verdict dict.
_CLASSES = ("open", "semiopen", "somewhat_open", "somewhat_semiopen")


def is_semiopen(space: FuzzyTopology, s: FuzzyValue) -> bool:
    """True iff ``s`` lies below the closure of its interior."""
    return s.leq(space.closure(space.interior(s)))


def is_semiclosed(space: FuzzyTopology, s: FuzzyValue) -> bool:
    """True iff the complement of ``s`` is semiopen."""
    return is_semiopen(space, s.complement())


def semi_interior(space: FuzzyTopology, s: FuzzyValue) -> FuzzyValue:
    """Largest semiopen set below ``s``, as ``s /\\ Cl(Int(s))``.

    The closed form is exact: the right-hand side is semiopen, sits below
    ``s``, and dominates every semiopen set below ``s`` (each such set is
    below the monotone image ``Cl(Int(s))`` already).
    """
    return s.meet(space.closure(space.interior(s)))


def semi_closure(space: FuzzyTopology, s: FuzzyValue) -> FuzzyValue:
    """Smallest semiclosed set above ``s``, as ``s \\/ Int(Cl(s))``."""
    return s.join(space.interior(space.closure(s)))


def is_somewhat_open(space: FuzzyTopology, s: FuzzyValue) -> bool:
    """True iff ``s`` is zero or has a non-zero interior."""
    return s.is_zero() or not space.interior(s).is_zero()


def is_somewhat_semiopen(space: FuzzyTopology, s: FuzzyValue) -> bool:
    """True iff ``s`` is zero or has a non-zero semi-interior."""
    return s.is_zero() or not semi_interior(space, s).is_zero()


def _chain_breaks(strong: int, semi: int, somewhat: int, somewhat_semi: int) -> int:
    """Where four verdicts, strongest first, break the implication chain.

    The order is open, semiopen, somewhat open, somewhat semiopen, or the
    same four classes lifted to a function.  On bools the answer is true
    iff the chain breaks; on ints whose bit ``r`` holds the verdicts of
    one set ``r`` each, it has bit ``r`` set iff they break it for that
    set.  By theorem the chain always holds, so a break means an operator
    bug.
    """
    return strong & ~semi | semi & ~somewhat | somewhat ^ somewhat_semi


def _require_chain(names: Sequence[str], held: Sequence[bool]) -> None:
    """Refuse verdicts, strongest first, that :func:`_chain_breaks` rejects.

    ``names`` name the four verdicts in ``held``, for the message.
    """
    if _chain_breaks(*held):
        shown = ", ".join(f"{name}={value}" for name, value in zip(names, held))
        raise HierarchyInvariantError(f"impossible verdict combination: {shown}")


@dataclass(frozen=True)
class SetClassification:
    """The four openness verdicts for one set, with operator evidence.

    ``closure_of_interior`` is ``Cl(Int(s))``, the value that decides
    ``is_semiopen``.  Refuses construction when the verdicts break the
    implication chain.
    """

    is_open: bool
    is_semiopen: bool
    is_somewhat_open: bool
    is_somewhat_semiopen: bool
    interior: FuzzyValue
    closure: FuzzyValue
    closure_of_interior: FuzzyValue
    semi_interior: FuzzyValue
    semi_closure: FuzzyValue

    def __post_init__(self) -> None:
        held = (self.is_open, self.is_semiopen, self.is_somewhat_open, self.is_somewhat_semiopen)
        _require_chain(_CLASSES, held)

    def verdicts(self) -> dict[str, bool]:
        held = (self.is_open, self.is_semiopen, self.is_somewhat_open, self.is_somewhat_semiopen)
        return dict(zip(_CLASSES, held))


def _derive(space: FuzzyTopology, s: FuzzyValue):
    """The four verdicts, strongest first, from ``Int(s)`` and ``Cl(Int(s))``.

    Returns the verdicts, in :data:`_CLASSES` order, with ``Int(s)`` and
    ``Cl(Int(s))``, and builds no set besides what the index builds
    (nothing on the finite backend).  ``s`` is open iff ``Int(s) = s``,
    since the interior is a member below ``s``; semiopen iff
    ``s <= Cl(Int(s))``; somewhat open iff ``s`` is zero or ``Int(s)``
    is not; and somewhat semiopen iff ``s`` is zero or meets
    ``Cl(Int(s))``, that is, iff the semi-interior ``s /\\ Cl(Int(s))``
    is not zero, which ``_meets`` answers without building it.  The last
    verdict is derived from its definition, not from the theorem that it
    equals the third, so the chain check compares two computations.
    ``s`` must already be checked against the space: the operators are
    read off ``space._index`` and the lattice work is unchecked.  The
    chain is not checked.
    """
    index = space._index
    interior = index.interior(s)
    closure_of_interior = index.closure(interior)
    zero = s.is_zero()
    held = (
        interior == s,
        s._leq(closure_of_interior),
        zero or not interior.is_zero(),
        zero or s._meets(closure_of_interior),
    )
    return held, interior, closure_of_interior


def _set_verdicts(space: FuzzyTopology, s: FuzzyValue) -> tuple[bool, ...]:
    """The verdicts of :func:`set_verdicts` as a tuple, for an ``s`` already checked.

    ``functions.classify_function`` classifies the lifts of members
    through here.  Refuses verdicts that break the chain.
    """
    held = _derive(space, s)[0]
    _require_chain(_CLASSES, held)
    return held


def set_verdicts(space: FuzzyTopology, s: FuzzyValue) -> dict[str, bool]:
    """The four verdicts of :func:`classify_set`, without the evidence.

    Checks ``s`` against the space once, then makes two operator calls
    where :func:`classify_set` makes four, builds no set on the finite
    backend, and refuses the same chain-breaking verdicts.
    """
    space._check_value(s)
    return dict(zip(_CLASSES, _set_verdicts(space, s)))


def classify_set(space: FuzzyTopology, s: FuzzyValue) -> SetClassification:
    """All four set-level verdicts plus the operator values behind them.

    Checks ``s`` against the space once, then takes the verdicts from the
    same derivation as :func:`set_verdicts`.  The evidence is built here:
    the semi-interior ``s /\\ Cl(Int(s))``, unchecked, and ``Cl(s)`` and
    ``Int(Cl(s))`` for the semi-closure.  The semi-closure is built by the
    public ``join``, as :func:`semi_closure` builds it, which checks
    ``Int(Cl(s))`` once more: that keeps the lattice work of a
    classification visible to tracing that wraps only public calls
    (``perfbench/spans.py``).  On the ``pl`` workload that ``join`` is the
    only public PL binary call, and the benchmark smoke test's
    ``plin.points_in > 0`` rests on it.
    """
    space._check_value(s)
    held, interior, closure_of_interior = _derive(space, s)
    index = space._index
    closure = index.closure(s)
    return SetClassification(
        *held,
        interior=interior,
        closure=closure,
        closure_of_interior=closure_of_interior,
        semi_interior=s._meet(closure_of_interior),
        semi_closure=s.join(index.interior(closure)),
    )
