"""Crisp point maps between finite fuzzy spaces, lifted to fuzzy sets.

A function here is an ordinary total map between the two finite universes;
it acts on fuzzy sets through the usual lifts

* preimage: ``f^{-1}(b)(x) = b(f(x))``
* image:    ``f(a)(y) = sup { a(x) : f(x) = y }`` (0 on empty fibers)

and is classified eight ways: four continuity classes (preimages of the
codomain's opens are open / semiopen / somewhat open / somewhat semiopen)
and the four mirror-image openness classes on images of the domain's
opens.  Each distinct lifted set is classified once by the derivation
behind ``semiclass.set_verdicts``, whose four verdicts, in chain order,
decide the four classes of its side: members often share a preimage or
an image, and a repeat can fail no class that its first occurrence did
not.
Both quadruples obey the same implication chain as sets do, with the two
somewhat classes provably coinciding; :class:`FunctionClassification`
enforces that chain at construction through ``semiclass._require_chain``.

Only the finite backend is supported: images of piecewise-linear sets
under arbitrary point maps leave the piecewise-linear class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

from .fset import FiniteFuzzySet, _reduced
from .semiclass import _require_chain, _set_verdicts
from .topology import FuzzyTopology

__all__ = [
    "FuzzyFunction",
    "FunctionClassification",
    "classify_function",
    "CONTINUITY_CLASSES",
    "OPENNESS_CLASSES",
]

CONTINUITY_CLASSES = (
    "fuzzy_continuous",
    "fuzzy_semicontinuous",
    "somewhat_fuzzy_continuous",
    "somewhat_fuzzy_semicontinuous",
)
OPENNESS_CLASSES = (
    "fuzzy_open",
    "fuzzy_semiopen_fn",
    "somewhat_fuzzy_open_fn",
    "somewhat_fuzzy_semiopen_fn",
)


@dataclass(frozen=True)
class FuzzyFunction:
    """A total point map between the universes of two finite fuzzy spaces.

    The constructor checks the pairs, then keeps ``mapping`` in domain
    order, so two listings of one map compare and hash equal.
    """

    domain: FuzzyTopology
    codomain: FuzzyTopology
    mapping: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        domain_universe = self.domain._finite_universe("a function's domain")
        codomain_universe = self.codomain._finite_universe("a function's codomain")
        assigned = dict(self.mapping)
        if len(assigned) != len(self.mapping):
            raise ValueError("mapping assigns some point twice")
        missing = [x for x in domain_universe if x not in assigned]
        if missing:
            raise ValueError(f"mapping is not total: no image for {missing}")
        unknown = [x for x in assigned if x not in domain_universe]
        if unknown:
            raise ValueError(f"mapping defined on unknown points {unknown}")
        outside = sorted({y for y in assigned.values() if y not in codomain_universe})
        if outside:
            raise ValueError(f"mapping hits points outside the codomain: {outside}")
        object.__setattr__(self, "mapping", tuple((x, assigned[x]) for x in domain_universe))

    @classmethod
    def from_mapping(
        cls, domain: FuzzyTopology, codomain: FuzzyTopology, mapping: Mapping[str, str]
    ) -> "FuzzyFunction":
        return cls(domain, codomain, tuple(mapping.items()))

    @cached_property
    def _targets(self) -> tuple[int, ...]:
        """The codomain position of each domain point's image, in domain order."""
        index = self.codomain.universe.index
        return tuple([index(y) for _, y in self.mapping])

    def preimage(self, beta: FiniteFuzzySet) -> FiniteFuzzySet:
        """Pull a codomain fuzzy set back along the map: ``x -> beta(f(x))``."""
        self.codomain._check_value(beta)
        return self._preimage(beta)

    def image(self, alpha: FiniteFuzzySet) -> FiniteFuzzySet:
        """Push a domain fuzzy set forward: sup over each fiber, 0 if empty."""
        self.domain._check_value(alpha)
        return self._image(alpha)

    def _preimage(self, beta: FiniteFuzzySet) -> FiniteFuzzySet:
        """:meth:`preimage` of a set over the codomain's universe, unchecked."""
        nums = beta.nums
        return _reduced(self.domain.universe, beta.scale, tuple([nums[y] for y in self._targets]))

    def _image(self, alpha: FiniteFuzzySet) -> FiniteFuzzySet:
        """:meth:`image` of a set over the domain's universe, unchecked."""
        codomain_universe = self.codomain.universe
        best = [0] * len(codomain_universe)
        for y, n in zip(self._targets, alpha.nums):
            if n > best[y]:
                best[y] = n
        return _reduced(codomain_universe, alpha.scale, tuple(best))


@dataclass(frozen=True)
class FunctionClassification:
    """Eight verdicts for one function, with a witness for every failure.

    ``witnesses`` maps a failed class name to the member (codomain open
    for continuity classes, domain open for openness classes) whose
    preimage or image falls outside the class.  Construction refuses
    verdicts that break the implication chain, which cannot happen unless
    an operator is buggy.
    """

    fuzzy_continuous: bool
    fuzzy_semicontinuous: bool
    somewhat_fuzzy_continuous: bool
    somewhat_fuzzy_semicontinuous: bool
    fuzzy_open: bool
    fuzzy_semiopen_fn: bool
    somewhat_fuzzy_open_fn: bool
    somewhat_fuzzy_semiopen_fn: bool
    witnesses: Mapping[str, FiniteFuzzySet] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for names in (CONTINUITY_CLASSES, OPENNESS_CLASSES):
            _require_chain(names, [getattr(self, name) for name in names])

    def verdicts(self) -> dict[str, bool]:
        return {name: getattr(self, name) for name in CONTINUITY_CLASSES + OPENNESS_CLASSES}


def classify_function(f: FuzzyFunction) -> FunctionClassification:
    """Decide all eight classes by exhausting the relevant member lists.

    Universal quantification over opens reduces to iteration because both
    topologies are finite.  Each distinct preimage of a codomain open and
    each distinct image of a domain open is classified once, for the first
    member (in canonical member order) that lifts to it.  Its four set
    verdicts, in chain order, are the verdicts of the four classes on its
    side, and the first failing member is recorded as the witness for its
    class; a later member with the same lifted set cannot fail earlier.
    No set is checked: the members and their lifts belong to the spaces.
    """
    verdicts: dict[str, bool] = {}
    witnesses: dict[str, FiniteFuzzySet] = {}
    for names, space, members, lift in (
        (CONTINUITY_CLASSES, f.domain, f.codomain.members, f._preimage),
        (OPENNESS_CLASSES, f.codomain, f.domain.members, f._image),
    ):
        verdicts.update(dict.fromkeys(names, True))
        firsts: dict[FiniteFuzzySet, FiniteFuzzySet] = {}
        for member in members:
            firsts.setdefault(lift(member), member)
        for lifted, member in firsts.items():
            held = _set_verdicts(space, lifted)
            for name, holds in zip(names, held):
                if not holds and verdicts[name]:
                    verdicts[name] = False
                    witnesses[name] = member
    return FunctionClassification(**verdicts, witnesses=witnesses)
