"""Crisp point maps between finite fuzzy spaces, lifted to fuzzy sets.

A function here is an ordinary total map between the two finite universes;
it acts on fuzzy sets through the usual lifts

* preimage: ``f^{-1}(b)(x) = b(f(x))``
* image:    ``f(a)(y) = sup { a(x) : f(x) = y }`` (0 on empty fibers)

and is classified eight ways: four continuity classes (preimages of the
codomain's opens are open / semiopen / somewhat open / somewhat semiopen)
and the four mirror-image openness classes on images of the domain's
opens.  Each lifted set is classified once by ``semiclass.set_verdicts``,
whose four verdicts, in chain order, decide the four classes of its side.
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
from .semiclass import _require_chain, set_verdicts
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
    """A total point map between the universes of two finite fuzzy spaces."""

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

    @classmethod
    def from_mapping(
        cls, domain: FuzzyTopology, codomain: FuzzyTopology, mapping: Mapping[str, str]
    ) -> "FuzzyFunction":
        universe = domain._finite_universe("a function's domain")
        return cls(domain, codomain, tuple((x, mapping[x]) for x in universe if x in mapping))

    @cached_property
    def _map(self) -> dict[str, str]:
        return dict(self.mapping)

    def apply(self, x: str) -> str:
        return self._map[x]

    def preimage(self, beta: FiniteFuzzySet) -> FiniteFuzzySet:
        """Pull a codomain fuzzy set back along the map: ``x -> beta(f(x))``."""
        self.codomain.members[0]._require_compatible(beta)
        mapping, index, nums = self._map, beta.universe.index, beta.nums
        domain_universe = self.domain.universe
        return _reduced(
            domain_universe, beta.scale, tuple([nums[index(mapping[x])] for x in domain_universe])
        )

    def image(self, alpha: FiniteFuzzySet) -> FiniteFuzzySet:
        """Push a domain fuzzy set forward: sup over each fiber, 0 if empty."""
        self.domain.members[0]._require_compatible(alpha)
        mapping = self._map
        codomain_universe = self.codomain.universe
        best = dict.fromkeys(codomain_universe, 0)
        for x, n in zip(self.domain.universe, alpha.nums):
            y = mapping[x]
            if n > best[y]:
                best[y] = n
        return _reduced(codomain_universe, alpha.scale, tuple(best.values()))


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
            _require_chain({name: getattr(self, name) for name in names})

    def verdicts(self) -> dict[str, bool]:
        return {name: getattr(self, name) for name in CONTINUITY_CLASSES + OPENNESS_CLASSES}


def classify_function(f: FuzzyFunction) -> FunctionClassification:
    """Decide all eight classes by exhausting the relevant member lists.

    Universal quantification over opens reduces to iteration because both
    topologies are finite.  Each preimage of a codomain open and each image
    of a domain open is classified once, and its four set verdicts, in
    chain order, are the verdicts of the four classes on its side; the
    first failing member (in canonical member order) is recorded as the
    witness for its class.
    """
    verdicts: dict[str, bool] = {}
    witnesses: dict[str, FiniteFuzzySet] = {}
    for names, space, members, lift in (
        (CONTINUITY_CLASSES, f.domain, f.codomain.members, f.preimage),
        (OPENNESS_CLASSES, f.codomain, f.domain.members, f.image),
    ):
        verdicts.update(dict.fromkeys(names, True))
        for member in members:
            held = set_verdicts(space, lift(member)).values()
            for name, holds in zip(names, held):
                if not holds and verdicts[name]:
                    verdicts[name] = False
                    witnesses[name] = member
    return FunctionClassification(**verdicts, witnesses=witnesses)
