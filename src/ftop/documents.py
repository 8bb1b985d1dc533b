"""Reading and writing the JSON documents that describe spaces and maps.

One interchange format, JSON with rational strings, so every degree in a
document is bit-exact and auditable by eye.  Floats are rejected at the
lexer level: a binary float can move a degree off a boundary, and
boundaries are where openness verdicts flip.

A space document looks like::

    {
      "kind": "finite",
      "universe": ["a", "b"],
      "sets": {"A": {"a": "1/2", "b": "0"}},
      "topology": ["0", "A", "1"],
      "topology_is": "complete"
    }

with ``kind: "pl"`` documents dropping ``universe`` and writing each set
body as ``{"breakpoints": [["0", "0"], ["1", "1"]]}``.  The names ``"0"``
and ``"1"`` are reserved: in a topology list they denote the constant
bottom and top sets and need no body.  ``topology_is`` says whether the
listed family is the complete topology (validated as-is) or a subbasis
(closed under meet and join first).

A function document wraps two space documents and a crisp point map::

    {"domain": <space>, "codomain": <space>, "map": {"a": "u", "b": "v"}}

All parse failures raise :class:`ftop.errors.DocumentError` with a stable
machine-readable ``code`` and a ``where`` path into the document.  A key
given twice in one JSON object is the error ``duplicate-key``, not a
silent last-wins.

Degrees cross this boundary as integers: each literal is read to its
``(p, q)`` pair by :func:`ftop.degrees.parse_degree`, and the pairs go to
the backend's one integer entry, ``fset._from_ratios`` or
``plin._from_ratios``, which the public constructors use too; this module
does no scale arithmetic.  Printing formats each numerator over the set's
scale.  No Fraction is built on the way in or out.

Each distinct literal is read once per space document: the parse keeps a
table from literal text to pair for that one call, and a repeated literal
is looked up in it.  A literal that fails is never stored, so each of its
places reads it again and fails there.  The ``where`` path of a degree is
built only when one fails.

Every JSON text the package prints, documents and CLI reports alike,
comes from one printer, :func:`_json_text`.  Its bytes are those of
``json.dumps(value, indent=2)``, without the stdlib's pure-Python
indenting encoder; it prints objects with string keys, arrays, strings,
booleans, null and integers, and refuses anything else, a float
included, with ``TypeError``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _escape
from typing import Any, Union

from . import fset, plin
from .degrees import MAX_DIGITS, format_ratio, parse_degree
from .errors import DegreeRangeError, DocumentError
from .fset import FiniteFuzzySet, Universe
from .functions import FuzzyFunction
from .plin import PLFuzzySet
from .topology import FuzzyTopology, generate, validate

__all__ = [
    "RESERVED_NAMES",
    "SpaceDocument",
    "FunctionDocument",
    "parse_space",
    "print_space",
    "space_as_data",
    "set_as_data",
    "parse_function",
    "print_function",
    "function_as_data",
    "build_topology",
    "build_function",
    "document_for_space",
]

RESERVED_NAMES = ("0", "1")

SetBody = Union[FiniteFuzzySet, PLFuzzySet]

_SPACE_KEYS = frozenset({"kind", "universe", "sets", "topology", "topology_is"})
_FUNCTION_KEYS = frozenset({"domain", "codomain", "map"})


def _json_text(value: Any) -> str:
    """``json.dumps(value, indent=2)``, for the values a report or document holds.

    Strings are escaped by the stdlib's ASCII escaper and integers printed
    by ``int.__repr__``, as ``json.dumps`` does; a float, a set, a key that
    is not a string or any other value raises ``TypeError``.
    """
    parts: list[str] = []
    _write_json(value, parts, "\n")
    return "".join(parts)


def _write_json(value: Any, parts: list[str], newline: str) -> None:
    """Append the JSON of ``value`` to ``parts``; ``newline`` ends a line at its depth."""
    if isinstance(value, str):
        parts.append(_escape(value))
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = newline + "  "
        opener = "{" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            parts.append(opener)
            parts.append(_escape(key))
            parts.append(": ")
            _write_json(item, parts, inner)
            opener = "," + inner
        parts.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        inner = newline + "  "
        opener = "[" + inner
        for item in value:
            parts.append(opener)
            _write_json(item, parts, inner)
            opener = "," + inner
        parts.append(newline + "]")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif value is None:
        parts.append("null")
    elif isinstance(value, int):
        parts.append(int.__repr__(value))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _reject_float(literal: str) -> Any:
    raise DocumentError("float-literal", "floats forbidden; write 1/2")


def _checked_int(literal: str) -> int:
    """A JSON integer, if it has at most :data:`ftop.degrees.MAX_DIGITS` digits."""
    digits = len(literal) - literal.startswith("-")
    if digits > MAX_DIGITS:
        raise DocumentError(
            "malformed-json",
            f"invalid JSON: a number with {digits} digits; at most {MAX_DIGITS} are read",
        )
    return int(literal)


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """The object of ``pairs``; a key given twice is an error, not last-wins."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen: set[str] = set()
        key = next(key for key, _ in pairs if key in seen or seen.add(key))
        raise DocumentError("duplicate-key", f"key {key!r} appears twice in one object")
    return obj


def _loads(text: str) -> Any:
    """The JSON value of ``text``; any text that is not a document's JSON is
    a ``DocumentError``, nesting too deep for the parser included."""
    try:
        return json.loads(
            text,
            parse_float=_reject_float,
            parse_int=_checked_int,
            parse_constant=_reject_float,
            object_pairs_hook=_unique_keys,
        )
    except DocumentError:
        raise
    except json.JSONDecodeError as exc:
        raise DocumentError(
            "malformed-json",
            f"invalid JSON: {exc.msg}",
            where=f"line {exc.lineno} column {exc.colno}",
        ) from exc
    except RecursionError:
        raise DocumentError(
            "malformed-json", "invalid JSON: arrays or objects nested too deeply"
        ) from None


def _expect(node: Any, kind: type, where: str, what: str) -> Any:
    """``node``, if it is a ``kind``: ``dict`` for a JSON object, ``list`` for an array."""
    if not isinstance(node, kind):
        name = "object" if kind is dict else "array"
        raise DocumentError(
            "schema", f"{what} must be a JSON {name}, got {type(node).__name__}", where
        )
    return node


def _reject_unknown_keys(obj: dict, allowed: frozenset, where: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise DocumentError("schema", f"unknown keys {unknown}", where)


def _degree(value: Any, table: dict[str, tuple[int, int]]) -> tuple[int, int]:
    """The integers ``(p, q)`` of a degree literal, as :func:`parse_degree` gives them.

    ``table`` maps each literal this document has read so far to its
    pair, so a repeated literal is read once; one that fails is never
    stored.  A failure is a ``ValueError``, a ``DegreeRangeError`` for a
    value outside ``[0, 1]``; the reader names its place through
    :func:`_degree_error`.
    """
    if not isinstance(value, str):
        raise ValueError(f'expected a rational string like "1/2", got {value!r}')
    pair = table.get(value)
    if pair is None:
        pair = table[value] = parse_degree(value)
    return pair


def _degree_error(exc: ValueError, where: str) -> DocumentError:
    """The ``DocumentError`` at ``where`` for a failure of :func:`_degree`."""
    code = "rational-range" if isinstance(exc, DegreeRangeError) else "bad-rational"
    return DocumentError(code, str(exc), where)


@dataclass(frozen=True)
class SpaceDocument:
    """A parsed, fully validated space description.

    ``sets`` keeps document order so printing round-trips; values are
    already real set objects, not raw JSON.  ``universe`` is the one
    ``Universe`` the finite set bodies are built over, so the constants
    and the listed sets share it; it is None for a PL document.
    """

    kind: str
    universe: Universe | None
    sets: tuple[tuple[str, SetBody], ...]
    topology: tuple[str, ...]
    topology_is: str

    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.sets)

    def resolve(self, name: str) -> SetBody:
        """The set a name denotes, with ``"0"``/``"1"`` as the constants."""
        universe = self.universe
        if name == "0":
            return PLFuzzySet.zero() if universe is None else FiniteFuzzySet.zero(universe)
        if name == "1":
            return PLFuzzySet.one() if universe is None else FiniteFuzzySet.one(universe)
        for candidate, value in self.sets:
            if candidate == name:
                return value
        raise DocumentError("unresolved-name", f"no set named {name!r}", "$.sets")


def _parse_finite_body(node: Any, universe: Universe, where: str, table: dict) -> FiniteFuzzySet:
    mapping = _expect(node, dict, where, "a finite set body")
    for label in mapping:
        if label not in universe:
            raise DocumentError(
                "unresolved-name",
                f"{label!r} is not a universe point",
                f"{where}.{label}",
            )
    missing = [label for label in universe if label not in mapping]
    if missing:
        raise DocumentError(
            "schema", f"missing degrees for universe points {missing}", where
        )
    pairs = []
    for label in universe:
        try:
            pairs.append(_degree(mapping[label], table))
        except ValueError as exc:
            raise _degree_error(exc, f"{where}.{label}") from exc
    return fset._from_ratios(universe, pairs)


def _parse_pl_body(node: Any, where: str, table: dict) -> PLFuzzySet:
    obj = _expect(node, dict, where, "a pl set body")
    _reject_unknown_keys(obj, frozenset({"breakpoints"}), where)
    pairs_node = _expect(obj.get("breakpoints"), list, f"{where}.breakpoints", "breakpoints")
    xs, ys = [], []
    for i, entry in enumerate(pairs_node):
        if not isinstance(entry, list) or len(entry) != 2:
            pair_where = f"{where}.breakpoints[{i}]"
            _expect(entry, list, pair_where, "a breakpoint")
            raise DocumentError(
                "bad-breakpoints", "a breakpoint is a [x, y] pair of rational strings", pair_where
            )
        try:
            xs.append(_degree(entry[0], table))
            ys.append(_degree(entry[1], table))
        except ValueError as exc:
            raise _degree_error(exc, f"{where}.breakpoints[{i}]") from exc
    try:
        return plin._from_ratios(xs, ys)
    except ValueError as exc:
        raise DocumentError("bad-breakpoints", str(exc), f"{where}.breakpoints") from exc


def _parse_space_data(data: Any, where: str) -> SpaceDocument:
    obj = _expect(data, dict, where, "a space document")
    _reject_unknown_keys(obj, _SPACE_KEYS, where)

    kind = obj.get("kind")
    if kind not in ("finite", "pl"):
        raise DocumentError(
            "unknown-kind", f'kind must be "finite" or "pl", got {kind!r}', f"{where}.kind"
        )

    topology_is = obj.get("topology_is")
    if topology_is not in ("complete", "subbasis"):
        raise DocumentError(
            "schema",
            f'topology_is must be "complete" or "subbasis", got {topology_is!r}',
            f"{where}.topology_is",
        )

    universe: Universe | None = None
    if kind == "finite":
        labels_node = _expect(obj.get("universe"), list, f"{where}.universe", "the universe")
        try:
            universe = Universe(tuple(labels_node))
        except ValueError as exc:
            raise DocumentError("schema", str(exc), f"{where}.universe") from exc
    elif obj.get("universe") is not None:
        raise DocumentError(
            "schema", "pl documents do not carry a universe", f"{where}.universe"
        )

    sets_node = _expect(obj.get("sets", {}), dict, f"{where}.sets", "sets")
    sets: list[tuple[str, SetBody]] = []
    table: dict[str, tuple[int, int]] = {}
    for name, body in sets_node.items():
        body_where = f"{where}.sets.{name}"
        if name in RESERVED_NAMES:
            raise DocumentError(
                "reserved-name",
                'the names "0" and "1" are reserved for the constant sets',
                body_where,
            )
        if kind == "finite":
            sets.append((name, _parse_finite_body(body, universe, body_where, table)))
        else:
            sets.append((name, _parse_pl_body(body, body_where, table)))

    topology_node = _expect(obj.get("topology"), list, f"{where}.topology", "the topology")
    for i, name in enumerate(topology_node):
        name_where = f"{where}.topology[{i}]"
        if not isinstance(name, str):
            raise DocumentError("schema", f"set names are strings, got {name!r}", name_where)
        if name not in sets_node and name not in RESERVED_NAMES:
            raise DocumentError(
                "unresolved-name", f"topology names undefined set {name!r}", name_where
            )

    return SpaceDocument(kind, universe, tuple(sets), tuple(topology_node), topology_is)


def parse_space(text: str) -> SpaceDocument:
    """Parse and validate a space document from JSON text."""
    return _parse_space_data(_loads(text), "$")


def set_as_data(value: SetBody) -> dict:
    """The JSON-ready body of a set, every degree in reduced ``"p/q"`` form."""
    scale = value.scale
    if isinstance(value, FiniteFuzzySet):
        return {
            label: format_ratio(n, scale) for label, n in zip(value.universe.labels, value.nums)
        }
    return {
        "breakpoints": [
            [format_ratio(x, scale), format_ratio(y, scale)] for x, y in zip(value.xs, value.ys)
        ]
    }


def space_as_data(doc: SpaceDocument) -> dict:
    """The JSON-ready form of a document, with stable key order."""
    data: dict[str, Any] = {"kind": doc.kind}
    if doc.universe is not None:
        data["universe"] = list(doc.universe)
    data["sets"] = {name: set_as_data(value) for name, value in doc.sets}
    data["topology"] = list(doc.topology)
    data["topology_is"] = doc.topology_is
    return data


def print_space(doc: SpaceDocument) -> str:
    """Canonical JSON text; ``parse_space`` inverts it exactly."""
    return _json_text(space_as_data(doc)) + "\n"


@dataclass(frozen=True)
class FunctionDocument:
    """A parsed function description: two spaces and a total point map.

    ``map`` keeps document order, as ``sets`` does, so printing
    round-trips; :class:`FuzzyFunction` puts it in domain order.
    """

    domain: SpaceDocument
    codomain: SpaceDocument
    map: tuple[tuple[str, str], ...]


def _parse_function_data(data: Any, where: str) -> FunctionDocument:
    obj = _expect(data, dict, where, "a function document")
    _reject_unknown_keys(obj, _FUNCTION_KEYS, where)
    domain = _parse_space_data(obj.get("domain"), f"{where}.domain")
    codomain = _parse_space_data(obj.get("codomain"), f"{where}.codomain")
    for side, doc in (("domain", domain), ("codomain", codomain)):
        if doc.kind != "finite":
            raise DocumentError(
                "bad-map",
                "function documents need finite spaces on both sides",
                f"{where}.{side}.kind",
            )

    map_node = _expect(obj.get("map"), dict, f"{where}.map", "the map")
    for x, y in map_node.items():
        if x not in domain.universe:
            raise DocumentError(
                "bad-map", f"{x!r} is not a domain point", f"{where}.map.{x}"
            )
        if y not in codomain.universe:
            raise DocumentError(
                "bad-map", f"{y!r} is not a codomain point", f"{where}.map.{x}"
            )
    missing = [x for x in domain.universe if x not in map_node]
    if missing:
        raise DocumentError(
            "bad-map", f"map gives no image for domain points {missing}", f"{where}.map"
        )
    return FunctionDocument(domain, codomain, tuple(map_node.items()))


def parse_function(text: str) -> FunctionDocument:
    """Parse and validate a function document from JSON text."""
    return _parse_function_data(_loads(text), "$")


def function_as_data(doc: FunctionDocument) -> dict:
    return {
        "domain": space_as_data(doc.domain),
        "codomain": space_as_data(doc.codomain),
        "map": {x: y for x, y in doc.map},
    }


def print_function(doc: FunctionDocument) -> str:
    return _json_text(function_as_data(doc)) + "\n"


def build_topology(doc: SpaceDocument, *, cap: int | None = None) -> FuzzyTopology:
    """Turn a document into a live topology.

    ``"complete"`` lists are validated as-is and raise
    :class:`ftop.topology.InvalidTopologyError` when an axiom fails;
    ``"subbasis"`` lists are closed under meet and join first.
    """
    values = [doc.resolve(name) for name in doc.topology]
    if doc.topology_is == "complete":
        if not values:
            raise DocumentError(
                "schema", "a complete topology cannot be an empty list", "$.topology"
            )
        return validate(values)
    return generate(values or [doc.resolve("0")], cap=cap)


def build_function(doc: FunctionDocument, *, cap: int | None = None) -> FuzzyFunction:
    """Turn a function document into a live map between built topologies."""
    domain = build_topology(doc.domain, cap=cap)
    codomain = build_topology(doc.codomain, cap=cap)
    return FuzzyFunction(domain, codomain, doc.map)


def document_for_space(space: FuzzyTopology) -> SpaceDocument:
    """Describe a live finite topology as a document (complete listing).

    Non-constant members get generated names ``s1, s2, ...`` in member
    order; the constants appear in the topology list by their reserved
    names.  Feeding the result to :func:`build_topology` reproduces the
    space.
    """
    universe = space._finite_universe("describing a space as a document")
    sets: list[tuple[str, SetBody]] = []
    topology: list[str] = []
    counter = 0
    for member in space.members:
        if member == space.bottom:
            topology.append("0")
        elif member == space.top:
            topology.append("1")
        else:
            counter += 1
            name = f"s{counter}"
            sets.append((name, member))
            topology.append(name)
    return SpaceDocument(
        kind="finite",
        universe=universe,
        sets=tuple(sets),
        topology=tuple(topology),
        topology_is="complete",
    )
