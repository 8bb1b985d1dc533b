"""Document parsing: schema enforcement, error codes, round-trips."""

import json
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftop import (
    BackendMismatchError,
    DocumentError,
    FiniteFuzzySet,
    FtopError,
    InvalidTopologyError,
    PLFuzzySet,
    build_function,
    build_topology,
    classify_function,
    document_for_space,
    function_as_data,
    parse_function,
    parse_space,
    print_function,
    print_space,
)
from ftop.cli import main
from ftop.documents import _json_text

from helpers import ALPHA, LAM, MU, SIGMA, fs, t_fin, t_pl

FINITE_DOC = """
{
  "kind": "finite",
  "universe": ["a", "b"],
  "sets": {
    "m1": {"a": "0", "b": "1/3"},
    "m2": {"a": "1/2", "b": "0"},
    "m3": {"a": "1/2", "b": "1/3"}
  },
  "topology": ["0", "m1", "m2", "m3", "1"],
  "topology_is": "complete"
}
"""


def error_code(text):
    with pytest.raises(DocumentError) as err:
        parse_space(text)
    return err.value.code, err.value.where


def test_parse_finite_document():
    doc = parse_space(FINITE_DOC)
    assert doc.kind == "finite"
    assert doc.universe.labels == ("a", "b")
    assert doc.names() == ("m1", "m2", "m3")
    assert doc.resolve("m2") == fs("1/2", 0)
    assert doc.resolve("0") == fs(0, 0)
    assert doc.resolve("1") == fs(1, 1)
    space = build_topology(doc)
    assert space.members == t_fin().members


@pytest.mark.parametrize(
    "text",
    [
        FINITE_DOC,
        '{"kind": "finite", "universe": ["a"], "sets": {}, "topology": ["0", "1"], "topology_is": "complete"}',
    ],
    ids=["with-sets", "constants-only"],
)
def test_a_finite_document_builds_every_member_over_one_universe(text):
    doc = parse_space(text)
    members = [doc.resolve(name) for name in doc.topology]
    assert len({id(member.universe) for member in members}) == 1
    assert len({id(member.universe) for member in build_topology(doc).members}) == 1


def test_bundled_example_parses_and_validates():
    text = (resources.files("ftop") / "data" / "example1.json").read_text()
    doc = parse_space(text)
    assert doc.kind == "pl"
    assert doc.names() == ("mu", "lambda", "sigma", "alpha", "beta")
    assert doc.resolve("mu") == MU
    assert doc.resolve("lambda") == LAM
    assert doc.resolve("sigma") == SIGMA
    assert doc.resolve("alpha") == ALPHA
    space = build_topology(doc)
    assert len(space) == 5
    assert space.is_open(SIGMA)


def test_round_trip_finite_and_pl():
    for text in (FINITE_DOC, (resources.files("ftop") / "data" / "example1.json").read_text()):
        doc = parse_space(text)
        assert parse_space(print_space(doc)) == doc


def test_malformed_json():
    code, where = error_code("{")
    assert code == "malformed-json"
    assert "line" in where


def test_float_literals_are_rejected_at_the_lexer():
    code, _ = error_code('{"kind": "finite", "universe": ["a"], "sets": {"s": {"a": 0.5}}, "topology": ["0"], "topology_is": "complete"}')
    assert code == "float-literal"
    with pytest.raises(DocumentError, match=r"floats forbidden; write 1/2"):
        parse_space("[0.5]")
    code, _ = error_code('{"kind": NaN}')
    assert code == "float-literal"


def test_unknown_kind():
    code, where = error_code('{"kind": "crisp", "sets": {}, "topology": [], "topology_is": "complete"}')
    assert code == "unknown-kind" and where == "$.kind"


def test_unresolved_names():
    code, where = error_code(
        '{"kind": "finite", "universe": ["a"], "sets": {}, "topology": ["0", "ghost"], "topology_is": "complete"}'
    )
    assert code == "unresolved-name" and where == "$.topology[1]"
    code, where = error_code(
        '{"kind": "finite", "universe": ["a"], "sets": {"s": {"a": "0", "b": "0"}}, "topology": ["0"], "topology_is": "complete"}'
    )
    assert code == "unresolved-name" and where == "$.sets.s.b"


def test_bad_and_out_of_range_rationals():
    template = '{"kind": "finite", "universe": ["a"], "sets": {"s": {"a": %s}}, "topology": ["0", "1"], "topology_is": "complete"}'
    assert error_code(template % '"half"')[0] == "bad-rational"
    assert error_code(template % "1")[0] == "bad-rational"
    assert error_code(template % '"1/2\\n"') == ("bad-rational", "$.sets.s.a")
    code, where = error_code(template % '"3/2"')
    assert code == "rational-range" and where == "$.sets.s.a"


def test_schema_violations():
    assert error_code("[]")[0] == "schema"
    assert error_code('{"kind": "finite", "universe": ["a"], "sets": {}, "topology": [], "topology_is": "partial"}')[0] == "schema"
    assert error_code('{"kind": "finite", "sets": {}, "topology": [], "topology_is": "complete"}')[0] == "schema"
    assert error_code('{"kind": "finite", "universe": ["a", "a"], "sets": {}, "topology": [], "topology_is": "complete"}')[0] == "schema"
    assert error_code('{"kind": "finite", "universe": ["a", 1], "sets": {}, "topology": [], "topology_is": "complete"}') == ("schema", "$.universe")
    assert error_code('{"kind": "pl", "universe": ["a"], "sets": {}, "topology": [], "topology_is": "complete"}')[0] == "schema"
    assert error_code('{"kind": "finite", "universe": ["a"], "sets": {"s": {}}, "topology": [], "topology_is": "complete"}')[0] == "schema"
    assert error_code('{"kind": "finite", "universe": ["a"], "sets": {}, "topology": [], "topology_is": "complete", "extra": 1}')[0] == "schema"
    for twice in (
        '{"kind": "finite", "universe": ["a"], "sets": {}, "topology": ["0", "1"], "topology_is": "complete", "topology_is": "subbasis"}',
        '{"kind": "finite", "universe": ["a"], "sets": {"s": {"a": "0"}, "s": {"a": "1"}}, "topology": ["0", "1"], "topology_is": "complete"}',
        '{"kind": "finite", "universe": ["a"], "sets": {"s": {"a": "0", "a": "1"}}, "topology": ["0", "1"], "topology_is": "complete"}',
    ):
        assert error_code(twice)[0] == "duplicate-key"
    universe_doc = '{"kind": "finite", "universe": %s, "sets": {}, "topology": [], "topology_is": "complete"}'
    for universe in ("[]", '["a", ""]', '[["a"]]'):
        assert error_code(universe_doc % universe) == ("schema", "$.universe")
    with pytest.raises(DocumentError) as err:
        parse_function(
            '{"domain": %s, "codomain": %s, "map": {}}'
            % (universe_doc % '["a", "a"]', universe_doc % '["u"]')
        )
    assert (err.value.code, err.value.where) == ("schema", "$.domain.universe")


def test_reserved_names_cannot_be_redefined():
    code, where = error_code(
        '{"kind": "finite", "universe": ["a"], "sets": {"0": {"a": "0"}}, "topology": ["0", "1"], "topology_is": "complete"}'
    )
    assert code == "reserved-name" and where == "$.sets.0"


# Past the 640 digits read in one part, and past ``int()``'s default limit.
LONG = "1" * 5000
LONG_MESSAGE = "rational literal with 5000 digits in one part; at most 640 are read"

PL_TEMPLATE = '{"kind": "pl", "sets": {"s": {"breakpoints": %s}}, "topology": ["0", "1"], "topology_is": "complete"}'


def breakpoint_error(breakpoints):
    """``(code, where, message)`` of the error a PL body raises."""
    with pytest.raises(DocumentError) as err:
        parse_space(PL_TEMPLATE % breakpoints)
    return err.value.code, err.value.where, str(err.value).removeprefix(f"{err.value.where}: ")


BAD_BREAKPOINTS = [
    # (breakpoints, code, where, message); "6/8" and "2/4" are printed reduced
    ("[]", "bad-breakpoints", "$.sets.s.breakpoints", "need at least the two endpoint breakpoints"),
    ('[["0", "0"]]', "bad-breakpoints", "$.sets.s.breakpoints", "need at least the two endpoint breakpoints"),
    ('[["0", "0"], ["1/2", "1"]]', "bad-breakpoints", "$.sets.s.breakpoints", "breakpoints must start at x=0 and end at x=1"),
    ('[["1/3", "0"], ["1", "1"]]', "bad-breakpoints", "$.sets.s.breakpoints", "breakpoints must start at x=0 and end at x=1"),
    ('[["0", "0"], ["1"]]', "bad-breakpoints", "$.sets.s.breakpoints[1]", "a breakpoint is a [x, y] pair of rational strings"),
    (
        '[["0", "0"], ["3/4", "1"], ["1/2", "0"], ["1", "0"]]',
        "bad-breakpoints",
        "$.sets.s.breakpoints",
        "x-coordinates must strictly increase: 3/4 then 1/2",
    ),
    (
        '[["0", "0"], ["6/8", "1"], ["2/4", "0"], ["1", "0"]]',
        "bad-breakpoints",
        "$.sets.s.breakpoints",
        "x-coordinates must strictly increase: 3/4 then 1/2",
    ),
    (
        '[["0", "0"], ["2/6", "1"], ["1/3", "0"], ["1", "0"]]',
        "bad-breakpoints",
        "$.sets.s.breakpoints",
        "x-coordinates must strictly increase: 1/3 then 1/3",
    ),
    ('[["0", "0"], ["1", "4/3"]]', "rational-range", "$.sets.s.breakpoints[1]", "degree 4/3 outside [0, 1]"),
    ('[["0", "0"], ["1", "1/2", "0"]]', "bad-breakpoints", "$.sets.s.breakpoints[1]", "a breakpoint is a [x, y] pair of rational strings"),
    ('[["0", "0"], ["1", 1]]', "bad-rational", "$.sets.s.breakpoints[1]", 'expected a rational string like "1/2", got 1'),
    ('"diagonal"', "schema", "$.sets.s.breakpoints", "breakpoints must be a JSON array, got str"),
    # each distinct literal is read once per document: a failing one is
    # never stored, so it is reported at its first place; a non-string is
    # never looked up as the string it prints as
    ('[["0", "x"], ["1/2", "x"], ["1", "0"]]', "bad-rational", "$.sets.s.breakpoints[0]", "not a rational literal: 'x' (expected p or p/q)"),
    ('[["0", "0"], ["1/2", "3/2"], ["1", "3/2"]]', "rational-range", "$.sets.s.breakpoints[1]", "degree 3/2 outside [0, 1]"),
    ('[["0", "1"], ["1", 1]]', "bad-rational", "$.sets.s.breakpoints[1]", 'expected a rational string like "1/2", got 1'),
    ('[["0", "0"], ["1", ["1"]]]', "bad-rational", "$.sets.s.breakpoints[1]", "expected a rational string like \"1/2\", got ['1']"),
    ('[["0", "0"], ["1", {"y": "1"}]]', "bad-rational", "$.sets.s.breakpoints[1]", "expected a rational string like \"1/2\", got {'y': '1'}"),
    ('[["0", "0"], ["1", "%s"]]' % LONG, "bad-rational", "$.sets.s.breakpoints[1]", LONG_MESSAGE),
]


def test_bad_breakpoints():
    for breakpoints, *expected in BAD_BREAKPOINTS:
        assert breakpoint_error(breakpoints) == tuple(expected), breakpoints


BAD_DEGREES = [
    # (sets, code, where, message) over the universe ["a", "b"]; degrees
    # are read in universe order, not in the body's key order
    ('{"s": {"a": "x", "b": "x"}}', "bad-rational", "$.sets.s.a", "not a rational literal: 'x' (expected p or p/q)"),
    ('{"s": {"b": "x", "a": "y"}}', "bad-rational", "$.sets.s.a", "not a rational literal: 'y' (expected p or p/q)"),
    ('{"s": {"a": "0", "b": "1"}, "t": {"a": "3/2", "b": "3/2"}}', "rational-range", "$.sets.t.a", "degree 3/2 outside [0, 1]"),
    ('{"s": {"a": "1", "b": 1}}', "bad-rational", "$.sets.s.b", 'expected a rational string like "1/2", got 1'),
    ('{"s": {"a": "0", "b": ["1"]}}', "bad-rational", "$.sets.s.b", "expected a rational string like \"1/2\", got ['1']"),
    ('{"s": {"a": {"v": "1"}, "b": "0"}}', "bad-rational", "$.sets.s.a", "expected a rational string like \"1/2\", got {'v': '1'}"),
    ('{"s": {"a": "0", "b": "%s"}}' % LONG, "bad-rational", "$.sets.s.b", LONG_MESSAGE),
]

FINITE_TEMPLATE = '{"kind": "finite", "universe": ["a", "b"], "sets": %s, "topology": ["0", "1"], "topology_is": "complete"}'


def test_bad_degrees_in_finite_bodies():
    for sets, *expected in BAD_DEGREES:
        with pytest.raises(DocumentError) as err:
            parse_space(FINITE_TEMPLATE % sets)
        got = err.value.code, err.value.where, str(err.value).removeprefix(f"{err.value.where}: ")
        assert got == tuple(expected), sets


def test_bad_literals_exit_2_from_the_cli(tmp_path, capsys):
    """Every document error above is an input error on the command line
    too: exit 2, never a crash reported as a bug (exit 4).  So is a
    complete topology listed as ``[]``, which parses but cannot be built."""
    cases = [(PL_TEMPLATE % doc, *rest) for doc, *rest in BAD_BREAKPOINTS]
    cases += [(FINITE_TEMPLATE % doc, *rest) for doc, *rest in BAD_DEGREES]
    empty = '{"kind": "finite", "universe": ["a"], "sets": {}, "topology": [], "topology_is": "complete"}'
    cases.append((empty, "schema", "$.topology", "a complete topology cannot be an empty list"))
    path = tmp_path / "space.json"
    for text, code, where, message in cases:
        path.write_text(text, encoding="utf-8")
        assert main(["validate", str(path)]) == 2, text
        assert capsys.readouterr().err == f"error[{code}]: {where}: {message}\n"


def test_complete_lists_are_validated_against_the_axioms():
    text = '{"kind": "pl", "sets": {"mu": {"breakpoints": [["0","0"],["1/2","0"],["1","1"]]}, "lambda": {"breakpoints": [["0","1"],["1/4","1"],["1/2","0"],["1","0"]]}}, "topology": ["0", "mu", "lambda", "1"], "topology_is": "complete"}'
    with pytest.raises(InvalidTopologyError):
        build_topology(parse_space(text))
    missing_one = '{"kind": "finite", "universe": ["a"], "sets": {}, "topology": ["0"], "topology_is": "complete"}'
    with pytest.raises(InvalidTopologyError) as err:
        build_topology(parse_space(missing_one))
    assert any(v.axiom == "i" for v in err.value.violations)


def test_subbasis_documents_are_closed_before_use():
    text = '{"kind": "finite", "universe": ["a", "b"], "sets": {"t": {"a": "1", "b": "1/3"}, "w": {"a": "1/2", "b": "1"}}, "topology": ["t", "w"], "topology_is": "subbasis"}'
    space = build_topology(parse_space(text))
    assert fs("1/2", "1/3") in space.members
    assert len(space) == 5


@pytest.mark.parametrize(
    "header, constants",
    [
        ('"kind": "finite", "universe": ["a", "b"]', (fs(0, 0), fs(1, 1))),
        ('"kind": "pl"', (PLFuzzySet.zero(), PLFuzzySet.one())),
    ],
    ids=["finite", "pl"],
)
def test_empty_subbasis_documents_give_the_indiscrete_space(header, constants):
    text = '{%s, "sets": {}, "topology": [], "topology_is": "subbasis"}' % header
    assert build_topology(parse_space(text)).members == constants


def test_function_document_round_trip_and_build():
    """The document keeps its own map order; the built map is in domain order."""
    for listed in ((("a", "u"), ("b", "v")), (("b", "v"), ("a", "u"))):
        text = json.dumps(
            {
                "domain": json.loads(FINITE_DOC),
                "codomain": {
                    "kind": "finite",
                    "universe": ["u", "v"],
                    "sets": {"n": {"u": "1/2", "v": "0"}},
                    "topology": ["0", "n", "1"],
                    "topology_is": "complete",
                },
                "map": dict(listed),
            }
        )
        doc = parse_function(text)
        assert doc.map == listed
        assert parse_function(print_function(doc)) == doc
        assert tuple(json.loads(print_function(doc))["map"].items()) == listed
        assert json.loads(print_function(doc)) == function_as_data(doc)
        fn = build_function(doc)
        assert fn.mapping == (("a", "u"), ("b", "v"))
        assert classify_function(fn).fuzzy_continuous


def test_function_document_map_errors():
    domain = {"kind": "finite", "universe": ["a"], "sets": {}, "topology": ["0", "1"], "topology_is": "complete"}
    codomain = {"kind": "finite", "universe": ["u"], "sets": {}, "topology": ["0", "1"], "topology_is": "complete"}

    def fn_code(mapping, dom=domain, cod=codomain):
        with pytest.raises(DocumentError) as err:
            parse_function(json.dumps({"domain": dom, "codomain": cod, "map": mapping}))
        return err.value.code

    assert fn_code({}) == "bad-map"
    assert fn_code({"a": "w"}) == "bad-map"
    assert fn_code({"z": "u", "a": "u"}) == "bad-map"
    pl_side = {"kind": "pl", "sets": {}, "topology": ["0", "1"], "topology_is": "complete"}
    assert fn_code({"a": "u"}, dom=pl_side) == "bad-map"


def test_document_for_space_describes_and_rebuilds():
    space = t_fin()
    doc = document_for_space(space)
    assert doc.topology[0] == "0" and doc.topology[-1] == "1"
    assert build_topology(doc).members == space.members
    assert parse_space(print_space(doc)) == doc


def test_document_for_space_rejects_pl_spaces():
    with pytest.raises(FtopError) as err:
        document_for_space(t_pl())
    assert isinstance(err.value, BackendMismatchError)


# Values of every shape the printer takes: keys and strings of any text
# (non-ASCII, control characters, quotes, backslashes, lone surrogates),
# integers wider than 64 bits, and an empty object and array among the
# leaves, so that they turn up at every depth.
ANY_TEXT = st.text(st.characters(exclude_categories=()))
JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(2**200), max_value=2**200)
    | ANY_TEXT
    | st.sampled_from(['"', "\\", "\x00\x1f\x7f", "\u00e9\u2028\U0001f600", "\ud800"])
    | st.just({})
    | st.just([])
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(ANY_TEXT, children, max_size=4)
    ),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
def test_the_printer_writes_the_bytes_of_json_dumps(value):
    assert _json_text(value) == json.dumps(value, indent=2)


def test_the_printer_writes_empty_containers_at_every_depth():
    value: object = {"": {}, "[]": [], "()": ()}
    for _ in range(4):
        value = [{}, [], value, (), {"k": {}, "l": [], "v": value}]
        assert _json_text(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize(
    "value",
    [0.5, {"a": [1, 0.5]}, float("nan"), {1, 2}, {"a": frozenset()}, {1: "a"}, [{True: "a"}], object()],
    ids=["float", "nested-float", "nan", "set", "nested-frozenset", "int-key", "bool-key", "object"],
)
def test_the_printer_refuses_floats_sets_and_non_string_keys(value):
    with pytest.raises(TypeError):
        _json_text(value)
