"""Cross-module laws checked on randomized inputs.

Per-module property tests live next to their units; this file holds the
laws that only make sense once several modules cooperate, such as the
closed form for the semi-interior agreeing with the brute-force sweep,
and documents surviving a print/parse round trip.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftop import (
    DocumentError,
    FiniteFuzzySet,
    PLFuzzySet,
    GridSpec,
    Universe,
    brute_semi_interior,
    build_topology,
    document_for_space,
    parse_space,
    print_space,
    semi_closure,
    semi_interior,
)
from ftop.documents import space_as_data

import reference
from helpers import exact_degrees, quarter_sets, quarter_spaces

K = 4


class TestClosedFormAgainstBruteForce:
    """The two semi-interior routes never disagree on grid data.

    The closed form computes ``s.meet(closure(interior(s)))``; the oracle joins every
    semiopen grid set below ``s``.  On-grid inputs keep both answers on
    the grid, so equality here is exact, not approximate.
    """

    @settings(max_examples=60, deadline=None)
    @given(quarter_spaces, quarter_sets)
    def test_semi_interior_routes_agree(self, space, s):
        spec = GridSpec(2, K)
        assert brute_semi_interior(space, s, spec) == semi_interior(space, s)

    @settings(max_examples=60, deadline=None)
    @given(quarter_spaces, quarter_sets)
    def test_semi_closure_is_the_dual_route(self, space, s):
        brute = brute_semi_interior(space, s.complement(), GridSpec(2, K))
        assert semi_closure(space, s) == brute.complement()


class TestDocumentRoundTrips:
    """Printing and re-parsing a document loses nothing."""

    @settings(max_examples=60, deadline=None)
    @given(quarter_spaces)
    def test_space_survives_description(self, space):
        doc = document_for_space(space)
        rebuilt = build_topology(parse_space(print_space(doc)))
        assert rebuilt.members == space.members

    @settings(max_examples=60, deadline=None)
    @given(quarter_spaces)
    def test_as_data_is_stable(self, space):
        doc = document_for_space(space)
        assert space_as_data(parse_space(print_space(doc))) == space_as_data(doc)


# --- documents read on integers against the Fraction constructors ---------

inner_xs = st.builds(Fraction, st.integers(1, 11), st.integers(2, 12)).filter(lambda x: x < 1)


@st.composite
def literal(draw, value: Fraction) -> str:
    """``value`` written as a document literal, often unreduced.

    Numerator and denominator are scaled by a common factor, the numerator
    may carry leading zeros, a zero may be written ``-0``, and a whole
    number may drop its denominator.
    """
    factor = draw(st.integers(1, 4))
    p, q = value.numerator * factor, value.denominator * factor
    text = "0" * draw(st.integers(0, 2)) + str(p)
    if p == 0 and draw(st.booleans()):
        text = "-" + text
    if q != 1 or draw(st.booleans()):
        text += f"/{q}"
    return text


@st.composite
def finite_documents(draw):
    """A finite subbasis document and the Fraction degrees of its sets."""
    labels = ["a", "b", "c"][: draw(st.integers(1, 3))]
    sets = {}
    for name in ["s", "t", "u"][: draw(st.integers(0, 3))]:
        values = [draw(exact_degrees()) for _ in labels]
        sets[name] = (values, {label: draw(literal(v)) for label, v in zip(labels, values)})
    data = {
        "kind": "finite",
        "universe": labels,
        "sets": {name: body for name, (_, body) in sets.items()},
        "topology": list(sets),
        "topology_is": "subbasis",
    }
    universe = Universe(tuple(labels))
    return json.dumps(data), {name: FiniteFuzzySet(universe, tuple(v)) for name, (v, _) in sets.items()}


def pl_document(breakpoints: dict) -> str:
    return json.dumps(
        {
            "kind": "pl",
            "sets": {name: {"breakpoints": pairs} for name, pairs in breakpoints.items()},
            "topology": list(breakpoints),
            "topology_is": "subbasis",
        }
    )


@st.composite
def pl_documents(draw):
    """A PL subbasis document and the Fraction breakpoints of its sets."""
    sets = {}
    for name in ["s", "t", "u"][: draw(st.integers(1, 3))]:
        xs = [Fraction(0), *sorted(draw(st.sets(inner_xs, max_size=4))), Fraction(1)]
        points = [(x, draw(exact_degrees())) for x in xs]
        sets[name] = (points, [[draw(literal(x)), draw(literal(y))] for x, y in points])
    text = pl_document({name: pairs for name, (_, pairs) in sets.items()})
    return text, {name: PLFuzzySet(points) for name, (points, _) in sets.items()}


class TestIntegerDocumentBoundary:
    """Documents parsed on integers give the sets the Fraction constructors
    give, and printing is a fixed point after one parse."""

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(finite_documents(), pl_documents()))
    def test_parsed_sets_match_constructors(self, document):
        text, expected = document
        doc = parse_space(text)
        assert dict(doc.sets) == expected
        printed = print_space(doc)
        assert print_space(parse_space(printed)) == printed

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.tuples(exact_degrees(), exact_degrees()), max_size=5),
        st.data(),
    )
    def test_breakpoint_errors_match_the_fraction_rules(self, points, data):
        """Any breakpoint list, valid or not: the document is accepted iff it
        breaks none of the literal breakpoint rules, and else refused with
        the message of the first rule it breaks."""
        pairs = [[data.draw(literal(x)), data.draw(literal(y))] for x, y in points]
        text = pl_document({"s": pairs})
        message = reference.breakpoint_error(points)
        if message is None:
            assert parse_space(text).resolve("s").breakpoints == reference.canonicalize(points)
        else:
            with pytest.raises(DocumentError) as err:
                parse_space(text)
            assert err.value.code == "bad-breakpoints"
            assert err.value.where == "$.sets.s.breakpoints"
            assert str(err.value) == f"$.sets.s.breakpoints: {message}"

