import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ftop
from ftop import DegreeRangeError, as_degree, format_rational, parse_rational
from ftop.degrees import MAX_DIGITS, format_ratio, parse_degree


def test_parse_accepts_plain_and_fraction_forms():
    assert parse_rational("0") == 0
    assert parse_rational("7") == 7
    assert parse_rational("1/2") == Fraction(1, 2)
    assert parse_rational("2/4") == Fraction(1, 2)
    assert parse_rational("-3/4") == Fraction(-3, 4)


@pytest.mark.parametrize(
    "bad",
    [
        *["", "0.5", "1/0", "1/-2", "a", " 1/2", "1/2 ", "1 / 2", "+1", "1e-3", "1/2\n", "1\n"],
        # str.isdigit takes these digits, int() the signs, blanks and underscores
        *["\u0661/2", "1/\u0662", "\u00b2", "1/\u00b2", "\uff11", "1/\uff12", "1_0", "1/1_0"],
        *["\t1", "1/\t2", "1/2\t", "1/+2", "+1/2", "-+1", "--1", "-", "1/", "/2", "1/2/3"],
    ],
)
def test_parse_rejects_non_rational_literals(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


@pytest.mark.parametrize("parse", [parse_rational, parse_degree])
@pytest.mark.parametrize("bad", [1, None, b"1/2", ["1"]])
def test_parse_rejects_non_strings_with_a_type_error(parse, bad):
    with pytest.raises(TypeError):
        parse(bad)


def test_format_reduces():
    assert format_rational(Fraction(2, 4)) == "1/2"
    assert format_rational(Fraction(3)) == "3"
    assert format_rational(Fraction(0)) == "0"


def test_as_degree_coerces_exact_inputs():
    assert as_degree(1) == 1
    assert as_degree("1/3") == Fraction(1, 3)
    assert as_degree(Fraction(2, 5)) == Fraction(2, 5)


def test_as_degree_rejects_floats_and_bools():
    with pytest.raises(TypeError):
        as_degree(0.5)
    with pytest.raises(TypeError):
        as_degree(True)


@pytest.mark.parametrize("bad", ["3/2", "-1/2", 2, -1])
def test_as_degree_rejects_out_of_range(bad):
    with pytest.raises(DegreeRangeError):
        as_degree(bad)


class TestRoundTrip:
    @given(st.integers(min_value=0, max_value=600), st.integers(min_value=1, max_value=600))
    def test_format_then_parse_is_identity(self, num, den):
        """parse(format(q)) == q for every degree."""
        value = Fraction(min(num, den), den)
        assert parse_rational(format_rational(value)) == value


# --- the integer parser against the Fraction path it replaced --------------
#
# ``reference_as_degree`` is ``as_degree`` on a string as it stood before
# the integer parser: ``parse_rational`` built a Fraction, which was then
# compared against 0 and 1 and printed with ``format_rational``.  Its
# regex is held to the same literal syntax as the parser's, ASCII digits
# matched in full; the literals above pin that syntax.  A part of more than
# 640 digits, the fewest that every ``int`` digit-limit setting converts,
# is refused before ``int`` sees it.

_REFERENCE_RE = re.compile(r"(-?[0-9]+)(?:/([1-9][0-9]*))?")
_REFERENCE_DIGITS = 640


def reference_format(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def reference_as_degree(text: str) -> Fraction:
    match = _REFERENCE_RE.fullmatch(text)
    if match is None:
        raise ValueError(f"not a rational literal: {text!r} (expected p or p/q)")
    numerator, denominator = match.groups()
    longest = max(len(numerator.removeprefix("-")), len(denominator or ""))
    if longest > _REFERENCE_DIGITS:
        raise ValueError(
            f"rational literal with {longest} digits in one part; "
            f"at most {_REFERENCE_DIGITS} are read"
        )
    degree = Fraction(int(numerator), int(denominator) if denominator else 1)
    if degree < 0 or degree > 1:
        raise DegreeRangeError(f"degree {reference_format(degree)} outside [0, 1]")
    return degree


def outcome(parse, text):
    """``("ok", value)``, or ``(error type, message)`` if ``parse`` raises."""
    try:
        return "ok", parse(text)
    except ValueError as exc:
        return type(exc), str(exc)


EDGE_LITERALS = [
    *["2/4", "0/7", "-0", "007/8", "1/0", "1/08", "3/2", "-1/3", "-2/6", "6/4", "0", "1"],
    *["--1", "-", "1/", "/2", "1/2/3", "1/-2", "1_0", "\u00b2", "1/\uff12", "\u0661", " 1"],
]
digits = st.text("0123456789", min_size=1, max_size=4)
literals = st.one_of(
    st.sampled_from(EDGE_LITERALS),
    st.builds(
        lambda sign, p, q: f"{sign}{p}" if q is None else f"{sign}{p}/{q}",
        st.sampled_from(["", "", "-"]),
        digits,
        st.none() | digits,
    ),
    st.text("0123456789/- .+e\u0663\n_\u00b2\uff11\u0661\t", max_size=6),
    # one character that str.isdigit() or int() takes but the grammar does
    # not, inside or around a well-formed literal
    st.builds(
        lambda p, q, odd, at: (f"{p}/{q}"[:at] + odd + f"{p}/{q}"[at:]),
        digits,
        digits,
        st.sampled_from(["_", "\u00b2", "\uff11", "\u0661", "\t", "+", " ", "\n"]),
        st.integers(0, 9),
    ),
)


class TestIntegerParserMatchesFractionPath:
    @settings(max_examples=400, deadline=None)
    @given(literals)
    def test_parse_degree_agrees(self, text):
        """Same literals accepted and rejected, same value, same message."""
        expected = outcome(reference_as_degree, text)
        got = outcome(parse_degree, text)
        if expected[0] == "ok":
            assert got[0] == "ok"
            p, q = got[1]
            assert 0 <= p <= q and Fraction(p, q) == expected[1]
        else:
            assert got == expected
        assert outcome(as_degree, text) == expected

    @pytest.mark.parametrize("digits", [5000, 641])
    @pytest.mark.parametrize("form", ["{}", "1/{}", "-{}"], ids=["p", "q", "minus-p"])
    def test_literals_past_the_int_digit_limit_fail_as_in_the_reference(self, form, digits):
        """A part of more than ``MAX_DIGITS`` (640) digits is refused with
        ftop's own message, naming the limit, whatever ``int()`` would do."""
        expected = outcome(reference_as_degree, form.format("1" * digits))
        message = f"rational literal with {digits} digits in one part; at most 640 are read"
        assert expected == (ValueError, message) and MAX_DIGITS == 640
        assert outcome(parse_degree, form.format("1" * digits)) == expected

    def test_reading_does_not_depend_on_the_int_digit_setting(self):
        """640 and 641 digits in a part, read in a fresh interpreter under
        the default digit limit of ``int()`` and under the lowest one it
        accepts, 640: the same outcome in both runs."""
        script = (
            "from ftop.degrees import parse_degree\n"
            "for text in ('0' * 639 + '1', '0' * 640 + '1', '1/' + '1' * 640, '1/' + '1' * 641):\n"
            "    try:\n        print(parse_degree(text)[1] % 1000)\n"
            "    except ValueError as exc:\n        print(exc)\n"
        )
        env = {key: value for key, value in os.environ.items() if key != "PYTHONINTMAXSTRDIGITS"}
        env["PYTHONPATH"] = str(Path(ftop.__file__).parents[1])
        outputs = [
            subprocess.run([sys.executable, "-c", script], env=setting, capture_output=True, text=True)
            for setting in (env, dict(env, PYTHONINTMAXSTRDIGITS="640"))
        ]
        refused = "rational literal with 641 digits in one part; at most 640 are read"
        assert [run.stdout for run in outputs] == [f"1\n{refused}\n111\n{refused}\n"] * 2

    def test_pairs_are_not_reduced(self):
        assert parse_degree("2/4") == (2, 4)
        assert parse_degree("007/8") == (7, 8)
        assert parse_degree("-0") == (0, 1)
        assert parse_degree("1") == (1, 1)
        with pytest.raises(DegreeRangeError, match=r"^degree -1/3 outside \[0, 1\]$"):
            parse_degree("-2/6")
        with pytest.raises(ValueError, match="not a rational literal"):
            parse_degree("1/08")

    @given(st.integers(-50, 50), st.integers(1, 60))
    def test_format_ratio_matches_fraction(self, n, scale):
        assert format_ratio(n, scale) == reference_format(Fraction(n, scale))
        assert format_rational(Fraction(n, scale)) == reference_format(Fraction(n, scale))

