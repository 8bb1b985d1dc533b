"""Exact membership degrees: rationals in the closed unit interval.

The public degree type is a plain :class:`fractions.Fraction`, which
already guarantees the canonical reduced form, arbitrary precision, and
exact comparison that every downstream verdict depends on.  This module
adds the range check and the ``"p/q"`` wire format used by all serialized
artifacts.  Floats are refused everywhere: there is no tolerance anywhere
in this package.

Documents are read and written on integers.  A literal is read to its
integer pair ``(p, q)``, as written and not reduced, with no regex: it is
split at the slash, checked with ``isascii`` and ``isdigit``, and only
then given to ``int``.  A part may hold at most :data:`MAX_DIGITS`
digits: ``int`` reads that many under every interpreter setting, so
whether a literal reads never depends on the process.
:func:`parse_degree` returns that pair after checking ``0 <= p <= q`` on
the integers; :func:`parse_rational` and :func:`as_degree` build their
Fractions from the same reading.
:func:`format_ratio` prints a numerator over a scale in reduced form,
and :func:`format_rational` prints a Fraction through it.  So a document
that is parsed, computed on and printed builds no Fraction.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DegreeRangeError

__all__ = [
    "ZERO",
    "ONE",
    "MAX_DIGITS",
    "as_degree",
    "parse_degree",
    "parse_rational",
    "format_ratio",
    "format_rational",
]

ZERO = Fraction(0)
ONE = Fraction(1)

# The most digits read in one integer of a document: a literal's numerator
# or denominator, or a JSON number.  CPython's ``int`` converts 640 digits
# under every ``sys.set_int_max_str_digits`` / ``PYTHONINTMAXSTRDIGITS``
# setting, since no limit below 640 can be set.
MAX_DIGITS = 640


def _literal(text: str) -> tuple[int, int]:
    """The integers ``(p, q)`` of a ``"p/q"`` (or bare ``"p"``) literal.

    The grammar is ``-?[0-9]+(/[1-9][0-9]*)?``, matched in full: the text
    is ASCII and each part passes ``isdigit``.  Both tests are needed, and
    ``int`` comes last: ``isdigit`` alone takes other scripts' digits and
    superscripts, ``int`` alone takes signs, blanks and underscores.  A
    part with more than :data:`MAX_DIGITS` digits is refused before
    ``int`` sees it; only a text that long can hold one.
    """
    # Called on the type, so that a non-string is a TypeError.
    numerator, slash, denominator = str.partition(text, "/")
    digits = numerator.removeprefix("-")
    if (
        text.isascii()
        and digits.isdigit()
        and (not slash or denominator.isdigit() and denominator[0] != "0")
    ):
        if len(text) > MAX_DIGITS:
            longest = max(len(digits), len(denominator))
            if longest > MAX_DIGITS:
                raise ValueError(
                    f"rational literal with {longest} digits in one part; "
                    f"at most {MAX_DIGITS} are read"
                )
        return int(numerator), int(denominator) if slash else 1
    raise ValueError(f"not a rational literal: {text!r} (expected p or p/q)")


def _in_range(p: int, q: int) -> tuple[int, int]:
    """``(p, q)`` itself, if ``0 <= p / q <= 1`` for ``q >= 1``."""
    if p < 0 or p > q:
        raise DegreeRangeError(f"degree {format_ratio(p, q)} outside [0, 1]")
    return p, q


def parse_degree(text: str) -> tuple[int, int]:
    """Parse a degree literal to ``(p, q)`` with ``0 <= p <= q`` and ``q >= 1``.

    The pair is the literal's own, not reduced: ``"2/4"`` gives ``(2, 4)``.
    A malformed literal is a ``ValueError``, one outside ``[0, 1]`` a
    :class:`ftop.errors.DegreeRangeError` naming the reduced value.
    """
    return _in_range(*_literal(text))


def parse_rational(text: str) -> Fraction:
    """Parse the ``"p/q"`` (or bare ``"p"``) literal format.

    Only decimal integers with an optional positive denominator are
    accepted; anything else, including decimal-point notation, is a
    ``ValueError``.  The value need not be a degree.
    """
    return Fraction(*_literal(text))


def format_ratio(n: int, scale: int) -> str:
    """Render ``n / scale`` (``scale >= 1``) in the reduced ``"p/q"`` (or ``"p"``) form."""
    g = math.gcd(n, scale)
    if g != 1:
        n //= g
        scale //= g
    return str(n) if scale == 1 else f"{n}/{scale}"


def format_rational(value: Fraction) -> str:
    """Render a Fraction in the reduced ``"p/q"`` (or ``"p"``) form."""
    return format_ratio(value.numerator, value.denominator)


def as_degree(value: Fraction | int | str) -> Fraction:
    """Coerce to an exact degree, rejecting anything outside ``[0, 1]``.

    Floats are rejected outright rather than converted: binary floats can
    silently shift a boundary comparison, and boundaries are exactly where
    openness verdicts are decided.
    """
    if isinstance(value, bool) or isinstance(value, float):
        raise TypeError(f"degrees must be exact rationals, got {value!r}")
    if isinstance(value, str):
        return Fraction(*parse_degree(value))
    degree = Fraction(value)
    _in_range(degree.numerator, degree.denominator)
    return degree
