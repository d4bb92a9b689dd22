"""Exact number handling.

All quantities in the engine are ``fractions.Fraction`` values, kept in lowest
terms by the stdlib. Binary floats are rejected on input so no precision is
lost silently; decimal output is a display-only projection.

Each ``Fraction`` operation normalizes its result with a gcd. ``sum_ratio``
adds many values on Python ints instead: it keeps the numerators over the
lcm of the denominators seen so far. ``exact_sum`` normalizes that once, at
the end; a caller that only compares the sum can skip even that.
"""

from __future__ import annotations

from decimal import ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction
from math import gcd

ZERO = Fraction(0)
ONE = Fraction(1)

# Input numbers may have at most this many decimal digits in the numerator
# and in the denominator, well inside the 4300 digits that Python's int/str
# conversions take by default; a result may be longer (see exact_str).
MAX_DIGITS = 1000
_BOUND = 10**MAX_DIGITS
_TOO_LARGE = f"exact numbers are limited to {MAX_DIGITS} digits"


def _bounded(value: Fraction) -> Fraction:
    if abs(value.numerator) >= _BOUND or value.denominator >= _BOUND:
        raise ValueError(_TOO_LARGE)
    return value


def parse_exact(value) -> Fraction:
    """Convert an int, ``Fraction``, ``"p/q"`` string, or terminating-decimal
    string to an exact ``Fraction``. Floats (and bools) are rejected, and so
    are ints and strings beyond ``MAX_DIGITS`` digits."""
    if isinstance(value, bool):
        raise TypeError("booleans are not numbers")
    if isinstance(value, int):
        if abs(value) >= _BOUND:
            raise ValueError(_TOO_LARGE)
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError(
            "binary floats are rejected; pass the number as a string, e.g. \"0.1\""
        )
    if isinstance(value, str):
        text = value.strip()
        # Refuse an exponent too long for the bound before Fraction builds
        # its power of ten.
        exponent = text.lower().partition("e")[2].lstrip("+-").replace("_", "")
        if len(exponent.lstrip("0")) > len(str(MAX_DIGITS)):
            raise ValueError(_TOO_LARGE)
        try:
            number = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not an exact number: {value!r}") from exc
        return _bounded(number)
    raise TypeError(f"exact numbers must be int or str, got {type(value).__name__}")


def sum_ratio(values) -> tuple[int, int]:
    """The exact sum of ``Fraction`` or ``int`` values as ``(numerator,
    denominator)``: the denominator is the lcm of the values' denominators,
    and the pair is not reduced."""
    num, den = 0, 1
    for value in values:
        n, d = value.as_integer_ratio()
        if d == den:
            num += n
            continue
        g = gcd(den, d)
        if g == d:
            num += n * (den // d)
        else:
            num = num * (d // g) + n * (den // g)
            den = den // g * d
    return num, den


def exact_sum(values) -> Fraction:
    """The exact sum of ``Fraction`` or ``int`` values, normalized once."""
    return Fraction(*sum_ratio(values))


def exact_str(value: Fraction) -> str:
    """Canonical ``p`` or ``p/q`` rendering, at any length."""
    try:
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    except ValueError:
        # str() refuses an int longer than sys.get_int_max_str_digits(), a
        # limit that keeps the parsing of long literals fast, so it stays
        # set; Decimal converts an int exactly and is not limited
        p, q = (str(Decimal(x)) for x in value.as_integer_ratio())
        return p if q == "1" else f"{p}/{q}"


# One context for every display value; the Inexact and Rounded flags its
# divisions set are never read.
_DISPLAY = Context(prec=12, rounding=ROUND_HALF_EVEN)


def decimal_str(value: Fraction) -> str:
    """Round-half-even decimal projection at 12 significant digits."""
    return str(_DISPLAY.divide(Decimal(value.numerator), Decimal(value.denominator)))
