"""Exact number handling.

All quantities in the engine are ``fractions.Fraction`` values, kept in lowest
terms by the stdlib. Binary floats are rejected on input so no precision is
lost silently; decimal output is a display-only projection.
"""

from __future__ import annotations

from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)

# Input numbers may have at most this many decimal digits in the numerator
# and in the denominator (Python prints no integer beyond 4300 digits).
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
        return _bounded(Fraction(value))
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


def exact_str(value: Fraction) -> str:
    """Canonical ``p`` or ``p/q`` rendering."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def decimal_str(value: Fraction, digits: int = 12) -> str:
    """Round-half-even decimal projection at ``digits`` significant digits."""
    with localcontext() as ctx:
        ctx.prec = digits
        ctx.rounding = ROUND_HALF_EVEN
        return str(Decimal(value.numerator) / Decimal(value.denominator))
