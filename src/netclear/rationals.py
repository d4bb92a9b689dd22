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


def parse_exact(value) -> Fraction:
    """Convert an int, ``Fraction``, ``"p/q"`` string, or terminating-decimal
    string to an exact ``Fraction``. Floats (and bools) are rejected."""
    if isinstance(value, bool):
        raise TypeError("booleans are not numbers")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError(
            "binary floats are rejected; pass the number as a string, e.g. \"0.1\""
        )
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not an exact number: {value!r}") from exc
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
