"""The payment axioms of a bank's out-claims, checked at the end of
validation, and the merged border grid the counter descent also reads.

The borders of each distinct tuple of a bank are checked once, and slope
sums are exact integer sums (``rationals.sum_ratio``) compared without
building a ``Fraction``.
"""

from __future__ import annotations

from fractions import Fraction
from operator import lt

from . import errors
from .errors import Violation
from .rationals import ZERO, sum_ratio


def merged_slopes(claims) -> tuple[tuple[Fraction, ...], list[tuple[Fraction, ...]]]:
    """The merged border grid of one bank's out-claims, with each claim's slope
    on every grid segment ``[grid[j], grid[j + 1])``, in the order of
    ``claims``. A claim whose borders are the grid, as under every class
    scheme, keeps its slope tuple; any other claim is walked in step with the
    grid. As in ``PaymentFunction.slope_at``, a claim's first slope applies
    before its first border and zero past its last. Every claim's borders
    must strictly increase, as validation checks before it calls this."""
    first = claims[0].payment.borders
    if all(claim.payment.borders is first for claim in claims):
        return first, [claim.payment.slopes for claim in claims]
    grid = tuple(sorted({x for claim in claims for x in claim.payment.borders}))
    rows = []
    for claim in claims:
        fn = claim.payment
        if fn.borders == grid:
            rows.append(fn.slopes)
            continue
        borders, own = fn.borders, fn.slopes
        row = []
        i = 0
        for x in grid[:-1]:
            while i < len(own) and borders[i + 1] <= x:
                i += 1
            row.append(own[i] if i < len(own) else ZERO)
        rows.append(tuple(row))
    return grid, rows


_UNORDERED = "borders must strictly increase from 0"


def _border_fault(borders, total) -> str | None:
    """Why a claim's ``borders`` break the axioms, or None: they must strictly
    increase from 0 and end at the debtor's total out-liability."""
    if borders[0] != 0 or not all(map(lt, borders, borders[1:])):
        return _UNORDERED
    if borders[-1] != total:
        return f"borders must end at the total out-liability {total}"
    return None


def check_payment_axioms(net: FinancialNetwork, violations: list[Violation]) -> None:
    """Per-bank checks of the payment axioms: border lists anchored at 0 and
    L+(v), accumulated value equal to the liability, and slope sums equal to 1
    on every segment of the merged border grid below L+(v). A bank with a
    border list that does not strictly increase from 0 gets no slope-sum
    check: its slopes on the merged grid are not defined.

    The borders of each distinct tuple of a bank are checked once (the
    functions of a class scheme share one), and each claim on a bad tuple
    still gets its own violation. Slope sums are exact sums of the nonzero
    slopes."""
    for v in net.bank_ids():
        out = net.out_claims(v)
        if not out:
            continue
        total = net.total_out(v)
        unordered = False
        faults: dict[int, str | None] = {}
        for claim in out:
            fn = claim.payment
            key = id(fn.borders)
            if key not in faults:
                faults[key] = _border_fault(fn.borders, total)
            fault = faults[key]
            if fault is not None:
                violations.append(
                    Violation(errors.BORDER_MISMATCH, fault, bank=v, claim=claim.pair)
                )
                unordered = unordered or fault == _UNORDERED
                continue
            # a class scheme's final value is the liability object itself
            if fn.final_value is not claim.liability and fn.final_value != claim.liability:
                violations.append(
                    Violation(
                        errors.LIABILITY_MISMATCH,
                        f"payment at L+ is {fn.final_value}, liability is {claim.liability}",
                        bank=v,
                        claim=claim.pair,
                    )
                )

        if total == 0 or unordered:
            continue
        grid, slopes = merged_slopes(out)
        for j, column in enumerate(zip(*slopes)):
            num, den = sum_ratio(filter(None, column))
            if num != den:
                violations.append(
                    Violation(
                        errors.SLOPE_SUM_VIOLATION,
                        f"slopes sum to {Fraction(num, den)} on [{grid[j]}, {grid[j + 1]})",
                        bank=v,
                    )
                )
