"""The payment axioms of a bank's out-claims, checked at the end of
validation, and each debtor's integer class grid, which the check builds and
the counter descent reads.

The borders of each distinct tuple of a bank are checked once. The grid of a
debtor (``BankClasses``, from ``bank_classes``) is built once, at load: a
class-scheme debtor's is read off the class index and piece numerator that
``model._class_functions`` leaves on each function, any other debtor's is
scaled from ``merged_slopes``. The slope-sum axiom is checked on it in
integers, and validation holds it on the network (``_classes``), where
``priority.priority_structure`` finds it.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import lt

from . import errors
from .errors import Violation


class BankClasses:
    """Priority classes of one bank on its merged border grid, as integer
    numerators over the bank's one denominator ``den``: ``grid`` holds
    ``0 = x_0 < x_1 < ... < x_k = L+(v)`` and ``pieces[j]`` lists
    ``(creditor, piece liability)`` for class ``j + 1``."""

    __slots__ = ("den", "grid", "pieces")

    def __init__(self, den: int, grid: tuple[int, ...], pieces: tuple):
        self.den = den
        self.grid = grid
        self.pieces = pieces

    @property
    def class_count(self) -> int:
        return len(self.pieces)


def merged_slopes(claims) -> tuple[list[Fraction], list[list[tuple[str, Fraction]]]]:
    """The merged border grid of one bank's out-claims, and on each grid
    segment ``[grid[j], grid[j + 1])`` the ``(creditor, slope)`` of every
    claim whose slope there is not zero, in the order of ``claims``. Each
    claim is walked in step with the grid; as in
    ``PaymentFunction.slope_at``, its first slope applies before its first
    border and zero past its last. Every claim's borders must strictly
    increase, as validation checks before it calls this."""
    grid = sorted({x for claim in claims for x in claim.payment.borders})
    segments = [[] for _ in grid[1:]]
    for claim in claims:
        borders, own = claim.payment.borders, claim.payment.slopes
        i = 0
        for j, x in enumerate(grid[:-1]):
            while i < len(own) and borders[i + 1] <= x:
                i += 1
            if i < len(own) and own[i]:
                segments[j].append((claim.creditor, own[i]))
    return grid, segments


def bank_classes(claims) -> BankClasses:
    """The class grid of one bank's out-claims over one denominator. When
    every function comes from one class scheme (one shared borders tuple, and
    each carries ``_piece``, its class index and liability numerator), that
    scheme's denominator and border numerators are the grid; otherwise each
    piece is a claim's slope times its segment's width on the merged grid,
    and the denominator is the lcm of the grid's and the pieces'. Zero pieces
    are left out."""
    first = claims[0].payment
    pieces = [[] for _ in first.slopes]
    for claim in claims:
        fn = claim.payment
        if fn.borders is not first.borders or fn._piece is None:
            break
        j, x = fn._piece
        if x:
            pieces[j].append((claim.creditor, x))
    else:
        return BankClasses(first._den, first._scaled, tuple(map(tuple, pieces)))
    grid, segments = merged_slopes(claims)
    pieces = [[(c, s * (hi - lo)) for c, s in e] for lo, hi, e in zip(grid, grid[1:], segments)]
    den = lcm(*(x.denominator for x in grid), *(x.denominator for e in pieces for _, x in e))
    return BankClasses(
        den,
        tuple(x.numerator * (den // x.denominator) for x in grid),
        tuple(tuple((c, x.numerator * (den // x.denominator)) for c, x in e) for e in pieces),
    )


_UNORDERED = "borders must strictly increase from 0"


def _border_fault(fn, total) -> str | None:
    """Why the borders of ``fn`` break the axioms, or None: they must strictly
    increase from 0, as their integer numerators over ``fn._den`` do, and end
    at the debtor's total out-liability."""
    scaled = fn._scaled
    if scaled[0] != 0 or not all(map(lt, scaled, scaled[1:])):
        return _UNORDERED
    if fn.borders[-1] != total:
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
    still gets its own violation. Slopes sum to 1 on a segment exactly when
    the integer pieces of its class sum to its width; each checked bank's
    ``bank_classes`` grid is kept in ``net._classes``."""
    for v in net.bank_ids():
        out = net.out_claims(v)
        if not out:
            continue
        total = net.total_out(v)
        unordered = False
        faults = {}
        for claim in out:
            fn = claim.payment
            key = id(fn.borders)
            if key not in faults:
                faults[key] = _border_fault(fn, total)
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
        classes = net._classes[v] = bank_classes(out)
        grid, den = classes.grid, classes.den
        for lo, hi, entries in zip(grid, grid[1:], classes.pieces):
            paid = sum([x for _, x in entries])
            if paid != hi - lo:
                violations.append(
                    Violation(
                        errors.SLOPE_SUM_VIOLATION,
                        f"slopes sum to {Fraction(paid, hi - lo)} on "
                        f"[{Fraction(lo, den)}, {Fraction(hi, den)})",
                        bank=v,
                    )
                )
