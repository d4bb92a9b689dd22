"""Banks, claims, piecewise-linear payment functions, and validated networks.

A payment function is stored as interval borders plus per-interval slopes;
values at borders are accumulated from the slopes on demand, which makes
continuity structural rather than something to check. Intervals are half-open
``[x_{i-1}, x_i)``: evaluation exactly at a border uses the next segment.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction

from . import errors
from .errors import NetworkValidationError, Violation
from .rationals import ONE, ZERO, parse_exact


@dataclass(frozen=True)
class Bank:
    id: str
    external_assets: Fraction
    alpha: Fraction = ONE
    beta: Fraction = ONE


@dataclass(frozen=True)
class PaymentFunction:
    """Monotone piecewise-linear payment function.

    ``slopes[i]`` applies on ``[borders[i], borders[i+1])``; the function is
    constant at and beyond the last border, which is the debtor's total
    out-liability.
    """

    borders: tuple[Fraction, ...]
    slopes: tuple[Fraction, ...]
    _values: tuple[Fraction, ...] = field(
        init=False, repr=False, compare=False, default=()
    )

    def __post_init__(self):
        if len(self.slopes) != len(self.borders) - 1:
            raise ValueError("need exactly one slope per interval between borders")
        values = [ZERO]
        for i, slope in enumerate(self.slopes):
            values.append(values[-1] + slope * (self.borders[i + 1] - self.borders[i]))
        object.__setattr__(self, "_values", tuple(values))

    def value_at(self, a: Fraction) -> Fraction:
        if a <= self.borders[0]:
            return ZERO
        idx = bisect_right(self.borders, a) - 1
        if idx == len(self.borders) - 1:
            return self._values[-1]
        return self._values[idx] + self.slopes[idx] * (a - self.borders[idx])

    def slope_at(self, a: Fraction) -> Fraction:
        idx = bisect_right(self.borders, a) - 1
        if idx < 0:
            idx = 0
        if idx >= len(self.slopes):
            return ZERO
        return self.slopes[idx]

    def active_segment(self, a: Fraction) -> tuple[Fraction, Fraction] | None:
        """``(slope_at(a), next border strictly above a)`` when that slope is
        positive, else None; one bisection for both."""
        pos = bisect_right(self.borders, a)
        idx = max(pos - 1, 0)
        if idx >= len(self.slopes) or self.slopes[idx] <= 0:
            return None
        return self.slopes[idx], self.borders[pos]

    def next_border_delta(self, a: Fraction) -> Fraction | None:
        """Distance to the next border strictly above ``a``; None past the last."""
        pos = bisect_right(self.borders, a)
        if pos >= len(self.borders):
            return None
        return self.borders[pos] - a

    @property
    def final_value(self) -> Fraction:
        return self._values[-1]


@dataclass(frozen=True)
class Claim:
    """A debt of ``liability`` from ``debtor`` to ``creditor``."""

    debtor: str
    creditor: str
    liability: Fraction
    payment: PaymentFunction

    @property
    def pair(self) -> tuple[str, str]:
        return (self.debtor, self.creditor)


# --- payment scheme constructors -------------------------------------------

def _class_functions(
    liabilities: dict[str, Fraction], classes: list[list[str]]
) -> dict[str, PaymentFunction]:
    """Shared builder for ranked-class schemes: each class is paid
    proportionally and in full before the next class starts."""
    total = sum(liabilities.values(), ZERO)
    if total == 0:
        flat = PaymentFunction(borders=(ZERO,), slopes=())
        return {creditor: flat for creditor in liabilities}

    grid = [ZERO]
    class_ranges: list[tuple[Fraction, Fraction, list[str]]] = []
    for members in classes:
        class_total = sum(liabilities[c] for c in members)
        if class_total == 0:
            continue
        lo = grid[-1]
        grid.append(lo + class_total)
        class_ranges.append((lo, grid[-1], members))

    borders = tuple(grid)
    functions = {}
    for j, (lo, hi, members) in enumerate(class_ranges):
        class_total = hi - lo
        for creditor in members:
            slopes = [ZERO] * (len(borders) - 1)
            slopes[j] = liabilities[creditor] / class_total
            functions[creditor] = PaymentFunction(borders=borders, slopes=tuple(slopes))
    # creditors whose whole class had zero liability pay nothing
    for creditor in liabilities:
        if creditor not in functions:
            functions[creditor] = PaymentFunction(
                borders=borders, slopes=(ZERO,) * (len(borders) - 1)
            )
    return functions


def make_proportional(liabilities: dict[str, Fraction]) -> dict[str, PaymentFunction]:
    return _class_functions(liabilities, [list(liabilities)])


def make_edge_ranking(
    liabilities: dict[str, Fraction], order: list[str]
) -> dict[str, PaymentFunction]:
    if sorted(order) != sorted(liabilities):
        raise ValueError("ranking order must list each creditor exactly once")
    return _class_functions(liabilities, [[c] for c in order])


def make_priority_proportional(
    liabilities: dict[str, Fraction], classes: list[list[str]]
) -> dict[str, PaymentFunction]:
    flat = [c for members in classes for c in members]
    if sorted(flat) != sorted(liabilities):
        raise ValueError("priority classes must partition the creditors")
    return _class_functions(liabilities, classes)


# --- network container ------------------------------------------------------

PROPORTIONAL = "proportional"
EDGE_RANKING = "edge_ranking"
PRIORITY_PROPORTIONAL = "priority_proportional"
PIECEWISE = "piecewise"


class FinancialNetwork:
    """Validated network of banks and claims. Treat as immutable."""

    def __init__(self, banks: dict[str, Bank], claims: tuple[Claim, ...], schemes):
        self.banks = banks
        self.claims = claims
        self.schemes = schemes  # bank id -> scheme descriptor, for serialization
        self._claim_map: dict[tuple[str, str], Claim] = {}
        self._out: dict[str, list[Claim]] = {v: [] for v in banks}
        self._in: dict[str, list[Claim]] = {v: [] for v in banks}
        for claim in claims:
            self._claim_map[claim.pair] = claim
            self._out[claim.debtor].append(claim)
            self._in[claim.creditor].append(claim)
        self._total_out = {v: _sum_liabilities(self._out[v]) for v in banks}
        self._total_in = {v: _sum_liabilities(self._in[v]) for v in banks}

    def bank_ids(self) -> tuple[str, ...]:
        return tuple(self.banks)

    def bank(self, v: str) -> Bank:
        try:
            return self.banks[v]
        except KeyError:
            raise errors.UnknownBankError(v) from None

    def out_claims(self, v: str) -> list[Claim]:
        if v not in self._out:
            raise errors.UnknownBankError(v)
        return self._out[v]

    def in_claims(self, v: str) -> list[Claim]:
        if v not in self._in:
            raise errors.UnknownBankError(v)
        return self._in[v]

    def claim(self, debtor: str, creditor: str) -> Claim:
        try:
            return self._claim_map[(debtor, creditor)]
        except KeyError:
            raise errors.UnknownClaimError(debtor, creditor) from None

    def has_claim(self, debtor: str, creditor: str) -> bool:
        return (debtor, creditor) in self._claim_map

    def total_out(self, v: str) -> Fraction:
        """Total out-liability L+(v)."""
        return self._total_out[v]

    def total_in(self, v: str) -> Fraction:
        return self._total_in[v]

    def has_default_cost(self) -> bool:
        """True iff some bank can actually incur a default haircut."""
        for v, bank in self.banks.items():
            if self._total_out[v] > 0:
                if bank.alpha != 1 or bank.beta != 1:
                    return True
        return False


def _sum_liabilities(claims) -> Fraction:
    return sum((claim.liability for claim in claims), ZERO)


def assemble(banks, claims, schemes=None) -> FinancialNetwork:
    """Build a network from trusted parts without running validation.

    Used internally for surgically derived networks (default-cost gadgets)
    whose invariants hold by construction.
    """
    bank_map = {b.id: b for b in banks}
    return FinancialNetwork(bank_map, tuple(claims), schemes or {})


def validate_network(raw: dict) -> FinancialNetwork:
    """Validate a raw network description and build the container.

    ``raw`` mirrors the document format: ``{"banks": [...], "claims": [...],
    "payment_schemes": {...}}`` with numbers given as int, string, or
    ``Fraction``. Raises ``NetworkValidationError`` with the full list of
    violations on failure.
    """
    violations: list[Violation] = []

    banks: dict[str, Bank] = {}
    for entry in raw.get("banks", []):
        bank_id = entry["id"]
        if bank_id in banks:
            violations.append(
                Violation(errors.DUPLICATE_BANK_ID, "bank id repeats", bank=bank_id)
            )
            continue
        ext = parse_exact(entry.get("external_assets", 0))
        alpha = parse_exact(entry.get("alpha", 1))
        beta = parse_exact(entry.get("beta", 1))
        if ext < 0:
            violations.append(
                Violation(
                    errors.NEGATIVE_VALUE, "external assets must be >= 0", bank=bank_id
                )
            )
        for name, value in (("alpha", alpha), ("beta", beta)):
            if not (0 <= value <= 1):
                violations.append(
                    Violation(
                        errors.VALUE_OUT_OF_RANGE,
                        f"{name} must lie in [0, 1]",
                        bank=bank_id,
                    )
                )
        banks[bank_id] = Bank(bank_id, ext, alpha, beta)

    liabilities: dict[tuple[str, str], Fraction] = {}
    for entry in raw.get("claims", []):
        debtor, creditor = entry["debtor"], entry["creditor"]
        pair = (debtor, creditor)
        ok = True
        for endpoint in pair:
            if endpoint not in banks:
                violations.append(
                    Violation(
                        errors.UNKNOWN_BANK_ID,
                        f"claim endpoint {endpoint!r} is not a bank",
                        claim=pair,
                    )
                )
                ok = False
        if debtor == creditor:
            violations.append(
                Violation(errors.SELF_LOOP, "self-loops are not allowed", claim=pair)
            )
            ok = False
        if pair in liabilities:
            violations.append(
                Violation(
                    errors.DUPLICATE_EDGE,
                    "at most one claim per (debtor, creditor) pair",
                    claim=pair,
                )
            )
            ok = False
        raw_liability = entry.get("liability", 0)
        if isinstance(raw_liability, str) and raw_liability.strip() == "unbounded":
            violations.append(
                Violation(
                    errors.UNBOUNDED_LIABILITY,
                    "liabilities must be finite numbers, not 'unbounded'",
                    claim=pair,
                )
            )
            continue
        liability = parse_exact(raw_liability)
        if liability < 0:
            violations.append(
                Violation(
                    errors.NEGATIVE_VALUE, "liability must be >= 0", claim=pair
                )
            )
            ok = False
        if ok:
            liabilities[pair] = liability

    if violations:
        raise NetworkValidationError(violations)

    out_by_bank: dict[str, dict[str, Fraction]] = {v: {} for v in banks}
    for (debtor, creditor), liability in liabilities.items():
        out_by_bank[debtor][creditor] = liability

    schemes_in = dict(raw.get("payment_schemes", {}))
    schemes: dict[str, tuple] = {}
    functions: dict[tuple[str, str], PaymentFunction] = {}
    for v, out in out_by_bank.items():
        scheme = schemes_in.pop(v, {"type": PROPORTIONAL})
        kind = scheme.get("type", PROPORTIONAL)
        if not out:
            if kind != PROPORTIONAL or len(scheme) > 1:
                violations.append(
                    Violation(
                        errors.INVALID_SCHEME,
                        "payment scheme given for a bank without claims",
                        bank=v,
                    )
                )
            continue
        try:
            if kind == PROPORTIONAL:
                built = make_proportional(out)
                schemes[v] = (PROPORTIONAL,)
            elif kind == EDGE_RANKING:
                order = list(scheme.get("order", []))
                built = make_edge_ranking(out, order)
                schemes[v] = (EDGE_RANKING, tuple(order))
            elif kind == PRIORITY_PROPORTIONAL:
                classes = [list(members) for members in scheme.get("classes", [])]
                built = make_priority_proportional(out, classes)
                schemes[v] = (PRIORITY_PROPORTIONAL, tuple(map(tuple, classes)))
            elif kind == PIECEWISE:
                built = _parse_piecewise(v, out, scheme, violations)
                schemes[v] = (PIECEWISE,)
            else:
                raise ValueError(f"unknown scheme type {kind!r}")
        except ValueError as exc:
            violations.append(Violation(errors.INVALID_SCHEME, str(exc), bank=v))
            continue
        if built is not None:
            for creditor, fn in built.items():
                functions[(v, creditor)] = fn

    for v in schemes_in:
        violations.append(
            Violation(errors.UNKNOWN_BANK_ID, "scheme for unknown bank", bank=v)
        )

    if violations:
        raise NetworkValidationError(violations)

    claims = tuple(
        Claim(debtor, creditor, liability, functions[(debtor, creditor)])
        for (debtor, creditor), liability in liabilities.items()
    )
    net = FinancialNetwork(banks, claims, schemes)
    _check_payment_axioms(net, violations)
    if violations:
        raise NetworkValidationError(violations)
    return net


def _parse_piecewise(v, out, scheme, violations):
    functions = {}
    seen = set()
    for entry in scheme.get("edges", []):
        creditor = entry["creditor"]
        if creditor not in out or creditor in seen:
            raise ValueError(f"piecewise edges must match the out-claims of {v!r}")
        seen.add(creditor)
        borders = tuple(parse_exact(x) for x in entry["borders"])
        slopes = tuple(parse_exact(m) for m in entry["slopes"])
        if len(slopes) != len(borders) - 1:
            raise ValueError("need len(borders) - 1 slopes")
        if any(m < 0 for m in slopes):
            violations.append(
                Violation(
                    errors.NEGATIVE_VALUE,
                    "slopes must be >= 0",
                    bank=v,
                    claim=(v, creditor),
                )
            )
        functions[creditor] = PaymentFunction(borders=borders, slopes=slopes)
    if seen != set(out):
        raise ValueError(f"piecewise edges must cover all out-claims of {v!r}")
    return functions


def merged_slopes(claims) -> tuple[tuple[Fraction, ...], list[tuple[Fraction, ...]]]:
    """The merged border grid of one bank's out-claims, with each claim's slope
    on every grid segment ``[grid[j], grid[j + 1])``, in the order of
    ``claims``. A claim whose borders are the grid, as under every class
    scheme, keeps its slope tuple; any other claim is walked in step with the
    grid. As in ``PaymentFunction.slope_at``, a claim's first slope applies
    before its first border and zero past its last."""
    first = claims[0].payment.borders
    if all(claim.payment.borders is first for claim in claims) and all(
        a < b for a, b in zip(first, first[1:])
    ):
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


def _check_payment_axioms(net: FinancialNetwork, violations: list[Violation]) -> None:
    """Per-bank checks of the payment axioms: border lists anchored at 0 and
    L+(v), accumulated value equal to the liability, and slope sums equal to 1
    on every segment of the merged border grid below L+(v). A bank with a
    border list that does not strictly increase from 0 gets no slope-sum
    check: its slopes on the merged grid are not defined."""
    for v in net.bank_ids():
        out = net.out_claims(v)
        if not out:
            continue
        total = net.total_out(v)
        unordered = False
        for claim in out:
            fn = claim.payment
            if fn.borders[0] != 0 or any(
                fn.borders[i] >= fn.borders[i + 1] for i in range(len(fn.borders) - 1)
            ):
                violations.append(
                    Violation(
                        errors.BORDER_MISMATCH,
                        "borders must strictly increase from 0",
                        bank=v,
                        claim=claim.pair,
                    )
                )
                unordered = True
                continue
            if fn.borders[-1] != total:
                violations.append(
                    Violation(
                        errors.BORDER_MISMATCH,
                        f"borders must end at the total out-liability {total}",
                        bank=v,
                        claim=claim.pair,
                    )
                )
                continue
            if fn.final_value != claim.liability:
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
        for j in range(len(grid) - 1):
            slope_sum = sum((claim_slopes[j] for claim_slopes in slopes), ZERO)
            if slope_sum != 1:
                violations.append(
                    Violation(
                        errors.SLOPE_SUM_VIOLATION,
                        f"slopes sum to {slope_sum} on [{grid[j]}, {grid[j + 1]})",
                        bank=v,
                    )
                )


def build_network(banks, claims, schemes=None) -> FinancialNetwork:
    """Convenience builder used by tests and the generators.

    ``banks``: iterable of ``(id, external_assets)`` or
    ``(id, external_assets, alpha, beta)``. ``claims``: iterable of
    ``(debtor, creditor, liability)``. ``schemes``: bank id -> scheme dict
    as in the document format (defaults to proportional).
    """
    bank_entries = []
    for entry in banks:
        if len(entry) == 2:
            bank_id, ext = entry
            bank_entries.append({"id": bank_id, "external_assets": ext})
        else:
            bank_id, ext, alpha, beta = entry
            bank_entries.append(
                {"id": bank_id, "external_assets": ext, "alpha": alpha, "beta": beta}
            )
    claim_entries = [
        {"debtor": d, "creditor": c, "liability": liability} for d, c, liability in claims
    ]
    return validate_network(
        {
            "banks": bank_entries,
            "claims": claim_entries,
            "payment_schemes": schemes or {},
        }
    )
