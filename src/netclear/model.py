"""Banks, claims, piecewise-linear payment functions, and validated networks.

A payment function is stored as interval borders plus per-interval slopes;
values at borders are accumulated from the slopes on demand, which makes
continuity structural rather than something to check. Intervals are half-open
``[x_{i-1}, x_i)``: evaluation exactly at a border uses the next segment.

Sums and evaluations on the per-op path run on Python ints and normalize
once: liability totals through ``rationals.exact_sum``, class totals over
one common denominator, and ``value_at`` as one numerator over one
denominator. The payment-axiom check that validation ends with lives in
``axioms``.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import lcm

from . import errors
from .axioms import check_payment_axioms
from .errors import NetworkValidationError, Violation
from .rationals import ONE, ZERO, exact_sum, parse_exact


_set = object.__setattr__


class _Value:
    """Base of the model's records. Their fields are their ``__slots__``,
    set once by ``__init__``; a name starting with ``_`` is derived and takes
    no part in equality, hashing or the repr. Records of one class with equal
    fields are equal and hash alike, and assigning or deleting a field
    raises ``AttributeError``. Pickling and copying rebuild a record through
    its ``__init__``."""

    __slots__ = ()

    def _items(self):
        return [(name, getattr(self, name)) for name in self.__slots__ if name[0] != "_"]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._items() == other._items()

    def __hash__(self):
        return hash(tuple(self._items()))

    def __repr__(self):
        inner = ", ".join(f"{name}={value!r}" for name, value in self._items())
        return f"{type(self).__name__}({inner})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # pickle and copy rebuild through __init__: assignment raises
        return self.__class__, tuple(value for _, value in self._items())


class Bank(_Value):
    __slots__ = ("id", "external_assets", "alpha", "beta")

    def __init__(
        self, id: str, external_assets: Fraction, alpha: Fraction = ONE, beta: Fraction = ONE
    ):
        _set(self, "id", id)
        _set(self, "external_assets", external_assets)
        _set(self, "alpha", alpha)
        _set(self, "beta", beta)


class PaymentFunction(_Value):
    """Monotone piecewise-linear payment function.

    ``slopes[i]`` applies on ``[borders[i], borders[i+1])``; the function is
    constant at and beyond the last border, which is the debtor's total
    out-liability. ``_values`` holds the values at the borders.
    """

    __slots__ = ("borders", "slopes", "_values")

    def __init__(self, borders: tuple[Fraction, ...], slopes: tuple[Fraction, ...]):
        if len(slopes) != len(borders) - 1:
            raise ValueError("need exactly one slope per interval between borders")
        values = [ZERO]
        for i, slope in enumerate(slopes):
            values.append(values[-1] + slope * (borders[i + 1] - borders[i]))
        _set(self, "borders", borders)
        _set(self, "slopes", slopes)
        _set(self, "_values", tuple(values))

    @classmethod
    def _with_values(cls, borders, slopes, values) -> "PaymentFunction":
        """A function whose values at the borders the caller already knows, as
        a class scheme does; skips ``__init__``'s running sum."""
        fn = object.__new__(cls)
        _set(fn, "borders", borders)
        _set(fn, "slopes", slopes)
        _set(fn, "_values", values)
        return fn

    def value_at(self, a: Fraction) -> Fraction:
        borders = self.borders
        idx = bisect_right(borders, a) - 1
        if idx < 0:
            return ZERO
        if idx == len(self.slopes):
            return self._values[-1]
        value, slope = self._values[idx], self.slopes[idx]
        if not slope:
            return value
        # value + slope * (a - border) as one numerator over one denominator;
        # at the first border this is the first value, zero
        vn, vd = value.as_integer_ratio()
        sn, sd = slope.as_integer_ratio()
        an, ad = a.as_integer_ratio()
        bn, bd = borders[idx].as_integer_ratio()
        den = sd * ad * bd
        return Fraction(vn * den + vd * sn * (an * bd - bn * ad), vd * den)

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

    @property
    def final_value(self) -> Fraction:
        return self._values[-1]


class Claim(_Value):
    """A debt of ``liability`` from ``debtor`` to ``creditor``."""

    __slots__ = ("debtor", "creditor", "liability", "payment")

    def __init__(
        self, debtor: str, creditor: str, liability: Fraction, payment: PaymentFunction
    ):
        _set(self, "debtor", debtor)
        _set(self, "creditor", creditor)
        _set(self, "liability", liability)
        _set(self, "payment", payment)

    @property
    def pair(self) -> tuple[str, str]:
        return (self.debtor, self.creditor)


# --- payment scheme constructors -------------------------------------------

def _class_functions(
    liabilities: dict[str, Fraction], classes: list[list[str]]
) -> dict[str, PaymentFunction]:
    """Shared builder for ranked-class schemes: each class is paid
    proportionally and in full before the next class starts.

    Every function of a debtor shares one borders tuple, the class grid
    (classes with zero total get no segment). A creditor in the class on
    segment ``j`` has slope ``liability / class total`` there and zero
    elsewhere, so its values are known in closed form: zero through the
    class's lower border, its liability from the upper border on.

    The liabilities are read once as integer numerators over their common
    denominator, so class totals are int sums and each border and slope is
    one normalized ``Fraction``."""
    den = lcm(*(x.denominator for x in liabilities.values()))
    scaled = {c: x.numerator * (den // x.denominator) for c, x in liabilities.items()}
    if sum(scaled.values()) == 0:
        flat = PaymentFunction(borders=(ZERO,), slopes=())
        return {creditor: flat for creditor in liabilities}

    grid = [ZERO]
    upper = 0
    nonzero: list[tuple[int, list[str]]] = []
    for members in classes:
        class_total = sum([scaled[c] for c in members])
        if class_total == 0:
            continue
        upper += class_total
        grid.append(Fraction(upper, den))
        nonzero.append((class_total, members))

    borders = tuple(grid)
    k = len(nonzero)
    zeros = (ZERO,) * (k + 1)
    # creditors whose whole class had zero liability pay nothing
    unpaid = PaymentFunction._with_values(borders, zeros[:k], zeros)
    functions = dict.fromkeys(liabilities, unpaid)
    for j, (class_total, members) in enumerate(nonzero):
        before, after, paid = zeros[:j], zeros[j + 1 : k], zeros[: j + 1]
        for creditor in members:
            functions[creditor] = PaymentFunction._with_values(
                borders,
                before + (Fraction(scaled[creditor], class_total),) + after,
                paid + (liabilities[creditor],) * (k - j),
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

    def __init__(self, banks: dict[str, Bank], claims: tuple[Claim, ...]):
        self.banks = banks
        self.claims = claims
        self._claim_map: dict[tuple[str, str], Claim] = {}
        self._out: dict[str, list[Claim]] = {v: [] for v in banks}
        self._in: dict[str, list[Claim]] = {v: [] for v in banks}
        for claim in claims:
            self._claim_map[claim.pair] = claim
            self._out[claim.debtor].append(claim)
            self._in[claim.creditor].append(claim)
        self._total_out = {
            v: exact_sum(claim.liability for claim in out) for v, out in self._out.items()
        }

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
        """Total in-liability, summed on each call."""
        return exact_sum(claim.liability for claim in self.in_claims(v))

    def has_default_cost(self) -> bool:
        """True iff some bank can actually incur a default haircut."""
        for v, bank in self.banks.items():
            if self._total_out[v] > 0:
                if bank.alpha != 1 or bank.beta != 1:
                    return True
        return False


def assemble(banks, claims) -> FinancialNetwork:
    """Build a network from trusted parts without running validation.

    Used internally for surgically derived networks (default-cost gadgets)
    whose invariants hold by construction.
    """
    bank_map = {b.id: b for b in banks}
    return FinancialNetwork(bank_map, tuple(claims))


def validate_network(raw: dict) -> FinancialNetwork:
    """Validate a raw network description and build the container.

    ``raw`` mirrors the document format: ``{"banks": [...], "claims": [...],
    "payment_schemes": {...}}`` with numbers given as int, string, or
    ``Fraction``. Raises ``NetworkValidationError`` with the full list of
    violations on failure; a missing required key is a ``missing_field``
    violation. Values that are already ``Fraction``s are not parsed again.
    """
    violations: list[Violation] = []

    banks: dict[str, Bank] = {}
    for i, entry in enumerate(raw.get("banks", [])):
        try:
            bank_id = entry["id"]
        except KeyError:
            _report_missing(entry, ("id",), f"banks[{i}]", violations)
            continue
        if bank_id in banks:
            violations.append(
                Violation(errors.DUPLICATE_BANK_ID, "bank id repeats", bank=bank_id)
            )
            continue
        ext = _exact(entry.get("external_assets", ZERO))
        alpha = _exact(entry.get("alpha", ONE))
        beta = _exact(entry.get("beta", ONE))
        if ext.numerator < 0:
            violations.append(
                Violation(
                    errors.NEGATIVE_VALUE, "external assets must be >= 0", bank=bank_id
                )
            )
        for name, value in (("alpha", alpha), ("beta", beta)):
            if not (0 <= value.numerator <= value.denominator):
                violations.append(
                    Violation(
                        errors.VALUE_OUT_OF_RANGE,
                        f"{name} must lie in [0, 1]",
                        bank=bank_id,
                    )
                )
        banks[bank_id] = Bank(bank_id, ext, alpha, beta)

    liabilities: dict[tuple[str, str], Fraction] = {}
    for i, entry in enumerate(raw.get("claims", [])):
        try:
            debtor, creditor = entry["debtor"], entry["creditor"]
        except KeyError:
            _report_missing(entry, ("debtor", "creditor"), f"claims[{i}]", violations)
            continue
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
        raw_liability = entry.get("liability", ZERO)
        if isinstance(raw_liability, str) and raw_liability.strip() == "unbounded":
            violations.append(
                Violation(
                    errors.UNBOUNDED_LIABILITY,
                    "liabilities must be finite numbers, not 'unbounded'",
                    claim=pair,
                )
            )
            continue
        liability = _exact(raw_liability)
        if liability.numerator < 0:
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
            elif kind == EDGE_RANKING:
                built = make_edge_ranking(out, list(scheme.get("order", [])))
            elif kind == PRIORITY_PROPORTIONAL:
                classes = [list(members) for members in scheme.get("classes", [])]
                built = make_priority_proportional(out, classes)
            elif kind == PIECEWISE:
                built = _parse_piecewise(v, out, scheme, violations)
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
    net = FinancialNetwork(banks, claims)
    check_payment_axioms(net, violations)
    if violations:
        raise NetworkValidationError(violations)
    return net


def _exact(value) -> Fraction:
    """``value`` as a ``Fraction``, parsed only when it is not one already."""
    return value if type(value) is Fraction else parse_exact(value)


def _report_missing(entry, fields, where, violations, **context) -> None:
    """One ``missing_field`` violation per field of ``fields`` absent from
    ``entry``."""
    for name in fields:
        if name not in entry:
            violations.append(
                Violation(errors.MISSING_FIELD, f"{where} has no {name!r}", **context)
            )


def _parse_piecewise(v, out, scheme, violations):
    functions = {}
    seen = set()
    for j, entry in enumerate(scheme.get("edges", [])):
        fields = ("creditor", "borders", "slopes")
        if any(name not in entry for name in fields):
            where = f"payment_schemes[{v!r}].edges[{j}]"
            _report_missing(entry, fields, where, violations, bank=v)
            seen.add(entry.get("creditor"))
            continue
        creditor = entry["creditor"]
        if creditor not in out or creditor in seen:
            raise ValueError(f"piecewise edges must match the out-claims of {v!r}")
        seen.add(creditor)
        borders = tuple(_exact(x) for x in entry["borders"])
        slopes = tuple(_exact(m) for m in entry["slopes"])
        if len(slopes) != len(borders) - 1:
            raise ValueError("need len(borders) - 1 slopes")
        if any(m.numerator < 0 for m in slopes):
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
