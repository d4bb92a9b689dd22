"""Banks, claims, validated networks, and the one reader of network
documents.

``validate_network`` walks every bank, claim and scheme entry of a document
once. Each entry's shape is checked first: a missing or unknown field, a
wrong type or an unreadable number is a ``ParseError`` naming the field. Its
meaning is checked next, and every fault of that kind is collected into one
``NetworkValidationError``; the payment-axiom check of ``axioms`` ends the
list. Every number goes through one parser, once per distinct literal of a
document; a ``Fraction`` passes through.

Payment functions and their class-scheme builders live in ``axioms`` and are
re-exported here. Liability totals are summed on Python ints and normalized
once, through ``rationals.exact_sum``.
"""

from __future__ import annotations

from fractions import Fraction

from . import errors
from .axioms import (
    PaymentFunction,
    _set,
    _Value,
    check_payment_axioms,
    make_edge_ranking,
    make_priority_proportional,
    make_proportional,
)
from .errors import NetworkValidationError, ParseError, Violation
from .rationals import ONE, ZERO, exact_sum, parse_exact


class Bank(_Value):
    __slots__ = ("id", "external_assets", "alpha", "beta")

    def __init__(
        self, id: str, external_assets: Fraction, alpha: Fraction = ONE, beta: Fraction = ONE
    ):
        _set(self, "id", id)
        _set(self, "external_assets", external_assets)
        _set(self, "alpha", alpha)
        _set(self, "beta", beta)


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
        self._classes = {}  # v -> axioms.BankClasses, once built

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


_BANK_FIELDS = {"id", "external_assets", "alpha", "beta"}
_CLAIM_FIELDS = {"debtor", "creditor", "liability"}
_SCHEME_FIELDS = {
    PROPORTIONAL: {"type"},
    EDGE_RANKING: {"type", "order"},
    PRIORITY_PROPORTIONAL: {"type", "classes"},
    PIECEWISE: {"type", "edges"},
}
_EDGE_FIELDS = {"creditor", "borders", "slopes"}


def _check_fields(obj, allowed: set, context: str) -> None:
    if not isinstance(obj, dict):
        raise ParseError("expected an object", context)
    if not allowed.issuperset(obj):
        raise ParseError(f"unknown fields {sorted(set(obj) - allowed)}", context)


def _list(obj: dict, field: str, context: str) -> list:
    """``obj[field]``, empty when absent, which must be a list."""
    value = obj.get(field, [])
    if not isinstance(value, list):
        raise ParseError(f"{field!r} must be a list", context)
    return value


def _strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(x, str) for x in value)


def _number(value, context: str, memo: dict) -> Fraction:
    """``parse_exact`` of ``value``, once per distinct literal: ``memo`` is
    keyed on type and value, so ``true`` never reads the entry of ``1``. A
    ``Fraction`` passes through."""
    if value.__class__ is Fraction:
        return value
    key = (value.__class__, value)
    if key not in memo:
        try:
            memo[key] = parse_exact(value)
        except (ValueError, TypeError) as exc:
            raise ParseError(str(exc), context) from exc
    return memo[key]


def _field(obj: dict, field: str, context: str, memo: dict, default=None) -> Fraction:
    """The number ``obj[field]``; ``default`` when it is absent, which
    without a default is an error."""
    if field not in obj:
        if default is None:
            raise ParseError(f"missing field {field!r}", context)
        return default
    value = obj[field]
    if not isinstance(value, (int, str, Fraction)):
        raise ParseError(f"{field!r} must be an integer or exact string", context)
    return _number(value, f"{context}.{field}", memo)


def validate_network(raw: dict) -> FinancialNetwork:
    """Check a network document and build the container.

    ``raw`` has the document's ``banks``, ``claims`` and ``payment_schemes``
    (its other keys are not read), with numbers given as int, string, or
    ``Fraction``; it is not modified. A malformed entry raises a
    ``ParseError`` naming its field, before any other fault is reported;
    every other fault is a violation, and all of them are raised together
    as a ``NetworkValidationError``."""
    memo: dict = {}
    violations: list[Violation] = []
    entries = raw.get("banks", [])
    if not isinstance(entries, list) or not entries:
        raise ParseError("at least one bank is required", "banks")
    banks: dict[str, Bank] = {}
    for i, entry in enumerate(entries):
        context = f"banks[{i}]"
        _check_fields(entry, _BANK_FIELDS, context)
        bank_id = entry.get("id")
        if not isinstance(bank_id, str):
            raise ParseError("bank id must be a string", context)
        ext = _field(entry, "external_assets", context, memo, ZERO)
        alpha = _field(entry, "alpha", context, memo, ONE)
        beta = _field(entry, "beta", context, memo, ONE)
        if bank_id in banks:
            violations.append(
                Violation(errors.DUPLICATE_BANK_ID, "bank id repeats", bank=bank_id)
            )
            continue
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
    for i, entry in enumerate(_list(raw, "claims", "document")):
        context = f"claims[{i}]"
        _check_fields(entry, _CLAIM_FIELDS, context)
        for field in ("debtor", "creditor"):
            if not isinstance(entry.get(field), str):
                raise ParseError(f"{field!r} must be a bank id string", context)
        liability = _field(entry, "liability", context, memo)
        debtor, creditor = pair = (entry["debtor"], entry["creditor"])
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
        if liability.numerator < 0:
            violations.append(
                Violation(
                    errors.NEGATIVE_VALUE, "liability must be >= 0", claim=pair
                )
            )
            ok = False
        if ok:
            liabilities[pair] = liability

    schemes = raw.get("payment_schemes", {})
    if not isinstance(schemes, dict):
        raise ParseError("payment_schemes must map bank ids to schemes", "payment_schemes")
    specs = {v: _scheme(v, scheme, memo) for v, scheme in schemes.items()}
    if violations:
        raise NetworkValidationError(violations)

    out_by_bank: dict[str, dict[str, Fraction]] = {v: {} for v in banks}
    for (debtor, creditor), liability in liabilities.items():
        out_by_bank[debtor][creditor] = liability

    functions: dict[tuple[str, str], PaymentFunction] = {}
    for v, out in out_by_bank.items():
        kind, spec = specs.pop(v, (PROPORTIONAL, None))
        if not out:
            if kind != PROPORTIONAL:
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
                built = make_edge_ranking(out, spec)
            elif kind == PRIORITY_PROPORTIONAL:
                built = make_priority_proportional(out, spec)
            else:
                built = _piecewise(v, out, spec, violations)
        except ValueError as exc:
            violations.append(Violation(errors.INVALID_SCHEME, str(exc), bank=v))
            continue
        for creditor, fn in built.items():
            functions[(v, creditor)] = fn

    for v in specs:
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


def _scheme(v, scheme, memo: dict) -> tuple:
    """The checked shape of bank ``v``'s scheme: its type and what its
    builder reads, the order, the classes, or each piecewise edge's
    ``(creditor, borders, slopes)`` with the numbers parsed."""
    context = f"payment_schemes[{v!r}]"
    if not isinstance(scheme, dict) or "type" not in scheme:
        raise ParseError("scheme must be an object with a 'type'", context)
    kind = scheme["type"]
    allowed = _SCHEME_FIELDS.get(kind) if isinstance(kind, str) else None
    if allowed is None:
        raise ParseError(f"unknown scheme type {kind!r}", context)
    _check_fields(scheme, allowed, context)
    if kind == EDGE_RANKING:
        spec = _list(scheme, "order", context)
        if not _strings(spec):
            raise ParseError("'order' must be a list of bank id strings", context)
    elif kind == PRIORITY_PROPORTIONAL:
        spec = _list(scheme, "classes", context)
        if not all(map(_strings, spec)):
            raise ParseError("'classes' must be lists of bank id strings", context)
    elif kind == PIECEWISE:
        spec = []
        for j, edge in enumerate(_list(scheme, "edges", context)):
            where = f"{context}.edges[{j}]"
            _check_fields(edge, _EDGE_FIELDS, where)
            if not isinstance(edge.get("creditor"), str):
                raise ParseError("'creditor' must be a bank id string", where)
            parsed = [edge["creditor"]]
            for field in ("borders", "slopes"):
                values = edge.get(field)
                if not isinstance(values, list):
                    raise ParseError(f"{field!r} must be a list", where)
                # not isinstance: JSON true and false load as bools, which are ints
                if any(type(x) not in (int, str, Fraction) for x in values):
                    raise ParseError(
                        f"{field!r} entries must be integers or exact strings", where
                    )
                parsed.append(
                    tuple(_number(x, f"{where}.{field}[{k}]", memo) for k, x in enumerate(values))
                )
            spec.append(parsed)
    else:
        spec = None
    return kind, spec


def _piecewise(v, out, edges, violations):
    """Bank ``v``'s payment functions from its checked piecewise edges: a
    negative slope is a violation, and edges that miss or repeat a claim of
    ``out``, or a wrong slope count, raise ``ValueError``."""
    functions = {}
    for creditor, borders, slopes in edges:
        if creditor not in out or creditor in functions:
            raise ValueError(f"piecewise edges must match the out-claims of {v!r}")
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
    if functions.keys() != out.keys():
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
