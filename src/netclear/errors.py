"""Exception types shared across the package."""

from __future__ import annotations


class NetclearError(Exception):
    """Base class for all package-specific errors."""


class ParseError(NetclearError):
    """A network or targets document could not be parsed.

    ``context`` points at the offending field, e.g. ``banks[2].external_assets``.
    """

    def __init__(self, message: str, context: str | None = None):
        self.context = context
        super().__init__(message if context is None else f"{context}: {message}")


class Violation:
    """One validation failure, with enough context to locate it."""

    __slots__ = ("kind", "message", "bank", "claim")

    def __init__(self, kind: str, message: str, bank=None, claim=None):
        self.kind = kind
        self.message = message
        self.bank = bank
        self.claim = claim

    def __repr__(self):
        where = ""
        if self.bank is not None:
            where = f" bank={self.bank!r}"
        if self.claim is not None:
            where += f" claim={self.claim!r}"
        return f"<{self.kind}{where}: {self.message}>"

    def __eq__(self, other):
        return isinstance(other, Violation) and (
            (self.kind, self.message, self.bank, self.claim)
            == (other.kind, other.message, other.bank, other.claim)
        )


# Violation kinds produced by network validation.
SELF_LOOP = "self_loop"
DUPLICATE_EDGE = "duplicate_edge"
NEGATIVE_VALUE = "negative_value"
VALUE_OUT_OF_RANGE = "value_out_of_range"
SLOPE_SUM_VIOLATION = "slope_sum_violation"
BORDER_MISMATCH = "border_mismatch"
UNKNOWN_BANK_ID = "unknown_bank_id"
DUPLICATE_BANK_ID = "duplicate_bank_id"
INVALID_SCHEME = "invalid_scheme"
LIABILITY_MISMATCH = "liability_mismatch"


class NetworkValidationError(NetclearError):
    """Raised with the full list of violations found in a network."""

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(repr(v) for v in self.violations)
        super().__init__(f"invalid network: {lines}")


class UnknownBankError(NetclearError, KeyError):
    # KeyError's __str__ would print the message's repr, quotes included
    __str__ = Exception.__str__

    def __init__(self, bank_id):
        self.bank_id = bank_id
        super().__init__(f"unknown bank id: {bank_id!r}")


class UnknownClaimError(NetclearError, KeyError):
    __str__ = Exception.__str__

    def __init__(self, debtor, creditor):
        self.debtor = debtor
        self.creditor = creditor
        super().__init__(f"no claim from {debtor!r} to {creditor!r}")


class DegenerateMatrixError(NetclearError):
    """The left-unit nullspace was not one-dimensional (caller bug)."""


class InternalInvariantError(NetclearError):
    """An invariant the algorithm relies on was violated; indicates a bug."""


class NotSolventError(NetclearError):
    """Rewiring was requested for a bank that is not solvent."""


class InvalidSpecError(NetclearError, ValueError):
    """A range specification is malformed."""


class DefaultCostUnsupportedError(NetclearError):
    """The operation is only defined for networks without default cost."""


class TradeError(NetclearError, ValueError):
    """Base class for claims-trade errors."""


class DuplicateEdgeAfterTradeError(TradeError):
    def __init__(self, debtor, buyer):
        super().__init__(
            f"trading would duplicate the existing claim from {debtor!r} to {buyer!r}"
        )


class ReturnExceedsCapError(TradeError):
    def __init__(self, rho, cap):
        self.rho = rho
        self.cap = cap
        super().__init__(f"return {rho} exceeds the cap {cap}")


class NoCreditorPositiveTradeError(TradeError):
    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(f"no creditor-positive return exists: {reason}")
