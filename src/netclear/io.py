"""Network document parsing and result serialization.

Networks travel as JSON documents with ``format_version`` "1". Exact numbers
are written as integers or strings ("3", "1/2", "0.25"); JSON float literals
are rejected so no value is silently routed through binary floating point.
"""

from __future__ import annotations

import json
from fractions import Fraction

from . import __version__, model
from .clearing import ClearingState, payments
from .errors import ParseError
from .lattice import RangeSpec
from .model import FinancialNetwork
from .rationals import ONE, ZERO, decimal_str, exact_str, parse_exact

FORMAT_VERSION = "1"
SOLVER_VERSION = __version__

_BANK_FIELDS = {"id", "external_assets", "alpha", "beta"}
_CLAIM_FIELDS = {"debtor", "creditor", "liability"}
_SCHEME_FIELDS = {
    model.PROPORTIONAL: {"type"},
    model.EDGE_RANKING: {"type", "order"},
    model.PRIORITY_PROPORTIONAL: {"type", "classes"},
    model.PIECEWISE: {"type", "edges"},
}
_PIECEWISE_EDGE_FIELDS = {"creditor", "borders", "slopes"}
_TARGET_FIELDS = {"bank", "lo", "hi"}


def _reject_float(text: str):
    raise ParseError(
        f"float literal {text!r}: write non-integers as strings, e.g. \"1/2\""
    )


def _unique_keys(pairs) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ParseError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def _load_json(source) -> dict:
    """Load a document from a path, an open file, or a literal JSON string
    (strings starting with ``{`` are treated as content, not paths). Float
    literals and repeated keys in one object are rejected."""
    options = {"parse_float": _reject_float, "object_pairs_hook": _unique_keys}
    try:
        if isinstance(source, str) and source.lstrip().startswith("{"):
            return json.loads(source, **options)
        if hasattr(source, "read"):
            return json.load(source, **options)
        with open(source, "r", encoding="utf-8") as handle:
            return json.load(handle, **options)
    except ParseError:
        raise
    except ValueError as exc:  # JSONDecodeError, or an int literal Python refuses
        raise ParseError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:  # nesting deeper than the scanner recurses
        raise ParseError("invalid JSON: nested too deeply") from exc
    except OSError as exc:
        raise ParseError(f"cannot read {source!r}: {exc}") from exc


def _check_fields(obj: dict, allowed: set, context: str) -> None:
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


def _number(obj, field: str, context: str, default=None) -> Fraction:
    if field not in obj:
        if default is None:
            raise ParseError(f"missing field {field!r}", context)
        return default
    value = obj[field]
    if not isinstance(value, (int, str)):
        raise ParseError(f"{field!r} must be an integer or exact string", context)
    try:
        return parse_exact(value)
    except (ValueError, TypeError) as exc:
        raise ParseError(str(exc), f"{context}.{field}") from exc


def parse_network(source) -> FinancialNetwork:
    """Parse and validate a network document from a path, file, or string."""
    doc = _load_json(source)
    _check_fields(doc, {"format_version", "banks", "payment_schemes", "claims"}, "document")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ParseError(
            f"unsupported format_version {version!r}, expected {FORMAT_VERSION!r}"
        )
    banks = doc.get("banks", [])
    if not isinstance(banks, list) or not banks:
        raise ParseError("at least one bank is required", "banks")
    raw_banks = []
    for i, entry in enumerate(banks):
        context = f"banks[{i}]"
        _check_fields(entry, _BANK_FIELDS, context)
        if not isinstance(entry.get("id"), str):
            raise ParseError("bank id must be a string", context)
        raw_banks.append(
            {
                "id": entry["id"],
                "external_assets": _number(entry, "external_assets", context, default=ZERO),
                "alpha": _number(entry, "alpha", context, default=ONE),
                "beta": _number(entry, "beta", context, default=ONE),
            }
        )

    raw_claims = []
    for i, entry in enumerate(_list(doc, "claims", "document")):
        context = f"claims[{i}]"
        _check_fields(entry, _CLAIM_FIELDS, context)
        for field in ("debtor", "creditor"):
            if not isinstance(entry.get(field), str):
                raise ParseError(f"{field!r} must be a bank id string", context)
        raw_claims.append(
            {
                "debtor": entry["debtor"],
                "creditor": entry["creditor"],
                "liability": _number(entry, "liability", context),
            }
        )

    schemes_doc = doc.get("payment_schemes", {})
    if not isinstance(schemes_doc, dict):
        raise ParseError("payment_schemes must map bank ids to schemes", "payment_schemes")
    raw_schemes = {}
    for bank_id, scheme in schemes_doc.items():
        context = f"payment_schemes[{bank_id!r}]"
        if not isinstance(scheme, dict) or "type" not in scheme:
            raise ParseError("scheme must be an object with a 'type'", context)
        kind = scheme["type"]
        allowed = _SCHEME_FIELDS.get(kind) if isinstance(kind, str) else None
        if allowed is None:
            raise ParseError(f"unknown scheme type {kind!r}", context)
        _check_fields(scheme, allowed, context)
        if kind == model.EDGE_RANKING and not _strings(_list(scheme, "order", context)):
            raise ParseError("'order' must be a list of bank id strings", context)
        if kind == model.PRIORITY_PROPORTIONAL and not all(
            map(_strings, _list(scheme, "classes", context))
        ):
            raise ParseError("'classes' must be lists of bank id strings", context)
        if kind == model.PIECEWISE:
            for j, edge in enumerate(_list(scheme, "edges", context)):
                edge_context = f"{context}.edges[{j}]"
                _check_fields(edge, _PIECEWISE_EDGE_FIELDS, edge_context)
                if not isinstance(edge.get("creditor"), str):
                    raise ParseError("'creditor' must be a bank id string", edge_context)
                for field in ("borders", "slopes"):
                    values = edge.get(field)
                    if not isinstance(values, list):
                        raise ParseError(f"{field!r} must be a list", edge_context)
                    for value in values:
                        if not isinstance(value, (int, str)):
                            raise ParseError(
                                f"{field!r} entries must be integers or exact strings",
                                edge_context,
                            )
        raw_schemes[bank_id] = scheme

    return model.validate_network(
        {"banks": raw_banks, "claims": raw_claims, "payment_schemes": raw_schemes}
    )


def parse_targets(source, net: FinancialNetwork) -> RangeSpec:
    """Parse a range-targets document: ``{"targets": [{bank, lo, hi}]}``."""
    doc = _load_json(source)
    _check_fields(doc, {"targets"}, "targets document")
    targets = {}
    for i, entry in enumerate(_list(doc, "targets", "targets document")):
        context = f"targets[{i}]"
        _check_fields(entry, _TARGET_FIELDS, context)
        if not isinstance(entry.get("bank"), str):
            raise ParseError("'bank' must be a bank id string", context)
        lo = _number(entry, "lo", context)
        hi = _number(entry, "hi", context)
        targets[entry["bank"]] = (lo, hi)
    return RangeSpec.build(net, targets)


def _value_entry(value: Fraction) -> dict:
    return {"exact": exact_str(value), "decimal": decimal_str(value)}


def result_document(
    operation: str,
    net: FinancialNetwork,
    state: ClearingState | None,
    *,
    step_count: int = 0,
    flood_count: int = 0,
    extra: dict | None = None,
) -> dict:
    """ResultDocument with exact and display-decimal fields; deterministic."""
    assets = {}
    payment_rows = []
    if state is not None:
        assets = {v: _value_entry(state[v]) for v in sorted(net.bank_ids())}
        for (debtor, creditor), value in sorted(payments(net, state).items()):
            payment_rows.append(
                {"debtor": debtor, "creditor": creditor, **_value_entry(value)}
            )
    metadata = {
        "operation": operation,
        "step_count": step_count,
        "flood_count": flood_count,
        "solver_version": SOLVER_VERSION,
    }
    if extra:
        metadata.update(extra)
    return {"assets": assets, "payments": payment_rows, "metadata": metadata}


def dump_document(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
