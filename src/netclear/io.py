"""Network document parsing and result serialization.

Networks travel as JSON documents with ``format_version`` "1". Exact numbers
are written as integers or strings ("3", "1/2", "0.25"); JSON float literals
are rejected so no value is silently routed through binary floating point.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from . import __version__, model
from .clearing import ClearingState, payments
from .errors import ParseError
from .model import FinancialNetwork
from .rationals import decimal_str, exact_str, parse_exact

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
    """Load a document from a path or an open text file. Float literals and
    repeated keys in one object are rejected."""
    options = {"parse_float": _reject_float, "object_pairs_hook": _unique_keys}
    try:
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


def _number(obj, field: str, context: str, memo: dict) -> Fraction:
    """``parse_exact`` of ``obj[field]``, once per distinct literal of one
    document: ``memo`` is keyed on type and value, so ``true`` never reads
    the entry of ``1``."""
    if field not in obj:
        raise ParseError(f"missing field {field!r}", context)
    value = obj[field]
    if not isinstance(value, (int, str)):
        raise ParseError(f"{field!r} must be an integer or exact string", context)
    key = (value.__class__, value)
    if key not in memo:
        try:
            memo[key] = parse_exact(value)
        except (ValueError, TypeError) as exc:
            raise ParseError(str(exc), f"{context}.{field}") from exc
    return memo[key]


def parse_network(source) -> FinancialNetwork:
    """Parse and validate a network document from a path or an open text file.
    Its numbers are converted in place, each distinct literal once, and the
    loaded document itself goes to ``model.validate_network``."""
    doc = _load_json(source)
    memo = {}
    _check_fields(doc, {"format_version", "banks", "payment_schemes", "claims"}, "document")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ParseError(
            f"unsupported format_version {version!r}, expected {FORMAT_VERSION!r}"
        )
    banks = doc.get("banks", [])
    if not isinstance(banks, list) or not banks:
        raise ParseError("at least one bank is required", "banks")
    for i, entry in enumerate(banks):
        context = f"banks[{i}]"
        _check_fields(entry, _BANK_FIELDS, context)
        if not isinstance(entry.get("id"), str):
            raise ParseError("bank id must be a string", context)
        for field in ("external_assets", "alpha", "beta"):
            if field in entry:
                entry[field] = _number(entry, field, context, memo)

    for i, entry in enumerate(_list(doc, "claims", "document")):
        context = f"claims[{i}]"
        _check_fields(entry, _CLAIM_FIELDS, context)
        for field in ("debtor", "creditor"):
            if not isinstance(entry.get(field), str):
                raise ParseError(f"{field!r} must be a bank id string", context)
        entry["liability"] = _number(entry, "liability", context, memo)

    schemes_doc = doc.get("payment_schemes", {})
    if not isinstance(schemes_doc, dict):
        raise ParseError("payment_schemes must map bank ids to schemes", "payment_schemes")
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
                        # not isinstance: JSON true and false load as bools, which are ints
                        if type(value) not in (int, str):
                            raise ParseError(
                                f"{field!r} entries must be integers or exact strings",
                                edge_context,
                            )

    return model.validate_network(doc)


def parse_targets(source) -> dict[str, tuple[Fraction, Fraction]]:
    """Parse a range-targets document, ``{"targets": [{bank, lo, hi}]}``, into
    the ``{bank: (lo, hi)}`` mapping that ``solve_range_clearing`` checks
    against its network."""
    doc = _load_json(source)
    _check_fields(doc, {"targets"}, "targets document")
    targets, memo = {}, {}
    for i, entry in enumerate(_list(doc, "targets", "targets document")):
        context = f"targets[{i}]"
        _check_fields(entry, _TARGET_FIELDS, context)
        if not isinstance(entry.get("bank"), str):
            raise ParseError("'bank' must be a bank id string", context)
        if entry["bank"] in targets:
            raise ParseError(f"bank {entry['bank']!r} has more than one target", context)
        targets[entry["bank"]] = (
            _number(entry, "lo", context, memo),
            _number(entry, "hi", context, memo),
        )
    return targets


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


def _json_value(value, indent: str) -> str:
    """``value`` as ``json.dumps(value, indent=2, sort_keys=True)`` writes it
    at nesting ``indent``, for the str, bool, int, list and dict values that
    metadata holds."""
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, list):
        if not value:
            return "[]"
        items = [inner + _json_value(x, inner) for x in value]
        return "[\n" + ",\n".join(items) + f"\n{indent}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f"{inner}{_quote(k)}: {_json_value(value[k], inner)}" for k in sorted(value)]
        return "{\n" + ",\n".join(items) + f"\n{indent}}}"
    raise TypeError(f"cannot write {type(value).__name__} in a result document")


def dump_document(doc: dict) -> str:
    """A ResultDocument exactly as ``json.dumps(doc, indent=2, sort_keys=True)
    + "\\n"`` writes it, through fixed templates for ``assets`` and
    ``payments`` (``indent`` switches json's C encoder off)."""
    rows = [
        f'    {_quote(k)}: {{\n      "decimal": {_quote(v["decimal"])},\n'
        f'      "exact": {_quote(v["exact"])}\n    }}'
        for k, v in sorted(doc["assets"].items())
    ]
    assets = "{\n" + ",\n".join(rows) + "\n  }" if rows else "{}"
    rows = [
        f'    {{\n      "creditor": {_quote(p["creditor"])},\n'
        f'      "debtor": {_quote(p["debtor"])},\n'
        f'      "decimal": {_quote(p["decimal"])},\n'
        f'      "exact": {_quote(p["exact"])}\n    }}'
        for p in doc["payments"]
    ]
    payments = "[\n" + ",\n".join(rows) + "\n  ]" if rows else "[]"
    metadata = _json_value(doc["metadata"], "  ")
    return f'{{\n  "assets": {assets},\n  "metadata": {metadata},\n  "payments": {payments}\n}}\n'
