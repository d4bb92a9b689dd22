"""Loading network and targets documents, and writing result documents.

Networks travel as JSON documents with ``format_version`` "1". Exact numbers
are written as integers or strings ("3", "1/2", "0.25"); JSON float literals
are rejected so no value is silently routed through binary floating point.
This module loads the JSON and checks a network document's top-level keys;
``model.validate_network`` reads its entries. A targets document is read
here with the same field and number helpers.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from . import __version__, model
from .clearing import ClearingState, payments
from .errors import ParseError
from .model import FinancialNetwork, _check_fields, _field, _list
from .rationals import decimal_str, exact_str

FORMAT_VERSION = "1"
SOLVER_VERSION = __version__

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


def parse_network(source) -> FinancialNetwork:
    """Parse and validate a network document from a path or an open text file.
    Its top-level keys and ``format_version`` are checked here; every entry
    is read by ``model.validate_network``."""
    doc = _load_json(source)
    _check_fields(doc, {"format_version", "banks", "payment_schemes", "claims"}, "document")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ParseError(
            f"unsupported format_version {version!r}, expected {FORMAT_VERSION!r}"
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
            _field(entry, "lo", context, memo),
            _field(entry, "hi", context, memo),
        )
    return targets


def result_document(
    operation: str,
    net: FinancialNetwork,
    state: ClearingState | None,
    paid: dict | None = None,
    *,
    step_count: int = 0,
    flood_count: int = 0,
    extra: dict | None = None,
) -> dict:
    """ResultDocument with exact and display-decimal fields; deterministic.
    ``paid`` is ``clearing.payments(net, state)`` when the caller holds it,
    else it is computed here. Each distinct value is rendered once."""
    assets = {}
    payment_rows = []
    if state is not None:
        entries = {}

        def entry(value: Fraction) -> dict:
            # keyed on the int pair: hashing a Fraction costs more than it saves
            key = value.as_integer_ratio()
            if key not in entries:
                entries[key] = {"exact": exact_str(value), "decimal": decimal_str(value)}
            return entries[key]

        assets = {v: {**entry(state[v])} for v in sorted(net.bank_ids())}
        if paid is None:
            paid = payments(net, state)
        for (debtor, creditor), value in sorted(paid.items()):
            payment_rows.append({"debtor": debtor, "creditor": creditor, **entry(value)})
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
    metadata = json.dumps(doc["metadata"], indent=2, sort_keys=True).replace("\n", "\n  ")
    return f'{{\n  "assets": {assets},\n  "metadata": {metadata},\n  "payments": {payments}\n}}\n'
