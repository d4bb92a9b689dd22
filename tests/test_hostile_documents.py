"""Seeded structural mutations of valid network documents through the CLI.

Every mutated document must leave every command (``validate``,
``min-clear``, ``max-clear``, ``range``, ``trade`` and ``oracle``) with exit
0, 1 or 2, never 3: an exit 2 must explain itself on stderr in the CLI's own
terms, never with a traceback or an internal error, and every state that
``min-clear``, ``max-clear`` and ``range`` emit must clear the network the
document describes.

Value mutations set a liability, an external asset or a haircut rate to
another valid value and run ``max-clear --method flood`` and
``trade --return``: every flood state must clear the network, and every
trade document must clear the traded network.
"""

import contextlib
import copy
import importlib.util
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from netclear.cli import main
from netclear.clearing import is_clearing_state
from netclear.io import parse_network
from netclear.model import validate_network
from netclear.trade import apply_trade

from corpus import ALL_SCHEME_KINDS, random_network, serialize_network

BENCH = Path(__file__).resolve().parent.parent / "bench"

# commands whose exit-0 state is checked against the network
STATE_COMMANDS = ("min-clear", "max-clear", "range")
# the commands with a domain-negative answer, which exits 1
NEGATIVE_COMMANDS = ("range", "trade", "oracle")
TARGETS = {"targets": [{"bank": "b1", "lo": 1, "hi": 20}]}
DEPTH = 100_000
# what a number or any other value may be replaced with
HOSTILE_VALUES = (None, True, 0, -1, "x", "1/0", "unbounded", [], {}, 10**1000)
HOSTILE_NUMBERS = ("x", "1/0", 10**1000)
SCHEME_KEYS = {"type", "order", "classes", "edges", "creditor", "borders", "slopes"}
# the valid values a value mutation may give each field
VALID_VALUES = {
    "liability": (1, 2, 5, "1/2", "7/3"),
    "external_assets": (0, 1, 4, "1/2", "9/4"),
    "alpha": (0, "1/2", 1),
    "beta": (0, "1/2", 1),
}
RETURNS = ("0", "1/2", "1")


def _bench_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    return workloads


def base_documents(rng, count):
    """Small valid documents: the bench generators' mixed-scheme networks,
    half of them with haircuts, and the test corpus's networks written out
    as piecewise schemes."""
    workloads = _bench_workloads()
    docs = []
    for k in range(count):
        if k % 2:
            net = random_network(
                rng, max_banks=5, schemes=ALL_SCHEME_KINDS, default_cost=k % 4 == 1
            )
            docs.append(serialize_network(net))
            continue
        ids = [f"b{i}" for i in range(rng.randint(2, 5))]
        banks = []
        for v in ids:
            bank = {"id": v, "external_assets": rng.randint(0, 8)}
            if k % 4 == 2:
                bank["alpha"] = rng.choice(workloads.HAIRCUTS)
                bank["beta"] = rng.choice(workloads.HAIRCUTS)
            banks.append(bank)
        claims = workloads._random_claims(rng, ids, 2 * len(ids))
        docs.append(workloads._document(banks, claims, workloads._mixed_schemes(rng, claims)))
    return docs


def slots(node, inside=()):
    """Every ``(container, key, path)`` of a document, ``path`` being the
    keys from the root down to ``key``."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in list(items):
        path = inside + (key,)
        yield node, key, path
        if isinstance(value, (dict, list)):
            yield from slots(value, path)


def mutate(rng, doc):
    """A copy of ``doc`` with one structural change, and what it was: a
    key dropped, a value retyped or nested, a key added, or a number made
    unreadable."""
    doc = copy.deepcopy(doc)
    container, key, path = rng.choice(list(slots(doc)))
    value = container[key]
    kind = rng.choice(("drop", "drop", "retype", "nest", "add", "number"))
    if kind == "drop":
        del container[key]
    elif kind == "retype":
        container[key] = rng.choice(HOSTILE_VALUES)
    elif kind == "nest":
        container[key] = rng.choice(([value], {"value": value}))
    elif kind == "add" and isinstance(value, dict):
        value[rng.choice(("extra", "type", "order", "edges", "id"))] = rng.choice(HOSTILE_VALUES)
    elif kind == "add" and isinstance(value, list):
        value.append(copy.deepcopy(rng.choice(value)) if value else rng.choice(HOSTILE_VALUES))
    else:
        container[key] = rng.choice(HOSTILE_NUMBERS)
    return doc, (kind, path)


def mutate_value(rng, doc):
    """A copy of ``doc`` with one liability, external asset or haircut rate
    set to another valid value."""
    doc = copy.deepcopy(doc)
    field = rng.choice(tuple(VALID_VALUES))
    entry = rng.choice(doc["claims" if field == "liability" else "banks"])
    now = Fraction(str(entry.get(field, 1)))
    entry[field] = rng.choice([x for x in VALID_VALUES[field] if Fraction(str(x)) != now])
    return doc


def trade_pairs(base):
    """The ``(claim, buyer)`` pairs of ``base`` by the benchmark's rule: the
    buyer has positive external assets and no claim from the debtor."""
    net = validate_network(base)
    return [
        (claim.pair, w)
        for claim in net.claims
        for w in net.bank_ids()
        if w not in claim.pair
        and not net.has_claim(claim.debtor, w)
        and net.bank(w).external_assets > 0
    ]


def run(argv):
    """``main(argv)`` with its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def write_targets(tmp_path):
    path = str(tmp_path / "targets.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(TARGETS, handle)
    return path


def commands(rng, base, targets):
    """Every command's argv before the file: the trade's claim and buyer are
    drawn from the unmutated ``base``, so that a mutation can remove them."""
    ids = [bank["id"] for bank in base["banks"]]
    claim = rng.choice(base["claims"]) if base["claims"] else {"debtor": "b0", "creditor": "b1"}
    pair = [claim["debtor"], claim["creditor"]]
    buyer = rng.choice([v for v in ids if v not in pair] or ids)
    return (
        ["validate"],
        ["min-clear"],
        ["max-clear"],
        ["range", "--targets", targets],
        ["trade", "--claim", *pair, "--buyer", buyer],
        ["oracle", "--direction", "bottom", "--steps", "20"],
    )


def emitted_state(out):
    return {v: Fraction(entry["exact"]) for v, entry in json.loads(out)["assets"].items()}


def nested(rng, doc):
    """The text of ``doc`` with one value wrapped in ``DEPTH`` lists, deeper
    than ``json`` can recurse (and than ``json.dump`` could write)."""
    doc = copy.deepcopy(doc)
    container, key, _ = rng.choice(list(slots(doc)))
    container[key] = "@"
    return json.dumps(doc).replace('"@"', "[" * DEPTH + "0" + "]" * DEPTH, 1)


def test_mutated_documents_exit_0_1_or_2(tmp_path):
    rng, pick = random.Random(28), random.Random(29)
    bases = base_documents(rng, 60)
    network = str(tmp_path / "network.json")
    targets = write_targets(tmp_path)
    exits = {0: 0, 1: 0, 2: 0}
    checked = dict.fromkeys(STATE_COMMANDS, 0)
    dropped = set()
    for i in range(2100):
        base = bases[i % len(bases)]
        doc, (kind, path) = mutate(rng, base)
        if kind == "drop" and "payment_schemes" in path:
            dropped.add(path[-1])
        with open(network, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        net = None
        for command in commands(pick, base, targets):
            code, out, err = run([*command, network])
            allowed = (0, 1, 2) if command[0] in NEGATIVE_COMMANDS else (0, 2)
            assert code in allowed, (doc, command, err)
            exits[code] += 1
            if code == 2:
                assert out == ""
                lines = err.splitlines()
                assert lines and all(
                    line.startswith(("error: ", "invalid network: ")) for line in lines
                ), (doc, command, err)
            elif code == 0 and command[0] in STATE_COMMANDS:
                if net is None:
                    net = parse_network(network)
                assert is_clearing_state(net, emitted_state(out)).ok, (doc, command)
                checked[command[0]] += 1
    assert SCHEME_KEYS <= dropped, SCHEME_KEYS - dropped
    assert exits[0] >= 450 and exits[1] >= 20 and exits[2] >= 12000, exits
    assert min(checked.values()) >= 30, checked


def test_value_mutations_reach_flood_and_trade(tmp_path):
    rng = random.Random(30)
    bases = [(base, trade_pairs(base)) for base in base_documents(rng, 60)]
    network = str(tmp_path / "network.json")
    checked = {"max-clear": 0, "trade": 0}
    for i in range(900):
        base, pairs = bases[i % len(bases)]
        with open(network, "w", encoding="utf-8") as handle:
            json.dump(mutate_value(rng, base), handle)
        runs = [(["max-clear", "--method", "flood"], None)]
        if pairs:
            pair, buyer = rng.choice(pairs)
            runs += [
                (["trade", "--claim", *pair, "--buyer", buyer, "--return", rho],
                 (pair, buyer, Fraction(rho)))
                for rho in RETURNS
            ]
        for command, trade in runs:
            code, out, err = run([*command, network])
            assert code in ((0, 1, 2) if trade else (0, 2)), (command, err)
            if code == 2:
                lines = err.splitlines()
                assert out == "" and lines and all(
                    line.startswith(("error: ", "invalid network: ")) for line in lines
                ), err
                continue
            net = parse_network(network)
            if trade:
                net = apply_trade(net, *trade)
            assert is_clearing_state(net, emitted_state(out)).ok, command
            checked[command[0]] += 1
    assert min(checked.values()) >= 100, checked


def test_deep_nesting_exits_2(tmp_path):
    rng = random.Random(100)
    network = tmp_path / "network.json"
    targets = write_targets(tmp_path)
    for base in base_documents(rng, 2):
        network.write_text(nested(rng, base), encoding="utf-8")
        for command in commands(rng, base, targets):
            assert run([*command, str(network)]) == (
                2, "", "error: invalid JSON: nested too deeply\n"
            ), command
