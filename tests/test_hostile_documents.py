"""Seeded structural mutations of valid network documents through the CLI.

Every mutated document must leave ``netclear validate``, ``min-clear`` and
``max-clear`` with exit 0 or 2, and an exit 2 must explain itself on stderr
in the CLI's own terms, never with a traceback or an internal error.
"""

import contextlib
import copy
import importlib.util
import io
import json
import random
import sys
from pathlib import Path

from netclear.cli import main

from corpus import ALL_SCHEME_KINDS, random_network, serialize_network

BENCH = Path(__file__).resolve().parent.parent / "bench"

COMMANDS = (["validate"], ["min-clear"], ["max-clear"])
# what a number or any other value may be replaced with
HOSTILE_VALUES = (None, True, 0, -1, "x", "1/0", "unbounded", [], {}, 10**1000)
HOSTILE_NUMBERS = ("x", "1/0", 10**1000)
SCHEME_KEYS = {"type", "order", "classes", "edges", "creditor", "borders", "slopes"}


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


def run(argv):
    """``main(argv)`` with its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_mutated_documents_exit_0_or_2(tmp_path):
    rng = random.Random(28)
    bases = base_documents(rng, 60)
    network = str(tmp_path / "network.json")
    exits = {0: 0, 2: 0}
    dropped = set()
    for i in range(2100):
        doc, (kind, path) = mutate(rng, bases[i % len(bases)])
        if kind == "drop" and "payment_schemes" in path:
            dropped.add(path[-1])
        with open(network, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        for command in COMMANDS:
            code, out, err = run([*command, network])
            assert code in (0, 2), (doc, command, err)
            exits[code] += 1
            if code == 2:
                assert out == ""
                lines = err.splitlines()
                assert lines and all(
                    line.startswith(("error: ", "invalid network: ")) for line in lines
                ), (doc, command, err)
    assert SCHEME_KEYS <= dropped, SCHEME_KEYS - dropped
    assert exits[0] >= 300 and exits[2] >= 3000, exits
