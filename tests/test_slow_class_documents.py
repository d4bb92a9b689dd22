"""Slow tier: costly class-scheme documents through the CLI, each op in its
own process under a time and a memory limit. Run it with
``python -m pytest -m slow``; the default run leaves it out.

Bank ``d`` owes 4,000 creditors, once under a ranking (4,000 classes) and
once in 400 priority classes of 10; every 50th creditor owes ``d`` in turn,
which closes 80 cycles through it. ``validate``, ``min-clear`` and
``max-clear --method pp`` run on each document, and every emitted state is
checked against ``oracles``: the ``Fraction`` asset map leaves it in place,
each written payment is the ``Fraction`` evaluator's, and it equals the
least state of the top-down route (``compute_min_clearing``) or the flood
maximum (``oracles.flood_maximum``), neither of which the CLI runs.
"""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from netclear import compute_min_clearing
from netclear.io import parse_network

from corpus import one_debtor_document
from oracles import flood_maximum, fraction_phi, fraction_value_at

pytestmark = pytest.mark.slow

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Runs the CLI on its arguments and writes the process's peak resident set
# size (``VmHWM``) to stderr, where Linux reports it. ``ru_maxrss`` would not
# do: across ``exec`` it keeps the peak of the process that forked the child.
RUNNER = """\
import sys
from netclear.cli import main
code = main(sys.argv[1:])
try:
    with open("/proc/self/status") as status:
        sys.stderr.write([line for line in status if line.startswith("VmHWM:")][0])
except OSError:
    pass
raise SystemExit(code)
"""

# seconds per op, and the peak RSS of any op: loading the ranked document
# took 217 MB when each creditor held its own tuples of k slopes and values
TIME_LIMITS = {"validate": 10, "min-clear": 120, "max-clear": 30}
RSS_LIMIT_KB = 80 * 1024

DOCUMENTS = {
    "ranked": dict(kind="edge_ranking"),
    "many-classes": dict(kind="priority_proportional", class_size=10),
}


def run_op(command, path, *options):
    """The CLI's exit code and stdout for one op in a fresh process, once
    the op kept within its time and memory limit."""
    result = subprocess.run(
        [sys.executable, "-c", RUNNER, command, path, *options],
        capture_output=True,
        text=True,
        timeout=TIME_LIMITS[command],
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    if "VmHWM:" in result.stderr:
        rss = int(result.stderr.rsplit("VmHWM:", 1)[1].split()[0])
        assert rss < RSS_LIMIT_KB, (command, rss)
    return result.returncode, result.stdout


def check_emitted(net, out, expected):
    doc = json.loads(out)
    state = {v: Fraction(entry["exact"]) for v, entry in doc["assets"].items()}
    assert state == {v: expected[v] for v in net.bank_ids()}
    assert fraction_phi(net, state) == state
    assert len(doc["payments"]) == len(net.claims)
    for row in doc["payments"]:
        payment = net.claim(row["debtor"], row["creditor"]).payment
        assert Fraction(row["exact"]) == fraction_value_at(payment, state[row["debtor"]])


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_costly_class_document_through_the_cli(name, tmp_path):
    rng = random.Random(f"class-document/{name}")
    doc = one_debtor_document(rng, 4000, back_every=50, **DOCUMENTS[name])
    path = str(tmp_path / f"{name}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    net = parse_network(path)
    assert len(net.claims) == 4080

    code, out = run_op("validate", path)
    assert code == 0 and json.loads(out)["metadata"]["claims"] == 4080

    least = compute_min_clearing(net)
    code, out = run_op("min-clear", path)
    assert code == 0
    check_emitted(net, out, least)

    greatest = flood_maximum(net)
    code, out = run_op("max-clear", path, "--method", "pp")
    assert code == 0
    check_emitted(net, out, greatest)
