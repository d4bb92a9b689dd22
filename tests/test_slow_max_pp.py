"""Slow tier: the counter descent on the first 40 ``max-pp`` benchmark
networks at the hold-out seed, with the held counter system compared with a
fresh build after every lowering, every jump of a regular round checked
against the maximal state, and no least block solve left through the
singular path. Run it with ``python -m pytest -m slow``;
the default run leaves it out.

Every ``max-pp`` network has haircuts on about half of its banks. Each one
runs twice: as generated, where the state must be a clearing state, and with
its haircuts removed, where it must also equal the flood maximum.
"""

import importlib.util
import json
import os
import sys

import pytest

from netclear import compute_max_clearing_flood, compute_max_clearing_pp, is_clearing_state
from netclear.model import validate_network

from counter_checks import (
    assert_jumps_sound,
    check_counter_freshness,
    record_least_exits,
    record_rounds,
)

pytestmark = pytest.mark.slow

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
HOLDOUT_SEED = 7919


def holdout_documents(tmp_path, count):
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", os.path.join(BENCH, "workloads.py")
    )
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    ops = workloads.build("max-pp", HOLDOUT_SEED, str(tmp_path))[:count]
    documents = []
    for op in ops:
        with open(op.network, encoding="utf-8") as handle:
            documents.append(json.load(handle))
    return documents


def without_haircuts(doc):
    banks = [{k: x for k, x in bank.items() if k not in ("alpha", "beta")} for bank in doc["banks"]]
    return dict(doc, banks=banks)


def test_descent_on_max_pp_holdout_networks(tmp_path, monkeypatch):
    documents = holdout_documents(tmp_path, 40)
    assert len(documents) == 40
    counts = check_counter_freshness(monkeypatch)
    rounds = record_rounds(monkeypatch)
    exits = record_least_exits(monkeypatch)
    jumps = 0
    for doc in documents:
        net = validate_network(doc)
        assert net.has_default_cost()
        rounds.clear()
        state = compute_max_clearing_pp(net)
        assert is_clearing_state(net, state).ok
        jumps += assert_jumps_sound(rounds, state)

        plain = validate_network(without_haircuts(doc))
        assert not plain.has_default_cost()
        rounds.clear()
        state = compute_max_clearing_pp(plain)
        assert is_clearing_state(plain, state).ok
        assert dict(state) == dict(compute_max_clearing_flood(plain))
        jumps += assert_jumps_sound(rounds, state)
    assert counts["lowerings"] > 0
    assert jumps > 0
    # no least solve left through the singular path
    assert exits["singular"] == 0 and exits["unique"] > 0
