"""Slow tier: the walks above the minimal state on the 24 ``lattice-rings``
benchmark networks at the hold-out seed, with the held active graph compared
with a fresh build after every ``minimal.advance``. Run it with
``python -m pytest -m slow``; the default run leaves it out.

Per network: the flood maximum must equal the pp maximum exactly; one range
query with every target interval running from the midpoint of a bank's
minimal and maximal assets up to the maximal ones; and one optimal claims
trade. Every
state these emit must be a clearing state.
"""

import importlib.util
import os
import random
import sys

import pytest

from netclear import (
    apply_trade,
    compute_max_clearing_flood,
    compute_max_clearing_pp,
    compute_min_clearing,
    is_clearing_state,
    optimal_creditor_positive_return,
    solve_range_clearing,
)
from netclear.errors import NoCreditorPositiveTradeError
from netclear.io import parse_network

from graph_checks import check_advance_freshness

pytestmark = pytest.mark.slow

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
HOLDOUT_SEED = 7919


def holdout_networks(tmp_path):
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", os.path.join(BENCH, "workloads.py")
    )
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    ops = workloads.build("lattice-rings", HOLDOUT_SEED, str(tmp_path))
    paths = sorted({op.network for op in ops})
    assert len(paths) == 24
    return [parse_network(path) for path in paths]


def trade_candidates(net, low):
    """(claim pair, buyer) pairs where the seller pays all of each extra unit
    to the buyer at the minimal state (slope 1), so that a return can come
    back to the buyer; other pairs rarely admit a creditor-positive trade."""
    found = []
    for claim in net.claims:
        u, v = claim.pair
        for out in net.out_claims(v):
            w = out.creditor
            if (
                w != u
                and not net.has_claim(u, w)
                and net.bank(w).external_assets > 0
                and out.payment.slope_at(low[v]) == 1
            ):
                found.append(((u, v), w))
    return found


def test_walks_on_lattice_rings_holdout_networks(tmp_path, monkeypatch):
    networks = holdout_networks(tmp_path)
    counts = check_advance_freshness(monkeypatch)
    rng = random.Random("slow/walks")
    trades = 0
    for net in networks:
        low = compute_min_clearing(net)
        high = compute_max_clearing_flood(net)
        assert dict(high) == dict(compute_max_clearing_pp(net))
        assert is_clearing_state(net, high).ok

        open_banks = sorted(v for v in net.bank_ids() if low[v] != high[v])
        chosen = rng.sample(open_banks, min(4, len(open_banks)))
        targets = {v: ((low[v] + high[v]) / 2, high[v]) for v in chosen}
        result = solve_range_clearing(net, targets)
        assert result.feasible  # the maximal state is a witness
        assert is_clearing_state(net, result.state).ok
        for v, (lo, hi) in targets.items():
            assert lo <= result.state[v] <= hi

        candidates = trade_candidates(net, low)
        if not candidates:
            continue
        pair, buyer = rng.choice(candidates)
        try:
            trade = optimal_creditor_positive_return(net, pair, buyer)
        except NoCreditorPositiveTradeError:
            continue
        traded = apply_trade(net, pair, buyer, trade.rho_star)
        assert is_clearing_state(traded, trade.post_state).ok
        assert dict(trade.post_state) == dict(compute_min_clearing(traded))
        trades += 1
    assert trades > 0 and counts["landed"] > 0
