"""Slow tier: ``run_min_clearing`` with every invariant check on, at
sizes the tier-1 corpora do not reach. Run it with ``python -m pytest -m slow``;
the default run leaves it out.

Three corpora: the 24 ``lattice-rings`` benchmark networks at the hold-out
seed (a 30-bank core feeding closed rings, so floods and long increase runs);
40 mixed-scheme networks with n = 30-40, default costs and liabilities of 1
or 2 only, so that many banks share border values and reach them in the same
step; and 40 networks with n = 30-40 and haircut rates of 0, 1/2 and 1, so
that some banks have alpha = beta = 0 and are rewired on the way.
"""

import importlib.util
import os
import random
import sys

import pytest

from netclear import is_clearing_state, run_min_clearing
from netclear.io import parse_network

from corpus import ZERO_RATE_ALPHAS, random_network, rewired_zero_rate_banks

pytestmark = pytest.mark.slow

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
HOLDOUT_SEED = 7919


def _check(net):
    run = run_min_clearing(net, check_invariant=True)
    check = is_clearing_state(net, run.state)
    assert check.ok, check.violations
    return run


def test_lattice_rings_holdout_networks(tmp_path):
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", os.path.join(BENCH, "workloads.py")
    )
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    ops = workloads.build("lattice-rings", HOLDOUT_SEED, str(tmp_path))
    paths = sorted({op.network for op in ops})
    assert len(paths) == 24
    floods = 0
    for path in paths:
        floods += len(_check(parse_network(path)).flood_steps)
    assert floods > 0


def test_mixed_default_cost_networks_with_tied_borders():
    rng = random.Random("slow/tied-borders")
    floods = increases = 0
    for _ in range(40):
        net = random_network(
            rng,
            min_banks=30,
            max_banks=40,
            max_liability=2,
            max_external=2,
            default_cost=True,
        )
        run = _check(net)
        floods += len(run.flood_steps)
        increases += len(run.increase_steps)
    assert floods > 0 and increases > 0


def test_zero_rate_default_cost_networks():
    rng = random.Random("slow/zero-rates")
    rewired = 0
    for _ in range(40):
        net = random_network(
            rng, min_banks=30, max_banks=40, default_cost=True, alphas=ZERO_RATE_ALPHAS
        )
        rewired += rewired_zero_rate_banks(net, _check(net).state)
    assert rewired >= 30
