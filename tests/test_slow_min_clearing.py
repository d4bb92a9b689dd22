"""Slow tier: ``run_min_clearing`` under ``graph_checks.check_driver``, which
checks every step and rewire, at sizes the tier-1 corpora do not reach. Run it with ``python -m pytest -m slow``;
the default run leaves it out.

Three corpora: the 24 ``lattice-rings`` benchmark networks at the hold-out
seed (a 30-bank core feeding closed rings, so floods and long increase runs),
where the top-down route of ``compute_min_clearing`` must give the same
state;
40 mixed-scheme networks with n = 30-40, default costs and liabilities of 1
or 2 only, so that many banks share border values and reach them in the same
step; and 40 networks with n = 30-40 and haircut rates of 0, 1/2 and 1, so
that some banks have alpha = beta = 0 and are rewired on the way.

The top-down route is also run against the driver on the benchmark's
proportional networks ``_proportional(Random(f"scale/{n}"), n)`` for n = 100
and 200.

One more check takes every exact system the run solves on one n = 60
proportional network and compares it with dense Gaussian elimination: its
solutions reach well over 100 bits, which the tier-1 systems never do.
"""

import importlib.util
import os
import random
import sys
from fractions import Fraction

import pytest

from netclear import (
    compute_min_clearing,
    linalg,
    minimal,
    run_min_clearing,
)
from netclear.io import parse_network
from netclear.model import validate_network

from corpus import ZERO_RATE_ALPHAS, random_network, rewired_zero_rate_banks
from graph_checks import check_driver
from oracles import dense_solve_linear_system

pytestmark = pytest.mark.slow

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
HOLDOUT_SEED = 7919


def _bench_workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", os.path.join(BENCH, "workloads.py")
    )
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    return workloads


@pytest.fixture
def checked(monkeypatch):
    """Checks every step of every driver run of the test, and that the run
    returns a clearing state; call the driver as ``minimal.run_min_clearing``."""
    return check_driver(monkeypatch)


def test_lattice_rings_holdout_networks(tmp_path, checked):
    ops = _bench_workloads().build("lattice-rings", HOLDOUT_SEED, str(tmp_path))
    paths = sorted({op.network for op in ops})
    assert len(paths) == 24
    floods = 0
    for path in paths:
        net = parse_network(path)
        run = minimal.run_min_clearing(net)
        floods += run.flood_count
        # the library route: top-down from the pp maximum
        assert list(compute_min_clearing(net).items()) == list(run.state.items())
    assert floods > 0


@pytest.mark.parametrize("n", [100, 200])
def test_top_down_route_at_scale(n):
    """``compute_min_clearing`` walks down from the pp maximum; the
    injection driver, which takes 0.3 s at n = 100 and 4 s at n = 200 on a
    2-vCPU VM, is its reference."""
    net = validate_network(_bench_workloads()._proportional(random.Random(f"scale/{n}"), n))
    assert list(compute_min_clearing(net).items()) == list(run_min_clearing(net).state.items())


def test_mixed_default_cost_networks_with_tied_borders(checked):
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
        run = minimal.run_min_clearing(net)
        floods += run.flood_count
        increases += run.step_count - run.flood_count
    assert floods > 0 and increases > 0


def test_zero_rate_default_cost_networks(checked):
    rng = random.Random("slow/zero-rates")
    rewired = 0
    for _ in range(40):
        net = random_network(
            rng, min_banks=30, max_banks=40, default_cost=True, alphas=ZERO_RATE_ALPHAS
        )
        rewired += rewired_zero_rate_banks(net, minimal.run_min_clearing(net).state)
    assert rewired >= 30


def _bits(x: Fraction) -> int:
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


def test_min_clearing_systems_match_dense_elimination(monkeypatch, checked):
    """Every system of a min-clear run on an n = 60 proportional network
    (m = 4n, the ``min-prop`` shape) has the dense oracle's solution."""
    doc = _bench_workloads()._proportional(random.Random("slow/solver-60"), 60)
    net = validate_network(doc)
    solve = linalg.solve_linear_system
    systems = []

    def recorded(rows, rhs):
        solution = solve(rows, rhs)
        systems.append((rows, rhs, solution))
        return solution

    monkeypatch.setattr(minimal, "solve_linear_system", recorded)
    monkeypatch.setattr(linalg, "solve_linear_system", recorded)
    minimal.run_min_clearing(net)
    assert len(systems) >= 50
    wide = 0
    for rows, rhs, solution in systems:
        n = len(rows)
        matrix = [[Fraction(0)] * n for _ in range(n)]
        for i, row in enumerate(rows):
            for j, value in row:
                matrix[i][j] += value
        if solution is not None:
            numerators, den = solution
            assert den > 0
            solution = [Fraction(x, den) for x in numerators]
        assert solution == dense_solve_linear_system(matrix, rhs)
        wide += solution is not None and max(map(_bits, solution)) >= 100
    assert wide >= 40
