"""The walks through the clearing states hold one active graph.

``compute_max_clearing_flood`` (at the pp maximum), ``solve_range_clearing``,
``apply_flood_sequence`` and the trade walk build one active graph each,
beyond the builds of the min-clears they run, and move it along with the
state through ``minimal.advance``, as the top-down ``compute_min_clearing``
does on its ``left`` graph. After every ``advance`` the held graph must
equal a fresh build of its own kind.
"""

import random
from fractions import Fraction as F

from netclear import (
    apply_flood_sequence,
    build_network,
    compute_max_clearing_flood,
    compute_min_clearing,
    is_clearing_state,
    optimal_creditor_positive_return,
    run_min_clearing,
    solve_range_clearing,
)
from netclear.errors import NoCreditorPositiveTradeError, NotASinkComponentError

from corpus import random_network, random_trade_instance, ringed_network
from graph_checks import check_advance_freshness, count_builds
from oracles import exists_creditor_positive


def rings():
    """Two closed two-cycles {b, c} and {d, e} at zero in the minimal state;
    c pays b first and d second, so each cycle floods on its own."""
    return build_network(
        banks=[("b", 0), ("c", 0), ("d", 0), ("e", 0)],
        claims=[("b", "c", 1), ("c", "b", 1), ("c", "d", 1), ("d", "e", 1), ("e", "d", 1)],
        schemes={"c": {"type": "edge_ranking", "order": ["b", "d"]}},
    )


def walk_network():
    """The {v, y} cycle floods mid-walk (see ``test_trade``)."""
    return build_network(
        banks=[("u", 0), ("v", 0), ("w", 5), ("y", 0)],
        claims=[("u", "v", 5), ("v", "w", 3), ("v", "y", 2), ("y", "v", 2)],
        schemes={"v": {"type": "edge_ranking", "order": ["w", "y"]}},
    )


def builds_beyond_min_clear(monkeypatch, call):
    counts = count_builds(monkeypatch)
    result = call()
    return counts["all"] - counts["min_clear"], result


class TestOneBuildPerWalk:
    def test_max_clearing_flood(self, monkeypatch):
        net = rings()
        low = compute_min_clearing(net)
        builds, high = builds_beyond_min_clear(
            monkeypatch, lambda: compute_max_clearing_flood(net)
        )
        assert builds == 1
        assert low["b"] == low["d"] == 0 and high["b"] == high["d"] == 1

    def test_range(self, monkeypatch):
        net = rings()
        high = compute_max_clearing_flood(net)
        spec = {"b": (high["b"], high["b"]), "d": (high["d"], high["d"])}
        builds, result = builds_beyond_min_clear(
            monkeypatch, lambda: solve_range_clearing(net, spec)
        )
        assert builds == 1
        assert result.feasible and dict(result.state) == dict(high)

    def test_flood_sequence(self, monkeypatch):
        net = rings()
        start = compute_min_clearing(net)
        steps = [("b", F(1, 2)), ("b", 1), ("d", F(1, 3)), ("d", 1)]
        builds, state = builds_beyond_min_clear(
            monkeypatch, lambda: apply_flood_sequence(net, start, steps)
        )
        assert builds == 1
        assert dict(state) == dict(compute_max_clearing_flood(net))

    def test_trade_walk(self, monkeypatch):
        net = walk_network()
        builds, result = builds_beyond_min_clear(
            monkeypatch, lambda: optimal_creditor_positive_return(net, ("u", "v"), "w")
        )
        assert builds == 1
        assert result.rho_star == 3

    def test_trade_walks_on_corpus(self, monkeypatch):
        counts = count_builds(monkeypatch)
        rng = random.Random(808)
        walks = 0
        while walks < 10:
            net, pair, buyer = random_trade_instance(rng)
            before = counts["all"] - counts["min_clear"]
            try:
                optimal_creditor_positive_return(net, pair, buyer)
            except NoCreditorPositiveTradeError:
                continue
            assert counts["all"] - counts["min_clear"] - before == 1
            walks += 1


def walk_above_the_minimum(net, rng) -> None:
    """The least and greatest states of ``net``, each checked against a
    second route, then a range query and a flood sequence between them."""
    low = compute_min_clearing(net)
    # the walks' min-clears go top-down: check the driver's steps too
    assert dict(run_min_clearing(net).state) == dict(low)
    high = compute_max_clearing_flood(net)
    assert is_clearing_state(net, high).ok
    moving = [v for v in net.bank_ids() if low[v] != high[v]]
    if not moving:
        return
    picks = rng.sample(moving, min(2, len(moving)))
    spec = {v: ((low[v] + high[v]) / 2, high[v]) for v in picks}
    result = solve_range_clearing(net, spec)
    assert result.feasible and is_clearing_state(net, result.state).ok
    steps = [(v, F(rng.randint(0, 4), 4)) for v in picks]
    try:
        state = apply_flood_sequence(net, low, steps)
    except NotASinkComponentError:  # a pick outside a sink SCC
        return
    assert is_clearing_state(net, state).ok


class TestHeldGraphStaysFresh:
    def test_walks_on_corpus(self, monkeypatch):
        counts = check_advance_freshness(monkeypatch)
        rng = random.Random(4242)
        for _ in range(40):
            net = random_network(rng, max_banks=6, max_external=1, edge_prob=0.7)
            walk_above_the_minimum(net, rng)
        # rings that stay filled at the maximum give the reverse floods of
        # the top-down min-clears
        rings_rng = random.Random("held-rings")
        for _ in range(60):
            walk_above_the_minimum(ringed_network(rings_rng), rings_rng)
        for _ in range(30):
            net, pair, buyer = random_trade_instance(rng)
            exists_creditor_positive(net, pair, buyer)
        for _ in range(10):
            net = random_network(rng, max_banks=6, default_cost=True)
            run_min_clearing(net)
        assert counts["calls"] > 100 and counts["landed"] > 50
        assert counts["reverse"] >= 10, counts
