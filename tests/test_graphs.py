"""Active graph, strongly connected components, reachability, and flood
detection."""

import random
from fractions import Fraction as F

import pytest

from netclear import (
    ClearingState,
    active_graph,
    build_network,
    condense,
    find_flood_component,
    reachable_from,
)
from netclear.errors import UnknownBankError
from netclear.graphs import refresh_banks, strongly_connected

from corpus import example3, random_network, random_state_in_box


def active_pairs(g):
    return {(d, c) for d, creditors in g.edges.items() for c in creditors}


def zero_state(net):
    return ClearingState({v: F(0) for v in net.bank_ids()})


class TestActiveGraph:
    def test_example3_initial_edges(self):
        net = example3()
        g = active_graph(net, zero_state(net))
        # v pays w first, so v -> y is not active; w owes nothing
        assert g.edges == {"u": {"v": 1}, "v": {"w": 1}, "w": {}, "y": {"v": 1}}

    def test_solvent_banks_have_no_active_edges(self):
        net = build_network(banks=[("a", 5), ("b", 0)], claims=[("a", "b", 2)])
        g = active_graph(net, ClearingState({"a": F(5), "b": F(2)}))
        assert active_pairs(g) == set()

    def test_example3_phase_change_at_two(self):
        net = example3()
        state = ClearingState({"u": F(1), "v": F(2), "w": F(2), "y": F(0)})
        g = active_graph(net, state)
        assert g.edges["v"] == {"y": 1}

    def test_example3_next_borders(self):
        # the lowest border strictly above the assets over active out-claims;
        # w owes nothing and gets no entry
        net = example3()
        assert active_graph(net, zero_state(net)).borders == {"u": 2, "v": 2, "y": 2}
        state = ClearingState({"u": F(1), "v": F(2), "w": F(2), "y": F(0)})
        assert active_graph(net, state).borders == {"u": 2, "v": 4, "y": 2}

    def test_solvent_banks_have_no_next_border(self):
        net = build_network(banks=[("a", 5), ("b", 0)], claims=[("a", "b", 2)])
        g = active_graph(net, ClearingState({"a": F(2), "b": F(2)}))
        assert g.borders == {}


class TestRefreshBanks:
    def test_partial_refresh_equals_fresh_build(self):
        # move a random subset of banks and refresh only those; the states
        # lie on a quarter grid, so banks often land exactly on a border
        rng = random.Random(8128)
        for _ in range(300):
            net = random_network(rng, max_banks=6)
            state = random_state_in_box(rng, net)
            g = active_graph(net, state)
            moved = [v for v in net.bank_ids() if rng.random() < 0.5]
            state.update((v, x) for v, x in random_state_in_box(rng, net).items() if v in moved)
            refresh_banks(g, moved)
            fresh = active_graph(net, state)
            assert (g.edges, g.borders) == (fresh.edges, fresh.borders)


def brute_force_reach(nodes, edges):
    reach = {v: {v} for v in nodes}
    changed = True
    while changed:
        changed = False
        for a, b in edges:
            new = reach[b] - reach[a]
            if new:
                reach[a] |= new
                changed = True
    return reach


def brute_force_sccs(nodes, edges):
    reach = brute_force_reach(nodes, edges)
    components = set()
    for v in nodes:
        members = frozenset(u for u in nodes if u in reach[v] and v in reach[u])
        components.add(members)
    return components


def brute_force_flood_components(nodes, edges, source=None):
    """The non-singleton sink SCCs reachable from ``source`` (from anywhere
    when None), sorted by smallest member id."""
    reach = brute_force_reach(nodes, edges)
    components = brute_force_sccs(nodes, edges)
    if source is not None:
        components = {c for c in components if c <= reach[source]}
    sinks = [
        comp
        for comp in components
        if len(comp) > 1 and all(b in comp for a, b in edges if a in comp)
    ]
    return tuple(sorted(sinks, key=min))


class TestCondense:
    def test_example3_initial_all_singletons(self):
        net = example3()
        assert condense(active_graph(net, zero_state(net))) == ()

    def test_example3_flooded_component(self):
        net = example3()
        state = ClearingState({"u": F(1), "v": F(2), "w": F(2), "y": F(0)})
        g = active_graph(net, state)
        assert condense(g) == (frozenset({"v", "y"}),)
        # u reaches the ring; w has no active out-edge and reaches nothing
        assert condense(g, "u") == (frozenset({"v", "y"}),)
        assert condense(g, "w") == ()

    def test_empty_edge_set_gives_singletons(self):
        net = build_network(banks=[("a", 1), ("b", 1)], claims=[])
        assert condense(active_graph(net, ClearingState({"a": F(0), "b": F(0)}))) == ()

    def test_against_brute_force_on_random_graphs(self):
        # the one SCC routine partitions the nodes into the true SCCs
        rng = random.Random(11235)
        for _ in range(200):
            net = random_network(rng, max_banks=5)
            state = ClearingState(random_state_in_box(rng, net))
            g = active_graph(net, state)
            nodes = g.net.bank_ids()
            sccs = strongly_connected(nodes, g.edges.__getitem__)
            assert sum(map(len, sccs)) == len(nodes)
            assert {frozenset(c) for c in sccs} == brute_force_sccs(nodes, active_pairs(g))

    def test_rooted_against_brute_force_on_random_graphs(self):
        rng = random.Random(8191)
        found = 0
        for _ in range(200):
            net = random_network(rng, max_banks=6, max_external=1, edge_prob=0.6)
            state = ClearingState(random_state_in_box(rng, net))
            g = active_graph(net, state)
            edges = active_pairs(g)
            nodes = g.net.bank_ids()
            for source in (None, *nodes):
                expected = brute_force_flood_components(nodes, edges, source)
                assert condense(g, source) == expected
                assert find_flood_component(g, source) == (
                    expected[0] if expected else None
                )
                found += bool(expected)
            with pytest.raises(UnknownBankError):
                condense(g, "zz")
            with pytest.raises(UnknownBankError):
                find_flood_component(g, "zz")
        assert found >= 100

    def test_component_order_by_min_id(self):
        net = build_network(
            banks=[("d", 0), ("c", 0), ("b", 0), ("a", 0)],
            claims=[("d", "c", 1), ("c", "d", 1), ("b", "a", 1), ("a", "b", 1)],
        )
        assert [min(c) for c in condense(active_graph(net, zero_state(net)))] == ["a", "c"]


class TestReachability:
    def test_example3_forward_reach_from_u(self):
        net = example3()
        g = active_graph(net, zero_state(net))
        assert reachable_from(g, "u") == {"u", "v", "w"}

    def test_no_active_out_edges(self):
        net = build_network(banks=[("a", 5), ("b", 0)], claims=[("a", "b", 2)])
        g = active_graph(net, ClearingState({"a": F(5), "b": F(2)}))
        assert reachable_from(g, "a") == {"a"}

    def test_three_cycle_symmetric(self):
        net = build_network(
            banks=[("a", 0), ("b", 0), ("c", 0)],
            claims=[("a", "b", 1), ("b", "c", 1), ("c", "a", 1)],
        )
        g = active_graph(net, zero_state(net))
        for v in "abc":
            assert reachable_from(g, v) == {"a", "b", "c"}

    def test_unknown_bank(self):
        net = example3()
        g = active_graph(net, zero_state(net))
        with pytest.raises(UnknownBankError):
            reachable_from(g, "zz")


class TestFindFloodComponent:
    def test_example3_after_phase_change(self):
        net = example3()
        state = ClearingState({"u": F(1), "v": F(2), "w": F(2), "y": F(0)})
        g = active_graph(net, state)
        assert find_flood_component(g, "v") == frozenset({"v", "y"})

    def test_example3_initially_none(self):
        net = example3()
        g = active_graph(net, zero_state(net))
        assert find_flood_component(g, "u") is None

    def test_isolated_solvent_bank(self):
        net = build_network(banks=[("a", 3)], claims=[])
        g = active_graph(net, ClearingState({"a": F(3)}))
        assert find_flood_component(g, "a") is None

    def test_none_iff_all_reachable_sinks_singleton(self):
        rng = random.Random(777)
        for _ in range(150):
            net = random_network(rng, max_banks=5)
            state = ClearingState(random_state_in_box(rng, net))
            g = active_graph(net, state)
            edges = active_pairs(g)
            sccs = brute_force_sccs(g.net.bank_ids(), edges)
            sinks = {c for c in sccs if all(b in c for a, b in edges if a in c)}
            for v in net.bank_ids():
                found = find_flood_component(g, v)
                reach = reachable_from(g, v)
                nonsingleton = [c for c in sinks if c <= reach and len(c) > 1]
                if found is None:
                    assert not nonsingleton
                else:
                    assert found in nonsingleton
                    assert min(found) == min(min(c) for c in nonsingleton)
