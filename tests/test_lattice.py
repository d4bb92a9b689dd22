"""Flood sequences, the flood maximal clearing, and range clearing."""

import random
from fractions import Fraction as F

import pytest

from netclear import (
    ClearingState,
    apply_flood_sequence,
    build_network,
    compute_max_clearing_flood,
    compute_min_clearing,
    is_clearing_state,
    solve_range_clearing,
    top_iterate,
)
from netclear.errors import (
    DefaultCostUnsupportedError,
    InvalidSpecError,
    NotAClearingStateError,
    NotASinkComponentError,
)
from netclear.lattice import (
    INFEASIBLE_CONFLICT,
    INFEASIBLE_EXCEEDS,
    INFEASIBLE_STUCK,
)

from corpus import random_network


def two_cycle():
    return build_network(
        banks=[("a", 0), ("b", 0)], claims=[("a", "b", 1), ("b", "a", 1)]
    )


def ring_with_feeders():
    """Bank u and the cycle {p, q} both feed the ring {x, y}; only the ring is
    a sink component. Every claim has liability 1 and no bank has assets."""
    return build_network(
        banks=[(v, 0) for v in ("u", "x", "y", "p", "q")],
        claims=[
            ("u", "x", 1),
            ("x", "y", 1),
            ("y", "x", 1),
            ("p", "q", 1),
            ("q", "p", 1),
            ("q", "x", 1),
        ],
    )


def flood_corpus(rng, **kwargs):
    kwargs.setdefault("max_external", 1)
    kwargs.setdefault("edge_prob", 0.7)
    kwargs.setdefault("max_banks", 5)
    return random_network(rng, **kwargs)


class TestApplyFloodSequence:
    def test_full_step_reaches_top(self):
        net = two_cycle()
        start = ClearingState({"a": F(0), "b": F(0)})
        state = apply_flood_sequence(net, start, [("a", 1)])
        assert state.as_dict() == {"a": F(1), "b": F(1)}
        assert is_clearing_state(net, state).ok

    def test_zero_fraction_is_identity(self):
        net = two_cycle()
        start = ClearingState({"a": F(0), "b": F(0)})
        state = apply_flood_sequence(net, start, [("a", 0)])
        assert state.as_dict() == start.as_dict()

    def test_half_step(self):
        net = two_cycle()
        start = ClearingState({"a": F(0), "b": F(0)})
        state = apply_flood_sequence(net, start, [("a", F(1, 2))])
        assert state.as_dict() == {"a": F(1, 2), "b": F(1, 2)}
        assert is_clearing_state(net, state).ok

    def test_rejects_non_clearing_start(self):
        net = two_cycle()
        with pytest.raises(NotAClearingStateError):
            apply_flood_sequence(net, ClearingState({"a": F(1, 3), "b": F(0)}), [])

    def test_rejects_non_sink_selector(self):
        net = build_network(
            banks=[("a", 1), ("b", 0)], claims=[("a", "b", 1)]
        )
        start = compute_min_clearing(net)
        with pytest.raises(NotASinkComponentError):
            apply_flood_sequence(net, start, [("a", 1)])

    def test_only_the_sink_ring_floods_among_its_feeders(self):
        # u and the non-sink cycle {p, q} reach the ring but are not in it
        net = ring_with_feeders()
        start = compute_min_clearing(net)
        for v in ("u", "p", "q"):
            with pytest.raises(NotASinkComponentError):
                apply_flood_sequence(net, start, [(v, 1)])
        state = apply_flood_sequence(net, start, [("x", 1)])
        assert state.as_dict() == {"u": 0, "x": 1, "y": 1, "p": 0, "q": 0}

    def test_partial_states_remain_clearing(self):
        rng = random.Random(2024)
        checked = 0
        for _ in range(200):
            net = flood_corpus(rng)
            state = compute_min_clearing(net)
            from netclear import active_graph, condense

            members = [min(c) for c in condense(active_graph(net, state))]
            if not members:
                continue
            fraction = F(rng.randint(0, 4), 4)
            result = apply_flood_sequence(net, state, [(members[0], fraction)])
            assert is_clearing_state(net, result).ok
            maximal = compute_max_clearing_flood(net)
            for v in net.bank_ids():
                assert state[v] <= result[v] <= maximal[v]
            checked += 1
        assert checked >= 10


class TestMaxClearingFlood:
    def test_two_cycle(self):
        net = two_cycle()
        assert compute_max_clearing_flood(net).as_dict() == {"a": F(1), "b": F(1)}
        assert compute_min_clearing(net).as_dict() == {"a": F(0), "b": F(0)}

    def test_equal_to_min_when_fully_paid(self):
        net = build_network(
            banks=[("u", 1), ("v", 0), ("w", 0)],
            claims=[("u", "v", 1), ("u", "w", 1), ("w", "u", 1)],
        )
        assert (
            compute_max_clearing_flood(net).as_dict()
            == compute_min_clearing(net).as_dict()
        )

    def test_acyclic_equals_minimal(self):
        net = build_network(
            banks=[("a", 2), ("b", 0), ("c", 0)],
            claims=[("a", "b", 1), ("b", "c", 1)],
        )
        assert (
            compute_max_clearing_flood(net).as_dict()
            == compute_min_clearing(net).as_dict()
        )

    def test_rejects_default_cost(self):
        net = build_network(
            banks=[("a", 1, "1/2", 1), ("b", 0)], claims=[("a", "b", 1)]
        )
        with pytest.raises(
            DefaultCostUnsupportedError,
            match="^compute_max_clearing_flood is defined for networks without default cost$",
        ):
            compute_max_clearing_flood(net)

    def test_matches_top_iterate_limit(self):
        rng = random.Random(31337)
        compared = 0
        for _ in range(150):
            net = flood_corpus(rng)
            maximal = compute_max_clearing_flood(net)
            assert is_clearing_state(net, maximal).ok
            oracle = top_iterate(net, 200)
            if oracle.converged:
                assert maximal.as_dict() == oracle.state.as_dict()
                compared += 1
            minimal = compute_min_clearing(net)
            for v in net.bank_ids():
                assert minimal[v] <= maximal[v]
        assert compared >= 50

    def test_saturation_order_insensitive(self):
        rng = random.Random(77)
        for _ in range(100):
            net = flood_corpus(rng)
            minimal = compute_min_clearing(net)
            forward = compute_max_clearing_flood(net)
            # alternative order: repeatedly flood the component with the
            # LARGEST minimum id instead of the smallest
            from netclear import active_graph, condense, solve_flood_step

            assets = minimal.as_dict()
            while True:
                g = active_graph(net, assets)
                choices = condense(g)
                if not choices:
                    break
                step = solve_flood_step(g, choices[-1])
                for member, d in step.direction.items():
                    assets[member] += step.scale * d
            assert assets == forward.as_dict()


class TestRangeClearing:
    def test_two_cycle_mid_interval(self):
        net = two_cycle()
        result = solve_range_clearing(net, {"a": ("1/2", "7/10")})
        assert result.feasible
        assert result.state["a"] == F(1, 2)
        assert is_clearing_state(net, result.state).ok

    def test_above_lattice_top(self):
        net = two_cycle()
        result = solve_range_clearing(net, {"a": (2, 3)})
        assert not result.feasible
        assert result.witness == "a"
        assert result.reason == INFEASIBLE_STUCK

    def test_minimum_hits_zero_targets(self):
        net = two_cycle()
        spec = {"a": (0, 0), "b": (0, 0)}
        result = solve_range_clearing(net, spec)
        assert result.feasible
        assert result.state.as_dict() == {"a": F(0), "b": F(0)}

    def test_minimal_exceeds_interval(self):
        net = build_network(banks=[("a", 3), ("b", 0)], claims=[("a", "b", 1)])
        result = solve_range_clearing(net, {"a": (0, 1)})
        assert not result.feasible
        assert result.reason == INFEASIBLE_EXCEEDS

    def test_conflict_between_targets(self):
        # one circulation parameter moves a and b together; demanding a high
        # and b low is contradictory
        net = two_cycle()
        spec = {"a": ("3/4", 1), "b": (0, "1/4")}
        result = solve_range_clearing(net, spec)
        assert not result.feasible
        assert result.reason == INFEASIBLE_CONFLICT
        assert result.witness == "a"
        assert result.conflicting == "b"

    def test_stuck_when_the_target_only_feeds_a_ring(self):
        result = solve_range_clearing(ring_with_feeders(), {"u": (1, 1)})
        assert not result.feasible
        assert result.reason == INFEASIBLE_STUCK and result.witness == "u"

    def test_invalid_interval(self):
        net = two_cycle()
        with pytest.raises(InvalidSpecError):
            solve_range_clearing(net, {"a": (1, 0)})

    @pytest.mark.parametrize("lo, hi", [("abc", 1), (0, "1/0")])
    def test_unreadable_bound_is_a_spec_error(self, lo, hi):
        with pytest.raises(InvalidSpecError, match="not an exact number") as caught:
            solve_range_clearing(two_cycle(), {"a": (lo, hi)})
        assert isinstance(caught.value, ValueError)

    def test_rejects_default_cost(self):
        net = build_network(
            banks=[("a", 1, "1/2", 1), ("b", 0)], claims=[("a", "b", 1)]
        )
        with pytest.raises(DefaultCostUnsupportedError):
            solve_range_clearing(net, {"a": (0, 1)})

    def test_feasible_instances_from_sampled_states(self):
        rng = random.Random(555)
        solved = 0
        for _ in range(150):
            net = flood_corpus(rng)
            target_state = _random_reachable_state(rng, net)
            picks = rng.sample(net.bank_ids(), k=min(2, len(net.bank_ids())))
            spec = {v: (target_state[v], target_state[v] + F(1, 3)) for v in picks}
            result = solve_range_clearing(net, spec)
            assert result.feasible  # the sampled state is a witness
            assert is_clearing_state(net, result.state).ok
            for v in picks:
                lo, hi = spec[v]
                assert lo <= result.state[v] <= hi
            solved += 1
        assert solved == 150


def _random_reachable_state(rng, net):
    """A genuine clearing state sampled by random partial floods."""
    from netclear import active_graph, condense, solve_flood_step

    assets = compute_min_clearing(net).as_dict()
    for _ in range(rng.randint(0, 3)):
        g = active_graph(net, assets)
        choices = condense(g)
        if not choices:
            break
        step = solve_flood_step(g, rng.choice(choices))
        fraction = F(rng.randint(0, 4), 4)
        for member, d in step.direction.items():
            assets[member] += fraction * step.scale * d
    return assets
