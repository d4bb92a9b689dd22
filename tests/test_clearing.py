"""Fixed-point map, clearing verification, and the iteration oracles."""

import random
from fractions import Fraction as F

import pytest

from netclear import (
    ClearingState,
    bottom_iterate,
    build_network,
    compute_min_clearing,
    incoming_assets,
    is_clearing_state,
    payments,
    phi,
    top_iterate,
)
from netclear.errors import DefaultCostUnsupportedError, UnknownBankError

from netclear.clearing import _inflow

from corpus import (
    ZERO_RATE_ALPHAS,
    example1,
    example2,
    example3,
    random_network,
    random_state_in_box,
)
from oracles import fraction_inflow, fraction_phi, fraction_value_at, reduced_assets


class TestAssetAccessors:
    def test_example2_incoming(self):
        net = example2()
        state = ClearingState({"v": F(3), "w": F(3)})
        assert incoming_assets(net, state, "v") == 3

    def test_isolated_bank(self):
        net = build_network(banks=[("solo", 5)], claims=[])
        state = ClearingState({"solo": F(0)})
        assert incoming_assets(net, state, "solo") == 5

    def test_example1_minimal_incoming(self):
        net = example1()
        state = ClearingState({"u": F(2), "v": F(1), "w": F(1)})
        assert incoming_assets(net, state, "u") == 2

    def test_reduced_with_half_rates(self):
        net = example2()
        # both edges paying 1 each requires assets of 1 at the debtor
        state = ClearingState({"v": F(1), "w": F(1)})
        assert reduced_assets(net, state, "v") == 1

    def test_reduced_equals_incoming_without_default_cost(self):
        rng = random.Random(7)
        net = random_network(rng)
        state = ClearingState(random_state_in_box(rng, net))
        for v in net.bank_ids():
            assert reduced_assets(net, state, v) == incoming_assets(net, state, v)

    def test_reduced_zero_rates(self):
        net = build_network(
            banks=[("a", 5, 0, 0), ("b", 0)], claims=[("a", "b", 3)]
        )
        state = ClearingState({"a": F(1), "b": F(0)})
        assert reduced_assets(net, state, "a") == 0

    def test_unknown_bank(self):
        net = example1()
        state = ClearingState({"u": F(0), "v": F(0), "w": F(0)})
        with pytest.raises(UnknownBankError):
            incoming_assets(net, state, "nope")


class TestIntegerSumsAgainstFraction:
    """Inflows, payments and in-liability totals equal their ``Fraction``
    references on seeded networks and states."""

    def test_inflow_and_payments(self):
        rng = random.Random(4242)
        for _ in range(60):
            net = random_network(rng, max_banks=8, default_cost=rng.random() < 0.5)
            for _ in range(4):
                state = random_state_in_box(rng, net)
                for v in net.bank_ids():
                    assert _inflow(net, state, v) == fraction_inflow(net, state, v)
                paid = payments(net, state)
                for claim in net.claims:
                    assert paid[claim.pair] == fraction_value_at(
                        claim.payment, state[claim.debtor]
                    )

    def test_phi(self):
        # haircut rates include 0; states and externals get odd denominators
        # so that the solvency test compares unequal denominators
        rng = random.Random(4244)
        for _ in range(120):
            net = random_network(
                rng, max_banks=8, default_cost=rng.random() < 0.7, alphas=ZERO_RATE_ALPHAS
            )
            for _ in range(4):
                state = random_state_in_box(rng, net)
                state = {
                    v: a + F(rng.randint(0, 6), rng.choice((3, 7))) for v, a in state.items()
                }
                assert phi(net, state).as_dict() == fraction_phi(net, state)
                externals = {v: F(rng.randint(0, 9), rng.choice((1, 2, 5))) for v in state}
                assert phi(net, state, externals).as_dict() == fraction_phi(
                    net, state, externals
                )

    def test_phi_at_the_solvency_border_and_zero_liabilities(self):
        # "a" owes 3 and receives 2 at this state: with its 1 external it
        # covers the total exactly, so it keeps 3 despite its haircuts; "c"
        # owes only a zero liability and "d" owes nothing
        net = build_network(
            banks=[("a", 1, "1/2", "1/3"), ("b", 0), ("c", "2/3", 0, 0), ("d", 0, 0, 0)],
            claims=[("a", "b", 3), ("b", "a", 2), ("c", "d", 0)],
        )
        for state in (
            {"a": F(0), "b": F(2), "c": F(0), "d": F(0)},
            {"a": F(3), "b": F(3, 2), "c": F(1, 5), "d": F(7)},
        ):
            assert phi(net, state).as_dict() == fraction_phi(net, state)
        assert phi(net, {"a": F(0), "b": F(2), "c": F(0), "d": F(0)})["a"] == 3
        # short of the total it keeps alpha * 1 + beta * 3/2
        assert phi(net, {"a": F(0), "b": F(3, 2), "c": F(0), "d": F(0)})["a"] == 1

    def test_total_in_on_demand(self):
        rng = random.Random(4243)
        for _ in range(40):
            net = random_network(rng, max_banks=8)
            for v in net.bank_ids():
                expected = sum((c.liability for c in net.in_claims(v)), F(0))
                assert net.total_in(v) == expected
        with pytest.raises(UnknownBankError):
            example1().total_in("nope")


class TestPhi:
    def test_example1_first_step(self):
        net = example1()
        zero = ClearingState({v: F(0) for v in net.bank_ids()})
        assert phi(net, zero).as_dict() == {"u": F(1), "v": F(0), "w": F(0)}

    def test_minimal_state_is_fixed_point(self):
        net = example3()
        state = compute_min_clearing(net)
        assert phi(net, state).as_dict() == state.as_dict()

    def test_zero_fixed_point_without_externals(self):
        net = build_network(
            banks=[("a", 0), ("b", 0)], claims=[("a", "b", 1), ("b", "a", 1)]
        )
        zero = ClearingState({"a": F(0), "b": F(0)})
        assert phi(net, zero).as_dict() == zero.as_dict()

    def test_monotone_on_random_pairs(self):
        rng = random.Random(314159)
        for _ in range(200):
            net = random_network(rng, max_banks=6)
            low = random_state_in_box(rng, net)
            high = {v: low[v] + F(rng.randint(0, 8), 4) for v in low}
            phi_low = phi(net, low)
            phi_high = phi(net, high)
            for v in net.bank_ids():
                assert phi_low[v] <= phi_high[v]


class TestIsClearingState:
    def test_example2_minimal(self):
        net = example2()
        assert is_clearing_state(net, ClearingState({"v": F(3), "w": F(3)})).ok

    def test_example2_limit_is_not_clearing(self):
        net = example2()
        check = is_clearing_state(net, ClearingState({"v": F(1), "w": F(1)}))
        assert not check.ok
        assert {v for v, _, _ in check.violations} == {"v", "w"}

    def test_example3_final(self):
        net = example3()
        assert is_clearing_state(
            net, ClearingState({"u": F(1), "v": F(5), "w": F(2), "y": F(2)})
        ).ok


class TestBottomIterate:
    def test_example1_partial_sums(self):
        # payments on u's out-edges at step 2n equal 1 - (1/2)^n
        net = example1()
        for n in (1, 2, 3, 5):
            result = bottom_iterate(net, 2 * n)
            paid = payments(net, result.state)
            assert paid[("u", "v")] == 1 - F(1, 2**n)
            assert paid[("u", "w")] == 1 - F(1, 2**n)
            assert not result.converged

    def test_dag_converges_within_n_steps(self):
        rng = random.Random(42)
        for _ in range(30):
            net = random_network(rng, max_banks=6)
            ids = net.bank_ids()
            # keep only forward edges to force acyclicity
            claims = [
                (c.debtor, c.creditor, c.liability)
                for c in net.claims
                if ids.index(c.debtor) < ids.index(c.creditor)
            ]
            dag = build_network([(v, net.bank(v).external_assets) for v in ids], claims)
            result = bottom_iterate(dag, len(ids) + 1)
            assert result.converged

    def test_example2_never_converges(self):
        net = example2()
        result = bottom_iterate(net, 400)
        assert not result.converged
        paid = payments(net, result.state)
        for value in paid.values():
            assert value < 1
        # the limit point itself is not a fixed point: solvency jumps there
        limit = ClearingState({"v": F(1), "w": F(1)})
        assert not is_clearing_state(net, limit).ok

    def test_iterates_monotone(self):
        rng = random.Random(608)
        for _ in range(20):
            net = random_network(rng, default_cost=True)
            previous = bottom_iterate(net, 1).state
            for steps in (2, 3, 5, 9):
                current = bottom_iterate(net, steps).state
                for v in net.bank_ids():
                    assert previous[v] <= current[v]
                previous = current


class TestTopIterate:
    def test_two_cycle_converges_immediately(self):
        net = build_network(
            banks=[("a", 0), ("b", 0)], claims=[("a", "b", 1), ("b", "a", 1)]
        )
        result = top_iterate(net, 5)
        assert result.converged
        assert result.state.as_dict() == {"a": F(1), "b": F(1)}

    def test_acyclic_top_equals_bottom(self):
        net = build_network(
            banks=[("a", 2), ("b", 0), ("c", 0)],
            claims=[("a", "b", 1), ("b", "c", 1)],
        )
        top = top_iterate(net, 10)
        bottom = bottom_iterate(net, 10)
        assert top.converged and bottom.converged
        assert top.state.as_dict() == bottom.state.as_dict()

    def test_trivial_bank(self):
        net = build_network(banks=[("solo", 7)], claims=[])
        result = top_iterate(net, 1)
        assert result.converged
        assert result.state["solo"] == 7

    def test_guarded_against_default_cost(self):
        net = example2()
        with pytest.raises(DefaultCostUnsupportedError):
            top_iterate(net, 10)


class TestOracleConsistency:
    def test_bottom_below_minimal_and_top_above(self):
        rng = random.Random(20220)
        for _ in range(60):
            net = random_network(rng)
            minimal = compute_min_clearing(net)
            below = bottom_iterate(net, 60).state
            above = top_iterate(net, 60).state
            for v in net.bank_ids():
                assert below[v] <= minimal[v] <= above[v]
