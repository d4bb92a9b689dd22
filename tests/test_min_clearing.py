"""The minimal-clearing driver: golden examples, surgery, steps, invariants."""

import random
from fractions import Fraction as F
from math import lcm

import pytest

from netclear import (
    FloodStep,
    active_graph,
    adjust_default_cost,
    bottom_iterate,
    build_network,
    compute_min_clearing,
    is_clearing_state,
    payments,
    rewire_solvent_bank,
    run_min_clearing,
    solve_flood_step,
    solve_increase_step,
    top_iterate,
)
from netclear.errors import NotSolventError
from netclear.model import Bank, assemble

from corpus import (
    HAIRCUT_ALPHAS,
    ZERO_RATE_ALPHAS,
    example1,
    example2,
    example3,
    random_network,
    random_state_in_box,
)
from graph_checks import record_steps
from oracles import (
    dense_solve_linear_system,
    dense_unit_left_nullspace,
    fraction_advance,
    fraction_border_scale,
    fraction_original_inflow,
    next_border_delta,
)


def step_slopes(step):
    """An increase step's exact response per unit of injection."""
    return {u: F(rate, step.den) for u, rate in step.rates.items()}


class TestGoldenExamples:
    def test_example1(self):
        run = run_min_clearing(example1(), check_invariant=True)
        assert run.state.as_dict() == {"u": F(2), "v": F(1), "w": F(1)}
        assert all(p == 1 for p in payments(example1(), run.state).values())

    def test_example2(self):
        net = example2()
        run = run_min_clearing(net, check_invariant=True)
        assert run.state.as_dict() == {"v": F(3), "w": F(3)}
        assert all(p == 2 for p in payments(net, run.state).values())

    def test_example3_with_trace(self, monkeypatch):
        net = example3()
        steps = record_steps(monkeypatch)
        run = run_min_clearing(net, check_invariant=True)
        assert run.state.as_dict() == {"u": F(1), "v": F(5), "w": F(2), "y": F(2)}
        assert payments(net, run.state) == {
            ("u", "v"): F(1),
            ("v", "w"): F(2),
            ("v", "y"): F(2),
            ("y", "v"): F(2),
        }
        floods = [step for step in steps if isinstance(step, FloodStep)]
        assert len(floods) == 1 and run.flood_count == 1
        assert run.step_count == len(steps)
        flood = floods[0]
        assert flood.component == frozenset({"v", "y"})
        assert flood.scale == 2
        assert flood.direction == {"v": F(1), "y": F(1)}


class TestAdjustDefaultCost:
    def test_identity_without_default_cost(self):
        net = example1()
        adj = adjust_default_cost(net)
        assert adj.network is net
        assert not adj.auxiliary_map

    def test_example2_gadgets(self):
        net = example2()
        adj = adjust_default_cost(net)
        assert adj.auxiliary_map.keys() == {"v", "w"}
        splitter, sink = adj.auxiliary_map["v"]
        assert adj.network.bank(splitter).external_assets == 0
        assert adj.network.claim(splitter, sink).liability == 1
        assert adj.network.claim(splitter, "v").liability == 1
        # v's external target halves, incoming claims rerouted to the splitter
        assert adj.targets["v"] == F(1, 2)
        assert adj.network.claim("w", splitter).liability == 2
        assert not adj.network.has_claim("w", "v")
        for bank in adj.network.banks.values():
            assert bank.alpha == 1 and bank.beta == 1

    def test_zero_rate_bank_gets_a_sink_gadget(self, monkeypatch):
        # a (alpha = beta = 0) turns solvent once c pays it; until then its
        # splitter sends everything to the sink and a pays nothing
        from netclear import minimal

        net = build_network(
            banks=[("a", 1, 0, 0), ("b", 0), ("c", 3)],
            claims=[("a", "b", 2), ("c", "a", 1), ("c", "b", 2)],
        )
        adj = adjust_default_cost(net)
        splitter, sink = adj.auxiliary_map["a"]
        assert [c.pair for c in adj.network.out_claims(splitter)] == [(splitter, sink)]
        assert adj.network.claim(splitter, sink).liability == 2
        assert [c.pair for c in adj.network.out_claims("a")] == [("a", "b")]
        assert adj.network.has_claim("c", splitter) and adj.targets["a"] == 0

        # a keeps its out-claims in the working network until it is rewired
        paid_unrewired = []
        original_advance = minimal.advance

        def watched(g, rates, scale):
            original_advance(g, rates, scale)
            paid_unrewired.extend(
                c.payment.value_at(g.assets["a"]) for c in g.net.out_claims("a")
            )

        monkeypatch.setattr(minimal, "advance", watched)
        run = run_min_clearing(net, check_invariant=True)
        assert paid_unrewired and not any(paid_unrewired)
        assert run.state.as_dict() == {"a": F(2), "b": F(4), "c": F(3)}  # a solvent: rewired
        others = _enumerate_fixed_points(net)
        assert run.state.as_dict() == {v: min(o[v] for o in others) for v in net.bank_ids()}


class TestFloodStep:
    def test_example3_flood(self):
        net = example3()
        state = {"u": F(1), "v": F(2), "w": F(2), "y": F(0)}
        step = solve_flood_step(active_graph(net, state), frozenset({"v", "y"}))
        assert step.direction == {"v": F(1), "y": F(1)}
        assert step.scale == 2

    def test_symmetric_three_cycle(self):
        net = build_network(
            banks=[("a", 0), ("b", 0), ("c", 0)],
            claims=[("a", "b", 1), ("b", "c", 1), ("c", "a", 1)],
        )
        state = {v: F(0) for v in "abc"}
        step = solve_flood_step(active_graph(net, state), frozenset("abc"))
        assert step.scale == 1
        assert all(d == 1 for d in step.direction.values())

    def test_scale_binds_at_smallest_border(self):
        # 2-cycle where b also owes an inactive, lower-priority claim: the
        # binding border is b's class boundary at 1, not the cycle liability
        net = build_network(
            banks=[("a", 0), ("b", 0), ("z", 0)],
            claims=[("a", "b", 4), ("b", "a", 1), ("b", "z", 3)],
            schemes={"b": {"type": "edge_ranking", "order": ["a", "z"]}},
        )
        state = {v: F(0) for v in ("a", "b", "z")}
        step = solve_flood_step(active_graph(net, state), frozenset({"a", "b"}))
        assert step.direction == {"a": F(1), "b": F(1)}
        assert step.scale == 1
        assert step.scale == _line_search_scale(net, state, step)
        after = {v: state[v] + step.scale * step.direction.get(v, F(0)) for v in state}
        assert is_clearing_state(net, after).ok

    def test_scale_matches_line_search_oracle(self):
        rng = random.Random(4321)
        compared = 0
        for _ in range(200):
            net = random_network(rng, max_banks=5, max_external=1, edge_prob=0.7)
            state = compute_min_clearing(net).as_dict()
            from netclear import condense

            g = active_graph(net, state)
            for comp in condense(g):
                step = solve_flood_step(g, comp)
                assert step.scale == _line_search_scale(net, state, step)
                compared += 1
        assert compared >= 5

    def test_flood_preserves_clearing(self):
        # mostly cash-free networks so that insolvent cycles survive into the
        # minimal state and stay floodable
        rng = random.Random(9000)
        seen = 0
        for _ in range(300):
            net = random_network(rng, max_banks=5, max_external=1, edge_prob=0.7)
            state = compute_min_clearing(net)
            from netclear import find_flood_component

            g = active_graph(net, state)
            for v in net.bank_ids():
                comp = find_flood_component(g, v)
                if comp is None:
                    continue
                step = solve_flood_step(g, comp)
                after = dict(state)
                for member, d in step.direction.items():
                    after[member] += step.scale * d
                assert is_clearing_state(net, after).ok
                seen += 1
                break
        assert seen >= 10


class TestIncreaseStep:
    def test_example3_insert_at_u(self):
        net = example3()
        state = {v: F(0) for v in net.bank_ids()}
        step = solve_increase_step(active_graph(net, state), "u", F(1))
        assert step_slopes(step) == {"u": F(1), "v": F(1), "w": F(1)}
        assert step.delta == 1

    def test_example3_insert_at_v_hits_breakpoint(self):
        net = example3()
        state = {"u": F(1), "v": F(1), "w": F(1), "y": F(0)}
        step = solve_increase_step(active_graph(net, state), "v", F(2))
        assert step.delta == 1  # border of (v, w) at assets 2

    def test_no_active_out_edges(self):
        net = example3()
        state = {"u": F(1), "v": F(4), "w": F(2), "y": F(2)}
        step = solve_increase_step(active_graph(net, state), "v", F(1))
        assert step_slopes(step) == {"v": F(1)}
        assert step.delta == 1

    def test_singular_response_when_a_ring_is_reachable(self):
        # past v's border at 2 the ring {v, y} is a non-singleton sink SCC
        # reachable from u and from v, but not from w
        net = example3()
        state = {"u": F(1), "v": F(2), "w": F(2), "y": F(0)}
        g = active_graph(net, state)
        assert solve_increase_step(g, "u", F(1)) is None
        assert solve_increase_step(g, "v", F(1)) is None
        assert step_slopes(solve_increase_step(g, "w", F(1))) == {"w": F(1)}


class TestStepArithmetic:
    """``border_scale`` and ``advance`` agree with plain ``Fraction``
    arithmetic on random states: the same scale, the same assets and the
    same landed banks, for a response's integer rates over its common
    denominator, for ``Fraction`` rates and for rates that tie, on graphs
    of right slopes and on ``left`` graphs, whose borders lie below."""

    @staticmethod
    def random_state(rng, net):
        state = random_state_in_box(rng, net)
        for v in state:
            if rng.random() < 0.5:
                state[v] += F(rng.randint(0, 5), rng.choice((3, 7, 11)))
        return state

    @staticmethod
    def tied_rates(rng, g, state):
        """Integer rates under which a random set of banks reaches its
        borders at the same scale, beside zero, negative and slower rates."""
        banks = sorted(g.borders)
        tied = rng.sample(banks, rng.randint(1, len(banks)))
        room = {u: g.borders[u] - state[u] for u in tied}
        den = lcm(*(x.denominator for x in room.values()))
        multiple = rng.randint(1, 3)
        rates = {u: int(x * den) * multiple for u, x in room.items()}
        for u in state:
            if u not in rates:
                rates[u] = rng.choice((0, -1, 1))
        return rates

    def test_against_fraction_reference(self, monkeypatch):
        from netclear import minimal
        from netclear.minimal import advance, border_scale

        refreshed = []
        refresh = minimal.refresh_banks

        def recorded(g, banks):
            refreshed.append(list(banks))
            refresh(g, banks)

        monkeypatch.setattr(minimal, "refresh_banks", recorded)
        rng = random.Random(1313)
        seen = {"response": 0, "den_above_1": 0, "limit_binds": 0, "ties": 0, "left": 0}
        for trial in range(800):
            net = random_network(rng, max_banks=8)
            state = self.random_state(rng, net)
            kind = trial % 4
            g = active_graph(net, state, left=kind == 3)
            if not g.borders:
                continue
            limit = F(rng.randint(1, 40), rng.randint(1, 9)) if rng.random() < 0.6 else None
            if kind == 0:
                v = rng.choice(sorted(state))
                budget = limit or F(1)
                step = solve_increase_step(g, v, budget)
                if step is None:
                    continue
                seen["response"] += 1
                seen["den_above_1"] += step.den > 1
                assert step.den > 0 and all(type(r) is int for r in step.rates.values())
                slopes = step_slopes(step)
                assert step.delta == fraction_border_scale(g, slopes, budget)
                assert step.scale == step.delta / step.den
                rates, scale = step.rates, step.scale
                expected, landed = fraction_advance(g, slopes, step.delta)
            else:
                if kind == 1 or (kind == 3 and trial % 8 == 3):
                    rates = {
                        u: F(rng.randint(-3, 6), rng.randint(1, 5)) for u in state
                    }
                else:
                    rates = self.tied_rates(rng, g, state)
                scale = border_scale(g, rates, limit)
                assert scale == fraction_border_scale(g, rates, limit)
                if scale is None:
                    continue
                assert type(scale) is F
                expected, landed = fraction_advance(g, rates, scale)
                seen["left"] += bool(g.left and landed)
            seen["limit_binds"] += not landed
            seen["ties"] += len(landed) > 1
            refreshed.clear()
            advance(g, rates, scale)
            assert g.assets is state and state == expected
            assert all(type(x) is F for x in state.values())
            assert refreshed == [landed]
        assert all(count >= 50 for count in seen.values()), seen


    def test_gadget_ids_avoid_taken_names(self):
        # v's gadget names v__s and v__t are banks already, so the gadget
        # takes v__s_ and v__t_; v defaults (1 + 2 < 4) and keeps a third of
        # its external assets and half of the 2 that v__s pays it
        net = build_network(
            banks=[("v", 1, "1/3", "1/2"), ("v__s", 2), ("v__t", 0)],
            claims=[("v__s", "v", 2), ("v", "v__t", 4)],
        )
        adj = adjust_default_cost(net)
        assert adj.auxiliary_map == {"v": ("v__s_", "v__t_")}
        assert adj.network.has_claim("v__s", "v__s_")
        run = run_min_clearing(net, check_invariant=True)
        assert is_clearing_state(net, run.state).ok
        oracle = bottom_iterate(net, 10)
        assert oracle.converged
        assert run.state.as_dict() == oracle.state.as_dict()
        assert run.state.as_dict() == {"v": F(4, 3), "v__s": F(2), "v__t": F(4, 3)}


class TestRewiring:
    def test_not_solvent_rejected(self):
        net = example2()
        adj = adjust_default_cost(net)
        state = {v: F(0) for v in adj.network.bank_ids()}
        with pytest.raises(NotSolventError):
            rewire_solvent_bank(adj, state, "v")

    def test_rewire_edits_the_state_in_place(self):
        # a's external assets cover its liability at the zero state, the
        # fixed point before any injection: the rewire pops a's gadget from
        # the state and from auxiliary_map and leaves a fixed point behind
        net = build_network(
            banks=[("a", 3, "1/2", "1/2"), ("b", 0)],
            claims=[("a", "b", 2)],
        )
        adj = adjust_default_cost(net)
        state = {v: F(0) for v in adj.network.bank_ids()}
        assert rewire_solvent_bank(adj, state, "a") is None
        assert state == {"a": F(3), "b": F(0)} and adj.auxiliary_map == {}
        assert adj.targets == {"a": F(3), "b": F(2)} and adj.injected == {"a": F(3), "b": F(0)}
        assert is_clearing_state(adj.network, state, externals=adj.injected).ok
        with pytest.raises(NotSolventError, match="not an unrewired defaulting bank"):
            rewire_solvent_bank(adj, state, "a")

    def test_solvent_from_the_start(self):
        # a's external assets already cover its liabilities; with default
        # rates below 1 it still pays in full
        net = build_network(
            banks=[("a", 3, "1/2", "1/2"), ("b", 0)],
            claims=[("a", "b", 2)],
        )
        state = compute_min_clearing(net)
        assert state.as_dict() == {"a": F(3), "b": F(2)}

    def test_splitter_retired_while_serving_as_source(self, monkeypatch):
        # a's rewiring leaves an injection target on z's splitter; flooding
        # the {z__s, z, e} cycle from that splitter makes z solvent, which
        # retires the splitter mid-iteration. The driver must re-pick.
        net = build_network(
            banks=[("a", 1, "1/2", 1), ("z", 0, "1/2", 1), ("e", 0)],
            claims=[("a", "z", 1), ("z", "e", 3), ("e", "z", 2)],
        )
        steps = record_steps(monkeypatch)
        run = run_min_clearing(net, check_invariant=True)
        assert run.state.as_dict() == {"a": F(1), "z": F(3), "e": F(3)}
        floods = [step for step in steps if isinstance(step, FloodStep)]
        assert len(floods) == 1 and run.flood_count == 1
        assert floods[0].scale == 2
        assert is_clearing_state(net, run.state).ok

    def test_rewire_matches_bottom_iteration_on_chain(self):
        # default cost only at the solvent head of a 2-bank chain
        net = build_network(
            banks=[("a", 2, "1/2", "1/2"), ("b", 0)],
            claims=[("a", "b", 2)],
        )
        minimal = compute_min_clearing(net)
        oracle = bottom_iterate(net, 10)
        assert oracle.converged
        assert minimal.as_dict() == oracle.state.as_dict()

    def test_splitter_ledger_matches_the_claim_sum(self, monkeypatch):
        # original_solvent reads a defaulting bank's inflow off its
        # splitter's assets, injections and targets; every decision
        # run_min_clearing takes must match the sum over the bank's original
        # claims
        from netclear import minimal

        outcomes = {True: 0, False: 0}

        def checked(adj, assets, u, _original=minimal.original_solvent):
            solvent = _original(adj, assets, u)
            inflow = fraction_original_inflow(adj, assets, u)
            original = adj.original
            assert solvent == (
                original.bank(u).external_assets + inflow >= original.total_out(u)
            )
            outcomes[solvent] += 1
            return solvent

        monkeypatch.setattr(minimal, "original_solvent", checked)
        rng = random.Random(29)
        for i in range(2000):
            alphas = ZERO_RATE_ALPHAS if i % 2 else HAIRCUT_ALPHAS
            run_min_clearing(random_network(rng, default_cost=True, alphas=alphas))
        assert outcomes[True] >= 2000 and outcomes[False] >= 10000


class TestMinClearingProperties:
    def test_output_is_exact_fixed_point(self):
        rng = random.Random(123)
        for _ in range(150):
            net = random_network(rng, default_cost=rng.random() < 0.5)
            state = compute_min_clearing(net)
            assert is_clearing_state(net, state).ok
            for v in net.bank_ids():  # the lattice box
                assert 0 <= state[v] <= net.bank(v).external_assets + net.total_in(v)

    def test_invariant_enabled_runs(self):
        rng = random.Random(321)
        for _ in range(60):
            net = random_network(rng, default_cost=rng.random() < 0.5)
            run_min_clearing(net, check_invariant=True)

    def test_bounded_by_oracles(self):
        rng = random.Random(456)
        for _ in range(80):
            net = random_network(rng)
            minimal = compute_min_clearing(net)
            below = bottom_iterate(net, 50).state
            above = top_iterate(net, 50).state
            for v in net.bank_ids():
                assert below[v] <= minimal[v] <= above[v]

    def test_monotone_in_external_assets(self):
        rng = random.Random(654)
        for _ in range(60):
            net = random_network(rng, max_banks=5)
            base = compute_min_clearing(net)
            bumped_id = rng.choice(net.bank_ids())
            banks = [
                Bank(v, bank.external_assets + 1, bank.alpha, bank.beta)
                if v == bumped_id
                else bank
                for v, bank in net.banks.items()
            ]
            bumped = assemble(banks, net.claims)
            raised = compute_min_clearing(bumped)
            for v in net.bank_ids():
                assert raised[v] >= base[v]
            assert raised[bumped_id] > base[bumped_id]

    def test_minimal_among_all_enumerated_fixed_points(self):
        # exhaustive phase enumeration on tiny default-cost networks: the
        # computed state must sit below every clearing state that exists
        rng = random.Random(777_000)
        enumerated_total = 0
        for _ in range(60):
            net = random_network(
                rng,
                max_banks=3,
                max_liability=3,
                max_external=2,
                default_cost=rng.random() < 0.7,
                alphas=(F(0), F(1, 2), F(1)),
                edge_prob=0.7,
            )
            minimal = compute_min_clearing(net)
            others = _enumerate_fixed_points(net)
            assert others, "enumeration must at least rediscover the minimum"
            assert any(dict(minimal) == other for other in others)
            for other in others:
                for v in net.bank_ids():
                    assert minimal[v] <= other[v]
            enumerated_total += len(others)
        assert enumerated_total >= 60

    def test_step_budget(self, monkeypatch):
        # floods + increases stay within 2n + total borders + m, and the
        # counts are those of the steps the run applied
        rng = random.Random(987)
        steps = record_steps(monkeypatch)
        for _ in range(60):
            net = random_network(rng, default_cost=rng.random() < 0.4)
            steps.clear()
            run = run_min_clearing(net)
            assert run.step_count == len(steps)
            assert run.flood_count == sum(isinstance(step, FloodStep) for step in steps)
            adj_net = adjust_default_cost(net).network
            n = len(adj_net.bank_ids())
            m = len(adj_net.claims)
            borders = sum(len(c.payment.borders) - 1 for c in adj_net.claims)
            assert run.step_count <= 2 * n + borders + m


class TestActiveGraphReuse:
    def test_one_build_per_step(self, monkeypatch):
        from netclear import minimal

        # a corpus network with floods, increases and rewires of defaulters,
        # and one whose first working network also rewires before any step
        rng = random.Random(184)
        nets = [random_network(rng, max_banks=8, default_cost=True)]
        while len(nets) < 2:
            net = random_network(rng, max_banks=8, default_cost=True, alphas=ZERO_RATE_ALPHAS)
            adj = adjust_default_cost(net)
            start = {v: F(0) for v in adj.network.bank_ids()}
            run = run_min_clearing(net)
            if run.flood_count and any(
                minimal.original_solvent(adj, start, u) for u in adj.auxiliary_map
            ):
                nets.append(net)
        # every call in order: a build must be followed by a call that reads
        # its graph before the next build or the end of the run
        events = []
        uses = ("find_flood_component", "solve_increase_step", "solve_flood_step")
        for name in ("active_graph", "rewire_solvent_bank") + uses:

            def counted(*args, _name=name, _original=getattr(minimal, name)):
                events.append(_name)
                return _original(*args)

            monkeypatch.setattr(minimal, name, counted)
        for net in nets:
            events.clear()
            run = run_min_clearing(net)
            floods, increases = run.flood_count, run.step_count - run.flood_count
            rewires = events.count("rewire_solvent_bank")
            assert floods and increases and rewires
            # one build per working network that takes a step, refreshed in
            # place between steps, and an SCC pass only where a flood is
            # looked for
            builds = [i for i, name in enumerate(events) if name == "active_graph"]
            for i, j in zip(builds, builds[1:] + [len(events)]):
                assert any(name in uses for name in events[i + 1 : j]), "a build no step read"
            assert len(builds) <= rewires + 1
            assert events.count("find_flood_component") <= floods + rewires + 1
            assert dict(run.state) == dict(run_min_clearing(net, check_invariant=True).state)
        assert events[0] == "rewire_solvent_bank"

    def test_unrefreshed_border_fails_loudly(self, monkeypatch):
        """Without refreshes a bank that landed keeps the border it sits on,
        so the next step finds no room before it: ``border_scale`` raises,
        naming the right side, instead of stepping by zero."""
        from netclear import minimal
        from netclear.errors import InternalInvariantError

        monkeypatch.setattr(minimal, "refresh_banks", lambda g, banks: None)
        with pytest.raises(InternalInvariantError, match="stale right graph"):
            run_min_clearing(example3())

    def test_stale_graph_rejected_under_invariant_check(self, monkeypatch):
        from netclear import graphs, minimal
        from netclear.errors import InternalInvariantError

        builds = []

        def first_build_stale(net, state):
            g = graphs.active_graph(net, state)
            builds.append(g)
            if len(builds) > 1:
                return g
            # drop every active edge: no flood is found, so the increase
            # step would run on this stale graph
            return graphs.ActiveGraph(
                g.net, g.assets, edges={v: {} for v in net.bank_ids()}, borders={}
            )

        monkeypatch.setattr(minimal, "active_graph", first_build_stale)
        with pytest.raises(InternalInvariantError, match="stale active graph"):
            run_min_clearing(example3(), check_invariant=True)

    def test_stale_slope_rejected_under_invariant_check(self, monkeypatch):
        from netclear import graphs, minimal
        from netclear.errors import InternalInvariantError

        builds = []

        def first_build_wrong_slope(net, state):
            g = graphs.active_graph(net, state)
            builds.append(g)
            if len(builds) > 1:
                return g
            # the right creditors, but one slope halved: only a comparison of
            # the slopes tells this graph from a fresh one
            debtor = min(v for v, active in g.edges.items() if active)
            active = dict(g.edges[debtor])
            creditor = min(active)
            active[creditor] /= 2
            edges = {**g.edges, debtor: active}
            return graphs.ActiveGraph(g.net, g.assets, edges, g.borders)

        monkeypatch.setattr(minimal, "active_graph", first_build_wrong_slope)
        with pytest.raises(InternalInvariantError, match="stale active graph"):
            run_min_clearing(example3(), check_invariant=True)

    def test_stale_border_rejected_under_invariant_check(self, monkeypatch):
        from netclear import graphs, minimal
        from netclear.errors import InternalInvariantError

        builds = []

        def first_build_wrong_border(net, state):
            g = graphs.active_graph(net, state)
            builds.append(g)
            if len(builds) > 1:
                return g
            # the right edges and slopes, but one next border halved: the
            # step would stop short of the true border, and only a comparison
            # of the borders tells this graph from a fresh one
            bank = min(g.borders)
            borders = {**g.borders, bank: g.borders[bank] / 2}
            return graphs.ActiveGraph(g.net, g.assets, g.edges, borders)

        monkeypatch.setattr(minimal, "active_graph", first_build_wrong_border)
        with pytest.raises(InternalInvariantError, match="stale active graph"):
            run_min_clearing(example3(), check_invariant=True)

    def test_graph_over_other_assets_rejected_under_invariant_check(self, monkeypatch):
        from netclear import graphs, minimal
        from netclear.errors import InternalInvariantError

        def build_over_a_copy(net, state):
            # the right maps, but over a copy of the working assets: the
            # steps would move the copy and leave the driver's state behind
            return graphs.active_graph(net, dict(state))

        monkeypatch.setattr(minimal, "active_graph", build_over_a_copy)
        with pytest.raises(InternalInvariantError, match="stale active graph"):
            run_min_clearing(example3(), check_invariant=True)

    def test_banks_tied_at_a_border_are_all_refreshed(self, monkeypatch):
        # a pays b and c in proportion and each passes its share on: the
        # first step from a moves a, b and c onto their borders at once, and
        # the second step reads all three refreshed
        net = build_network(
            banks=[("a", 3), ("b", 0), ("c", 0), ("d", 0), ("e", 0)],
            claims=[("a", "b", 1), ("a", "c", 1), ("b", "d", 1), ("c", "e", 1)],
        )
        steps = record_steps(monkeypatch)
        run = run_min_clearing(net, check_invariant=True)
        first, second = steps
        assert run.step_count == 2 and run.flood_count == 0
        assert first.delta == 2
        assert step_slopes(first) == {"a": 1, "b": F(1, 2), "c": F(1, 2), "d": F(1, 2), "e": F(1, 2)}
        assert step_slopes(second) == {"a": 1} and second.delta == 1
        assert run.state.as_dict() == {"a": 3, "b": 1, "c": 1, "d": 1, "e": 1}

    def test_singular_response_without_flood_raises(self, monkeypatch):
        from netclear import minimal
        from netclear.errors import InternalInvariantError

        monkeypatch.setattr(minimal, "find_flood_component", lambda g, v=None: None)
        with pytest.raises(InternalInvariantError, match="singular response"):
            run_min_clearing(example3())

    def test_flood_beside_regular_response_rejected_under_invariant_check(
        self, monkeypatch
    ):
        from netclear import minimal
        from netclear.errors import InternalInvariantError

        ring = frozenset({"v", "y"})
        monkeypatch.setattr(minimal, "find_flood_component", lambda g, v=None: ring)
        with pytest.raises(InternalInvariantError, match="regular response"):
            run_min_clearing(example3(), check_invariant=True)


def _enumerate_fixed_points(net):
    """All clearing states of a tiny network, by exact phase enumeration.

    Choose a payment segment for every bank and a solvency branch, solve the
    resulting affine system, and keep solutions consistent with the choices.
    Singular systems (free circulations) contribute their box-minimal point.
    Exhaustive for the minimality check as long as no multi-dimensional
    family appears (none do on these corpora).
    """
    from itertools import product

    ids = net.bank_ids()
    n = len(ids)
    index = {v: i for i, v in enumerate(ids)}
    grids = []
    for v in ids:
        borders = sorted({x for c in net.out_claims(v) for x in c.payment.borders})
        if not borders:
            borders = [F(0)]
        grids.append(borders)

    found = []
    segment_choices = [range(len(g)) for g in grids]
    for segments in product(*segment_choices):
        for branches in product((False, True), repeat=n):
            # affine payment of each claim given the debtor's segment
            matrix = [[F(0)] * n for _ in range(n)]
            constant = [F(0)] * n
            for i, v in enumerate(ids):
                bank = net.bank(v)
                solvent = branches[i]
                scale = F(1) if solvent else bank.beta
                constant[i] = (F(1) if solvent else bank.alpha) * bank.external_assets
                matrix[i][i] = F(1)
                for claim in net.in_claims(v):
                    u = claim.debtor
                    j = index[u]
                    anchor = grids[j][segments[j]]
                    slope = claim.payment.slope_at(anchor)
                    value = claim.payment.value_at(anchor)
                    matrix[i][j] -= scale * slope
                    constant[i] += scale * (value - slope * anchor)

            solution = dense_solve_linear_system(matrix, constant)
            candidates = []
            if solution is not None:
                candidates.append(solution)
            else:
                try:
                    direction = dense_unit_left_nullspace(
                        [[(F(1) if a == b else F(0)) - matrix[b][a] for b in range(n)] for a in range(n)]
                    )
                except Exception:
                    direction = None
                if direction is not None:
                    pinned = [row[:] for row in matrix]
                    rhs = list(constant)
                    pinned[0] = [F(1) if j == 0 else F(0) for j in range(n)]
                    rhs[0] = grids[0][segments[0]]
                    particular = dense_solve_linear_system(pinned, rhs)
                    if particular is not None:
                        ratios = [
                            (grids[i][segments[i]] - particular[i]) / direction[i]
                            for i in range(n)
                            if direction[i] != 0
                        ]
                        if ratios:
                            gamma = max(ratios)
                            candidates.append(
                                [particular[i] + gamma * direction[i] for i in range(n)]
                            )
            for candidate in candidates:
                state = {v: candidate[index[v]] for v in ids}
                if is_clearing_state(net, state).ok:
                    found.append(state)
    return found


def _line_search_scale(net, state, step):
    """Independent maximization of the flood scale: enumerate every candidate
    scale implied by the explicit border lists and keep the largest one under
    which no member's active edge crosses its next border."""
    candidates = set()
    for w in step.component:
        d_w = step.direction[w]
        if d_w <= 0:
            continue
        for claim in net.out_claims(w):
            for border in claim.payment.borders:
                if border > state[w]:
                    candidates.add((border - state[w]) / d_w)

    def feasible(gamma):
        for w in step.component:
            move = gamma * step.direction[w]
            for claim in net.out_claims(w):
                if claim.payment.slope_at(state[w]) <= 0:
                    continue
                delta = next_border_delta(claim.payment, state[w])
                if delta is not None and move > delta:
                    return False
        return True

    return max(g for g in candidates if feasible(g))

