"""Priority-proportional transform and the maximal-clearing counter descent."""

import random
from fractions import Fraction as F

import pytest

from netclear import (
    build_network,
    compute_max_clearing_flood,
    compute_max_clearing_pp,
    compute_min_clearing,
    is_clearing_state,
    priority_structure,
    run_min_clearing,
)
from netclear import priority
from netclear.priority import (
    _blocks_in_order,
    _counter_system,
    _CounterSystem,
    _Insatiable,
    _solve_block_greatest,
    _solve_block_least,
    _solve_counters,
    _solve_singular_line,
)

from corpus import ZERO_RATE_ALPHAS, random_network, rewired_zero_rate_banks
from counter_checks import (
    assert_jumps_sound,
    check_counter_freshness,
    record_least_exits,
    record_rounds,
)
from oracles import build_counter_lp, simplex_solve, to_priority_proportional


def figure1_ranked():
    return build_network(
        banks=[("v", 0), ("u", 0), ("w", 0)],
        claims=[("v", "u", 80), ("v", "w", 20)],
        schemes={"v": {"type": "edge_ranking", "order": ["w", "u"]}},
    )


class TestPriorityStructure:
    def test_ranked_classes(self):
        structure = priority_structure(figure1_ranked())["v"]
        assert structure.grid == (F(0), F(20), F(100))
        assert structure.pieces[0] == (("w", F(20)),)
        assert structure.pieces[1] == (("u", F(80)),)

    def test_proportional_single_class(self):
        net = build_network(
            banks=[("v", 0), ("u", 0), ("w", 0)],
            claims=[("v", "u", 80), ("v", "w", 20)],
        )
        structure = priority_structure(net)["v"]
        assert structure.class_count == 1
        assert dict(structure.pieces[0]) == {"u": F(80), "w": F(20)}

    def test_piece_liabilities_sum_to_original(self):
        rng = random.Random(808)
        for _ in range(100):
            net = random_network(rng)
            structure = priority_structure(net)
            for claim in net.claims:
                pieces = sum(
                    amount
                    for class_pieces in structure[claim.debtor].pieces
                    for creditor, amount in class_pieces
                    if creditor == claim.creditor
                )
                assert pieces == claim.liability


class TestTransform:
    def test_relays_and_certificate(self):
        net = figure1_ranked()
        transformed, certificate = to_priority_proportional(net)
        # one relay per (edge, class) pair with positive piece liability
        assert len(certificate.relays) == 2
        for relay, (debtor, creditor, class_index) in certificate.relays.items():
            piece = transformed.claim(debtor, relay)
            passthrough = transformed.claim(relay, creditor)
            assert passthrough.liability == piece.liability
            assert passthrough.payment.borders == (0, piece.liability)
            assert passthrough.payment.value_at(piece.liability / 2) == piece.liability / 2
            assert transformed.bank(relay).external_assets == 0
        assert sorted(certificate.piece_edges[("v", "u")]) == ["v~u~2"]
        assert sorted(certificate.piece_edges[("v", "w")]) == ["v~w~1"]

    def test_aggregate_payments_match_exactly(self):
        rng = random.Random(909)
        for _ in range(60):
            net = random_network(rng, max_banks=4)
            transformed, certificate = to_priority_proportional(net)
            for claim in net.claims:
                relays = certificate.piece_edges[claim.pair]
                total = net.total_out(claim.debtor)
                for trial in range(20):
                    a = F(rng.randint(0, int(4 * (total + 1))), 4)
                    direct = claim.payment.value_at(a)
                    split = sum(
                        (
                            transformed.claim(claim.debtor, relay).payment.value_at(a)
                            for relay in relays
                        ),
                        F(0),
                    )
                    assert direct == split

    def test_min_clearing_equivalence(self):
        rng = random.Random(1001)
        for _ in range(60):
            net = random_network(rng, max_banks=4, default_cost=rng.random() < 0.3)
            transformed, _ = to_priority_proportional(net)
            original = compute_min_clearing(net)
            lifted = compute_min_clearing(transformed)
            for v in net.bank_ids():
                assert original[v] == lifted[v]


class TestCounterDescent:
    def test_two_cycle(self):
        net = build_network(
            banks=[("a", 0), ("b", 0)], claims=[("a", "b", 1), ("b", "a", 1)]
        )
        assert compute_max_clearing_pp(net).as_dict() == {"a": F(1), "b": F(1)}

    def test_example2_with_default_cost(self):
        net = build_network(
            banks=[("v", 1, "1/2", "1/2"), ("w", 1, "1/2", "1/2")],
            claims=[("v", "w", 2), ("w", "v", 2)],
        )
        state = compute_max_clearing_pp(net)
        assert state.as_dict() == {"v": F(3), "w": F(3)}
        assert is_clearing_state(net, state).ok

    def test_single_insolvent_bank(self):
        net = build_network(
            banks=[("a", "1/2"), ("b", 0)], claims=[("a", "b", 1)]
        )
        state = compute_max_clearing_pp(net)
        assert state.as_dict() == {"a": F(1, 2), "b": F(1, 2)}

    def test_matches_flood_method(self):
        rng = random.Random(626)
        for _ in range(150):
            net = random_network(rng, max_banks=5, max_external=2, edge_prob=0.6)
            flood = compute_max_clearing_flood(net)
            descent = compute_max_clearing_pp(net)
            assert flood.as_dict() == descent.as_dict()

    def test_default_cost_outputs_fixed_points(self):
        rng = random.Random(262)
        for _ in range(100):
            net = random_network(rng, default_cost=True)
            state = compute_max_clearing_pp(net)
            assert is_clearing_state(net, state).ok
            minimal = compute_min_clearing(net)
            for v in net.bank_ids():
                assert minimal[v] <= state[v]

    def test_zero_rate_banks_below_the_maximum(self):
        # haircut rates of 0 as well: banks with alpha = beta = 0 hold
        # nothing until they turn solvent
        rng = random.Random(2620)
        rewired = 0
        for _ in range(40):
            net = random_network(
                rng, min_banks=6, max_banks=12, default_cost=True, alphas=ZERO_RATE_ALPHAS
            )
            state = compute_max_clearing_pp(net)
            assert is_clearing_state(net, state).ok
            minimal = run_min_clearing(net, check_invariant=True).state
            assert is_clearing_state(net, minimal).ok
            for v in net.bank_ids():
                assert minimal[v] <= state[v]
            rewired += rewired_zero_rate_banks(net, minimal)
        assert rewired >= 5


def closed_block(c=F(0)):
    """One closed circulation block: t = W t has the Perron line
    (1, 2, 3) * s, and the injection ``c`` enters at b0."""
    return _CounterSystem(
        order=("b0", "b1", "b2"),
        w={
            "b0": {"b1": F(1, 2)},
            "b1": {"b2": F(1, 3), "b0": F(1)},
            "b2": {"b0": F(1), "b1": F(1)},
        },
        c={"b0": c, "b1": F(0), "b2": F(0)},
        floor={"b0": F(1), "b1": F(5), "b2": F(2)},
        cap={"b0": F(7), "b1": None, "b2": F(30)},
        sources={},
    )


class TestClosedBlock:
    """A closed circulation block: the greatest solve takes its consistent
    line, and the least solve meets it singular only with a positive
    injection, which is insatiable."""

    def test_one_block(self):
        assert _blocks_in_order(closed_block()) == [["b0", "b1", "b2"]]

    def test_singular_line(self):
        system = closed_block()
        particular, direction = _solve_singular_line(system, ["b0", "b1", "b2"], {})
        assert particular == [F(1), F(2), F(3)]  # pinned at the floor of b0
        assert direction == [F(1, 3), F(2, 3), F(1)]

    def test_least_and_greatest_points(self):
        t = {}
        _solve_block_least(closed_block(), {"b0", "b1", "b2"}, t)
        assert t == {"b0": F(5, 2), "b1": F(5), "b2": F(15, 2)}
        t = {}
        _solve_block_greatest(closed_block(), {"b0", "b1", "b2"}, t)
        assert t == {"b0": F(7), "b1": F(14), "b2": F(21)}

    def test_greatest_point_when_the_last_step_scales(self):
        """A closed block whose last elimination step scales its row by a
        factor other than 1 before the row cancels: the solver still
        reports it singular, and the greatest solve takes the line."""
        system = _CounterSystem(
            order=("b0", "b1", "b2"),
            w={
                "b0": {"b1": F(1, 4)},
                "b1": {"b0": F(4, 3), "b2": F(4, 3)},
                "b2": {"b0": F(2)},
            },
            c={"b0": F(0), "b1": F(0), "b2": F(0)},
            floor={"b0": F(1), "b1": F(0), "b2": F(0)},
            cap={"b0": F(7), "b1": None, "b2": None},
            sources={},
        )
        t = {}
        _solve_block_greatest(system, {"b0", "b1", "b2"}, t)
        assert t == {"b0": F(7), "b1": F(28), "b2": F(14)}

    def test_injection_is_insatiable(self):
        system = closed_block(c=F(1))
        assert _solve_singular_line(system, ["b0", "b1", "b2"], {}) == (None, None)
        with pytest.raises(_Insatiable):
            _solve_block_least(system, {"b0", "b1", "b2"}, {})

    def test_positive_injection_is_insatiable_without_the_line(self, monkeypatch):
        """The least solve raises at once when the flow equalities of all
        the members are singular: the injection is then positive, so the
        line of a closed block is never needed there."""

        def no_line(*args):
            raise AssertionError("singular line in a least solve")

        monkeypatch.setattr(priority, "_solve_singular_line", no_line)
        for c in (F(1, 7), F(1), F(40)):
            with pytest.raises(_Insatiable):
                _solve_block_least(closed_block(c=c), {"b0", "b1", "b2"}, {})

    def test_singleton_block_by_substitution(self, monkeypatch):
        """A one-bank block reads only inputs (there are no self-loops), so
        t = max(floor, a) in the least mode and t = a in the greatest, with
        no linear solve."""

        def no_solve(*args):
            raise AssertionError("linear solve on a one-bank block")

        monkeypatch.setattr(priority, "solve_linear_system", no_solve)
        system = _CounterSystem(
            order=("s", "x"),
            w={"s": {"x": F(1, 2)}, "x": {}},
            c={"s": F(1), "x": F(4)},
            floor={"s": F(2), "x": F(0)},
            cap={"s": F(5), "x": None},
            sources={},
        )
        for x, least, greatest in ((F(4), F(3), F(3)), (F(1), F(2), F(3, 2))):
            t = {"x": x}
            assert _solve_block_least(system, {"s"}, t) == ({"s": F(1) + x / 2}, True)
            assert t["s"] == least
            t = {"x": x}
            _solve_block_greatest(system, {"s"}, t)
            assert t["s"] == greatest


def walk_counters(net, rng):
    """Drive the held counter system down to zero counters by random
    lowerings, and by the members of every insatiable block, as the descent
    does."""
    structure = priority_structure(net)
    counters = {v: structure[v].class_count for v in net.bank_ids()}
    system = _counter_system(net, structure, counters)
    while any(counters.values()):
        try:
            priority._solve_counters(system)
            lowered = [v for v in sorted(counters) if counters[v] and rng.random() < 0.3]
        except _Insatiable as blocked:
            lowered = [v for v in sorted(blocked.members) if counters[v]]
            if not lowered:
                break
        if lowered:
            priority._lower(system, net, structure, counters, lowered)


def held_system_networks():
    """The 60 default-cost networks of the held-system and jump checks."""
    rng = random.Random(4711)
    for _ in range(60):
        yield random_network(
            rng, max_banks=10, min_banks=5, max_external=3, edge_prob=0.4, default_cost=True
        )


class TestHeldSystem:
    """One counter system serves the descent: after every lowering it must
    equal a fresh build."""

    def test_descent_with_default_costs(self, monkeypatch):
        counts = check_counter_freshness(monkeypatch)
        for net in held_system_networks():
            assert is_clearing_state(net, compute_max_clearing_pp(net)).ok
        assert counts["lowerings"] >= 200

    def test_driven_walk_through_insatiable_blocks(self, monkeypatch):
        """The descent itself met no insatiable block on thousands of corpus
        networks, so this walk lowers counters at random: rounds then stop at
        insatiable blocks after solving the blocks before them."""
        counts = check_counter_freshness(monkeypatch)
        exits = record_least_exits(monkeypatch)
        rng = random.Random(3)
        for _ in range(150):
            net = random_network(
                rng, max_external=2, edge_prob=0.7, default_cost=True, alphas=(F(1, 2), F(1))
            )
            walk_counters(net, rng)
        assert counts["insatiable"] >= 10
        assert exits["singular"] == counts["insatiable"]
        assert counts["lowerings"] >= 500

    def test_driven_walk_with_zero_rates(self, monkeypatch):
        """Banks with beta = 0 below their top class give rows of zero
        weight, so a block need not be irreducible; its singular least
        solves must still be inconsistent."""
        exits = record_least_exits(monkeypatch)
        rng = random.Random(11)
        for _ in range(300):
            net = random_network(
                rng, max_external=1, edge_prob=0.9, default_cost=True, alphas=ZERO_RATE_ALPHAS
            )
            walk_counters(net, rng)
        assert exits["singular"] >= 5


class TestJump:
    """A regular round lowers each short bank straight to the class its
    assets reach. No bank it lowers may hold more in the maximal state than
    its assets, and no counter may fall below the class of the maximal
    state."""

    def test_lowered_banks_stay_above_the_maximal_state(self, monkeypatch):
        check_counter_freshness(monkeypatch)
        rounds = record_rounds(monkeypatch)
        jumps = checked = 0
        for net in held_system_networks():
            rounds.clear()
            state = compute_max_clearing_pp(net)
            jumps += assert_jumps_sound(rounds, state)
            checked += len(rounds)
        rng = random.Random(1913)
        for _ in range(200):
            net = random_network(rng, max_banks=10, min_banks=4, max_external=3, edge_prob=0.4)
            rounds.clear()
            state = compute_max_clearing_pp(net)
            assert state.as_dict() == compute_max_clearing_flood(net).as_dict()
            jumps += assert_jumps_sound(rounds, state)
            checked += len(rounds)
        assert checked >= 200
        assert jumps >= 50

    def test_ranked_debtor_falls_three_classes_at_once(self, monkeypatch):
        """d owes four creditors one each, ranked; its 3/2 reach class 1, so
        round 1 lowers it from 4 to 1 and round 2 finds it consistent."""
        net = build_network(
            banks=[("d", "3/2"), ("c1", 0), ("c2", 0), ("c3", 0), ("c4", 0)],
            claims=[("d", c, 1) for c in ("c1", "c2", "c3", "c4")],
            schemes={"d": {"type": "edge_ranking", "order": ["c1", "c2", "c3", "c4"]}},
        )
        counts = check_counter_freshness(monkeypatch)
        rounds = record_rounds(monkeypatch)
        solve = priority._solve_counters
        solves = []
        monkeypatch.setattr(
            priority, "_solve_counters", lambda system: solves.append(1) or solve(system)
        )
        state = compute_max_clearing_pp(net)
        assert state.as_dict() == {"d": F(3, 2), "c1": F(1), "c2": F(1, 2), "c3": F(0), "c4": F(0)}
        assert state.as_dict() == compute_max_clearing_flood(net).as_dict()
        assert len(solves) == 2
        assert counts["lowerings"] == 1
        steps = [(r["lowered"], r["before"]["d"], r["after"]["d"]) for r in rounds]
        assert steps == [(["d"], 4, 1)]

    def test_closed_block_beside_a_jumping_bank(self, monkeypatch):
        """Started at counters where a and b pay their second classes to
        each other, {a, b} is a closed circulation block with no net
        injection: its least point is (2, 2), and only the final maximization
        along its Perron line reaches the maximal state (4, 4). Next to it
        x, paid 1 by a, jumps from class 4 to class 1 in round 1.

        A descent from the top counters never ends on such a block: the
        maximization puts a bank at its cap, so its class in the maximal
        state is one above its counter, and counters never fall below those
        classes. So this descent starts at the block's counters."""
        net = build_network(
            banks=[("a", 2), ("b", 1), ("x", "1/2"), ("y", 0)]
            + [(c, 0) for c in ("c1", "c2", "c3", "c4")],
            claims=[("a", "x", 1), ("a", "b", 3), ("b", "y", 2), ("b", "a", 3)]
            + [("x", c, 1) for c in ("c1", "c2", "c3", "c4")],
            schemes={
                "a": {"type": "edge_ranking", "order": ["x", "b"]},
                "b": {"type": "edge_ranking", "order": ["y", "a"]},
                "x": {"type": "edge_ranking", "order": ["c1", "c2", "c3", "c4"]},
            },
        )
        structure = priority_structure(net)
        start = {v: structure[v].class_count for v in net.bank_ids()}
        start.update(a=1, b=1)
        build = priority._counter_system

        def start_there(net, structure, counters):
            monkeypatch.setattr(priority, "_counter_system", build)
            counters.update(start)
            return build(net, structure, counters)

        system = build(net, structure, start)
        t, a, open_blocks = _solve_counters(system)
        assert (t["a"], t["b"]) == (F(2), F(2)) == (a["a"], a["b"])
        assert ["a", "b"] in open_blocks
        lp, order = build_counter_lp(net, structure, start)
        result = simplex_solve(lp)
        assert result.status == "optimal"
        assert result.objective == sum((t[v] - a[v] + system.c[v] for v in order), F(0))

        monkeypatch.setattr(priority, "_counter_system", start_there)
        check_counter_freshness(monkeypatch)
        rounds = record_rounds(monkeypatch)
        line = priority._solve_singular_line
        lines = []
        monkeypatch.setattr(
            priority, "_solve_singular_line", lambda *args: lines.append(args[1]) or line(*args)
        )
        state = compute_max_clearing_pp(net)
        steps = [(r["lowered"], r["before"]["x"], r["after"]["x"]) for r in rounds]
        assert steps == [(["x"], 4, 1)]
        assert lines == [["a", "b"]]
        assert state.as_dict() == {
            "a": F(4), "b": F(4), "x": F(3, 2), "y": F(2),
            "c1": F(1), "c2": F(1, 2), "c3": F(0), "c4": F(0),
        }
        assert state.as_dict() == compute_max_clearing_flood(net).as_dict()


class TestAgainstSimplex:
    def test_block_solver_matches_lp_optimum(self):
        """The descent's least-offset solve must agree with the literal LP."""
        rng = random.Random(515)
        compared = 0
        for _ in range(60):
            net = random_network(rng, max_banks=4, max_external=2, edge_prob=0.6)
            structure = priority_structure(net)
            counters = {v: structure[v].class_count for v in net.bank_ids()}
            # randomly lower some counters to probe interior descent states
            for v in counters:
                if counters[v] and rng.random() < 0.5:
                    counters[v] -= rng.randint(0, counters[v])
            system = _counter_system(net, structure, counters)
            try:
                t, a, _ = _solve_counters(system)
            except Exception:
                continue  # insatiable interior states are exercised elsewhere
            d = {v: t[v] - a[v] for v in t}
            lp, order = build_counter_lp(net, structure, counters)
            result = simplex_solve(lp)
            assert result.status == "optimal"
            constant = sum((system.c[v] for v in order), F(0))
            my_offset_total = sum((d[v] for v in order), F(0))
            # the LP minimizes sum((I - W) t) = sum(d) + sum(c)
            assert result.objective == my_offset_total + constant
            compared += 1
        assert compared >= 40
