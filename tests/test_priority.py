"""Priority-proportional transform and the maximal-clearing counter descent."""

import random
from bisect import bisect_right
from fractions import Fraction as F
from math import lcm

import pytest

import netclear
from netclear import (
    Claim,
    active_graph,
    adjust_default_cost,
    apply_trade,
    build_network,
    compute_max_clearing_flood,
    compute_max_clearing_pp,
    compute_min_clearing,
    find_flood_component,
    is_clearing_state,
    make_edge_ranking,
    make_proportional,
    priority_structure,
    run_min_clearing,
)
from netclear import axioms, errors, priority
from netclear.graphs import strongly_connected
from netclear.model import assemble
from netclear.priority import (
    _counter_system,
    _CounterSystem,
    _solve_block_least,
    _solve_counters,
)

from corpus import (
    ALL_SCHEME_KINDS,
    HAIRCUT_ALPHAS,
    SCHEME_KINDS,
    ZERO_RATE_ALPHAS,
    figure1_ranked,
    random_network,
    rewired_zero_rate_banks,
)
from graph_checks import check_driver
from counter_checks import (
    SINGULAR,
    assert_jumps_sound,
    check_block_order,
    check_counter_freshness,
    hold_counters,
    record_least_exits,
    record_rounds,
)
from oracles import (
    as_fraction,
    build_counter_lp,
    flood_maximum,
    fraction_assets,
    fraction_counter_rows,
    fraction_priority_structure,
    has_pinned_flow_solution,
    normalized_rows,
    simplex_solve,
    to_priority_proportional,
)


class TestPriorityStructure:
    def test_ranked_classes(self):
        structure = priority_structure(figure1_ranked())["v"]
        assert structure.den == 1
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
                classes = structure[claim.debtor]
                pieces = sum(
                    amount
                    for class_pieces in classes.pieces
                    for creditor, amount in class_pieces
                    if creditor == claim.creditor
                )
                assert F(pieces, classes.den) == claim.liability


def normalized_structure(structure, net):
    """Each bank's held grid in the oracle's form: the grid and the piece
    liabilities as ``Fraction``s."""
    normalized = {}
    for v in net.bank_ids():
        classes = structure[v]
        den = classes.den
        normalized[v] = (
            tuple(F(x, den) for x in classes.grid),
            tuple(tuple((c, F(x, den)) for c, x in entries) for entries in classes.pieces),
        )
    return normalized


def replace_functions(net, debtor, functions):
    """``net`` with the out-claims of ``debtor`` paid by ``functions``
    (creditor -> payment function), assembled without validation."""
    claims = [
        Claim(c.debtor, c.creditor, c.liability, functions[c.creditor]) if c.debtor == debtor else c
        for c in net.claims
    ]
    return assemble(net.banks.values(), claims)


def derived_networks(rng, net):
    """``(kind, network)`` for networks built from ``net``'s claims without
    validation: its default-cost surgery when it has haircuts; else a claims
    trade when one is open, and a debtor's claims re-paid by an edge-ranking
    scheme."""
    surgery = adjust_default_cost(net).network
    if surgery is not net:
        return [("surgery", surgery)]
    derived = []
    trades = [
        (claim, w)
        for claim in net.claims
        for w in net.bank_ids()
        if w not in claim.pair and not net.has_claim(claim.debtor, w)
    ]
    if trades:
        claim, w = rng.choice(trades)
        cap = min(net.bank(w).external_assets, claim.liability)
        rho = cap * F(rng.randint(0, 2), 2)
        derived.append(("trade", apply_trade(net, claim.pair, w, rho)))
    debtors = [v for v in net.bank_ids() if len(net.out_claims(v)) >= 2]
    if debtors:
        v = rng.choice(debtors)
        owed = {c.creditor: c.liability for c in net.out_claims(v)}
        order = list(owed)
        rng.shuffle(order)
        derived.append(("replaced", replace_functions(net, v, make_edge_ranking(owed, order))))
    return derived


class TestHeldGrid:
    """``priority_structure`` returns the integer class grid each debtor's
    functions carry or its merged slopes give, held on the network: at
    validation for a validated network, on first use for an assembled one."""

    def test_held_grid_matches_the_fraction_reference(self):
        rng = random.Random(2323)
        kinds = {"piecewise": 0, "surgery": 0, "trade": 0, "replaced": 0}
        for _ in range(150):
            net = random_network(
                rng,
                min_banks=3,
                max_banks=8,
                edge_prob=0.5,
                default_cost=rng.random() < 0.5,
                schemes=ALL_SCHEME_KINDS,
                liability_dens=(1, 2, 3, 7),
            )
            # validation holds every grid of a debtor that owes something
            assert set(net._classes) == {v for v in net.bank_ids() if net.total_out(v)}
            structure = priority_structure(net)
            assert normalized_structure(structure, net) == fraction_priority_structure(net)
            kinds["piecewise"] += any(
                claim.payment._piece is None and net.total_out(claim.debtor)
                for claim in net.claims
            )
            for kind, derived in derived_networks(rng, net):
                assert derived._classes == {}
                structure = priority_structure(derived)
                assert normalized_structure(structure, derived) == (
                    fraction_priority_structure(derived)
                )
                kinds[kind] += 1
        assert min(kinds.values()) >= 40, kinds

    def test_a_replaced_debtor_gets_its_new_grid(self):
        net = figure1_ranked()
        assert priority_structure(net)["v"].pieces == ((("w", 20),), (("u", 80),))
        owed = {"u": F(80), "w": F(20)}
        replaced = replace_functions(net, "v", make_edge_ranking(owed, ["u", "w"]))
        assert priority_structure(replaced)["v"].pieces == ((("u", 80),), (("w", 20),))
        proportional = replace_functions(net, "v", make_proportional(owed))
        assert priority_structure(proportional)["v"].pieces == ((("u", 80), ("w", 20)),)
        # the held grid of the first network is untouched
        assert priority_structure(net)["v"].pieces == ((("w", 20),), (("u", 80),))

    def test_editing_the_returned_mapping_leaves_the_network_alone(self):
        net = build_network(
            banks=[("v", 50), ("u", 0), ("w", 0)],
            claims=[("v", "u", 80), ("v", "w", 20)],
            schemes={"v": {"type": "edge_ranking", "order": ["w", "u"]}},
        )
        expected = compute_max_clearing_pp(net).as_dict()
        assert expected == {"v": F(50), "u": F(30), "w": F(20)}
        structure = priority_structure(net)
        structure["v"] = structure["u"]
        assert priority_structure(net)["v"].pieces == ((("w", 20),), (("u", 80),))
        assert compute_max_clearing_pp(net).as_dict() == expected

    def test_class_schemes_never_merge_slopes(self, monkeypatch):
        def refuse(claims):
            raise AssertionError("merged_slopes called")

        monkeypatch.setattr(axioms, "merged_slopes", refuse)
        rng = random.Random(2424)
        for _ in range(40):
            net = random_network(
                rng, min_banks=3, max_banks=8, edge_prob=0.5, default_cost=rng.random() < 0.5
            )
            assert is_clearing_state(net, compute_max_clearing_pp(net)).ok
            for _, derived in derived_networks(rng, net):
                priority_structure(derived)


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
            assert flood.as_dict() == descent.as_dict() == flood_maximum(net)

    def test_default_cost_outputs_fixed_points(self):
        rng = random.Random(262)
        for _ in range(100):
            net = random_network(rng, default_cost=True)
            state = compute_max_clearing_pp(net)
            assert is_clearing_state(net, state).ok
            minimal = compute_min_clearing(net)
            for v in net.bank_ids():
                assert minimal[v] <= state[v]

    def test_zero_rate_banks_below_the_maximum(self, monkeypatch):
        # haircut rates of 0 as well: banks with alpha = beta = 0 hold
        # nothing until they turn solvent
        check_driver(monkeypatch)
        rng = random.Random(2620)
        rewired = 0
        for _ in range(40):
            net = random_network(
                rng, min_banks=6, max_banks=12, default_cost=True, alphas=ZERO_RATE_ALPHAS
            )
            state = compute_max_clearing_pp(net)
            assert is_clearing_state(net, state).ok
            minimal = netclear.run_min_clearing(net).state
            assert is_clearing_state(net, minimal).ok
            for v in net.bank_ids():
                assert minimal[v] <= state[v]
            rewired += rewired_zero_rate_banks(net, minimal)
        assert rewired >= 5


def pair(x):
    """``x`` as the counter system holds it: an integer (numerator,
    denominator) pair."""
    return x.as_integer_ratio()


def counter_system(order, w, c, floor):
    """A ``_CounterSystem`` from ``Fraction`` rows, without sources."""
    return _CounterSystem(
        order=order,
        w={v: {u: pair(x) for u, x in row.items()} for v, row in w.items()},
        c={v: pair(x) for v, x in c.items()},
        floor={v: pair(x) for v, x in floor.items()},
        sources={},
    )


def fractions(values):
    """A map of counter-system pairs as ``Fraction``s."""
    return {v: as_fraction(x) for v, x in values.items()}


def closed_block(c=F(0)):
    """One closed circulation block: t = W t has the Perron line
    (1, 2, 3) * s, and the injection ``c`` enters at b0."""
    return counter_system(
        order=("b0", "b1", "b2"),
        w={
            "b0": {"b1": F(1, 2)},
            "b1": {"b2": F(1, 3), "b0": F(1)},
            "b2": {"b0": F(1), "b1": F(1)},
        },
        c={"b0": c, "b1": F(0), "b2": F(0)},
        floor={"b0": F(1), "b1": F(5), "b2": F(2)},
    )


class TestClosedBlock:
    """A closed circulation block: the least solve takes its least point on
    the line, and meets the block singular only with a positive injection,
    which is insatiable: the block has no fixed point, and the solver
    refuses it, which no round of the descent meets."""

    def test_one_block(self):
        system = closed_block()
        [block] = strongly_connected(system.order, system.w)
        assert sorted(block) == ["b0", "b1", "b2"]

    def test_least_point(self):
        t = {}
        _solve_block_least(closed_block(), {"b0", "b1", "b2"}, t)
        assert fractions(t) == {"b0": F(5, 2), "b1": F(5), "b2": F(15, 2)}

    def test_injection_is_insatiable(self):
        system = closed_block(c=F(1))
        assert has_pinned_flow_solution(closed_block(), ["b0", "b1", "b2"], {})
        assert not has_pinned_flow_solution(system, ["b0", "b1", "b2"], {})
        with pytest.raises(errors.InternalInvariantError, match=SINGULAR):
            _solve_block_least(system, {"b0", "b1", "b2"}, {})

    def test_positive_injection_is_insatiable_without_the_line(self):
        """The least solve raises at once when the flow equalities of all
        the members are singular: the injection is then positive, so the
        line of a closed block has no point there."""
        for c in (F(1, 7), F(1), F(40)):
            assert not has_pinned_flow_solution(closed_block(c=c), ["b0", "b1", "b2"], {})
            with pytest.raises(errors.InternalInvariantError, match=SINGULAR):
                _solve_block_least(closed_block(c=c), {"b0", "b1", "b2"}, {})

    def test_singleton_block_by_substitution(self, monkeypatch):
        """A one-bank block reads only inputs (there are no self-loops), so
        t = max(floor, a), with no linear solve."""

        def no_solve(*args):
            raise AssertionError("linear solve on a one-bank block")

        monkeypatch.setattr(priority, "solve_linear_system", no_solve)
        system = counter_system(
            order=("s", "x"),
            w={"s": {"x": F(1, 2)}, "x": {}},
            c={"s": F(1), "x": F(4)},
            floor={"s": F(2), "x": F(0)},
        )
        for x, least in ((F(4), F(3)), (F(1), F(2))):
            t = {"x": pair(x)}
            assets = _solve_block_least(system, {"s"}, t)
            assert fractions(assets) == {"s": F(1) + x / 2}
            assert as_fraction(t["s"]) == least


class TestBlockOrder:
    """Each round solves the SCCs of the counter system's rows in the order
    Tarjan gives on them, each block after the blocks it reads, at the top
    counters and after every lowering; its least solution is, pair for
    pair, that of the inputs-first order ``counter_checks.reference_blocks``
    builds by a second route."""

    def test_blocks_follow_their_inputs(self, monkeypatch):
        counts = check_block_order(monkeypatch)
        lowerings = check_counter_freshness(monkeypatch)
        rng = random.Random(3737)
        for i in range(300):
            net = random_network(
                rng,
                min_banks=3,
                max_banks=10,
                max_external=3,
                edge_prob=rng.choice((None, 0.4, 0.7)),
                schemes=ALL_SCHEME_KINDS if i % 4 == 0 else SCHEME_KINDS,
                default_cost=i % 2 == 1,
                alphas=ZERO_RATE_ALPHAS if i % 3 == 0 else HAIRCUT_ALPHAS,
            )
            assert is_clearing_state(net, compute_max_clearing_pp(net)).ok
        # one round at the top counters and one after each lowering
        assert counts["rounds"] == 300 + lowerings["lowerings"] >= 900
        assert counts["cycles"] >= 400 and counts["reordered"] >= 800, counts


def walk_counters(net, rng) -> int:
    """Drive the held counter system down to zero counters by random
    lowerings, one class at a time: each lowered bank is passed the lower
    border of the class below as its assets. Returns the number of rounds
    whose least solve met a singular flow system, which the descent from
    the top counters never does."""
    structure = priority_structure(net)
    counters = {v: structure[v].class_count for v in net.bank_ids()}
    system = _counter_system(net, structure, counters)
    singular = 0
    while any(counters.values()):
        try:
            priority._solve_counters(system)
        except errors.InternalInvariantError as error:
            assert SINGULAR in str(error)
            singular += 1
        lowered = [v for v in sorted(counters) if counters[v] and rng.random() < 0.3]
        before = dict(counters)
        below = {v: (structure[v].grid[before[v] - 1], structure[v].den) for v in lowered}
        priority._lower(system, net, structure, counters, lowered, below)
        assert all(counters[v] == before[v] - 1 for v in lowered)
    return singular


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
        """The descent never meets an insatiable block (proof in
        ``compute_max_clearing_pp``), so this walk lowers counters at random:
        rounds then stop at insatiable blocks after solving the blocks
        before them."""
        counts = check_counter_freshness(monkeypatch)
        exits = record_least_exits(monkeypatch)
        rng = random.Random(3)
        singular = 0
        for _ in range(150):
            net = random_network(
                rng, max_external=2, edge_prob=0.7, default_cost=True, alphas=(F(1, 2), F(1))
            )
            singular += walk_counters(net, rng)
        assert singular >= 10
        assert exits["singular"] == singular
        assert counts["lowerings"] >= 500

    def test_driven_walk_with_zero_rates(self, monkeypatch):
        """Banks with beta = 0 below their top class keep none of what they
        are paid, so their rows are empty and each of them is a block of its
        own; the walk's singular least solves must still be inconsistent."""
        exits = record_least_exits(monkeypatch)
        rng = random.Random(11)
        singular = 0
        for _ in range(300):
            net = random_network(
                rng, max_external=1, edge_prob=0.9, default_cost=True, alphas=ZERO_RATE_ALPHAS
            )
            singular += walk_counters(net, rng)
        assert singular >= 5
        assert exits["singular"] == singular


class TestJump:
    """Each round lowers each short bank straight to the class its
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
            assert is_clearing_state(net, state).ok
            jumps += assert_jumps_sound(rounds, state)
            checked += len(rounds)
        rng = random.Random(1913)
        for _ in range(200):
            net = random_network(rng, max_banks=10, min_banks=4, max_external=3, edge_prob=0.4)
            rounds.clear()
            state = compute_max_clearing_pp(net)
            assert state.as_dict() == flood_maximum(net)
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
        assert state.as_dict() == flood_maximum(net)
        assert len(solves) == 2
        assert counts["lowerings"] == 1
        steps = [(r["lowered"], r["before"]["d"], r["after"]["d"]) for r in rounds]
        assert steps == [(["d"], 4, 1)]

    def test_closed_block_beside_a_jumping_bank(self, monkeypatch):
        """At counters where a and b pay their second classes to each other,
        {a, b} is a closed circulation block with no net injection: its least
        point is (2, 2), below the maximal state's (4, 4). The descent from
        the top counters never ends on such a block (proof in
        ``compute_max_clearing_pp``): round 1 lowers b from class 2 to 1 and
        x, paid 1 by a, from class 4 to class 1, and the next round's least
        state is the maximal state."""
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
        block_counters = {v: structure[v].class_count for v in net.bank_ids()}
        block_counters.update(a=1, b=1)
        system = _counter_system(net, structure, block_counters)
        t, a = _solve_counters(system)
        t, a, c = fractions(t), fractions(a), fractions(system.c)
        assert (t["a"], t["b"]) == (F(2), F(2)) == (a["a"], a["b"])
        lp, order = build_counter_lp(net, structure, block_counters)
        result = simplex_solve(lp)
        assert result.status == "optimal"
        assert result.objective == sum((t[v] - a[v] + c[v] for v in order), F(0))

        check_counter_freshness(monkeypatch)
        rounds = record_rounds(monkeypatch)
        state = compute_max_clearing_pp(net)
        steps = [
            (r["lowered"], {v: (r["before"][v], r["after"][v]) for v in r["lowered"]})
            for r in rounds
        ]
        assert steps == [(["b", "x"], {"b": (2, 1), "x": (4, 1)})]
        assert state.as_dict() == {
            "a": F(4), "b": F(4), "x": F(3, 2), "y": F(2),
            "c1": F(1), "c2": F(1, 2), "c3": F(0), "c4": F(0),
        }
        assert state.as_dict() == flood_maximum(net)


class TestGreatest:
    """The descent's last least state is the greatest clearing state, by two
    checks that do not read its solves. Without default cost, no
    non-singleton sink SCC of positive right slopes is left at the state,
    the flood route's stopping rule (ROADMAP item 4's certificate; it fires
    on every clearing state below the greatest one). With and without, the
    counters at the descent's exit equal the classes of the state, step 2 of
    the proof in ``compute_max_clearing_pp``."""

    def test_pp_maximum_is_greatest(self, monkeypatch):
        held = hold_counters(monkeypatch)
        rng = random.Random(2626)
        counts = {"piecewise": 0, "below_top": 0, "min_below": 0}
        for i in range(3000):
            default_cost = i >= 2000
            net = random_network(
                rng,
                min_banks=3,
                max_banks=8,
                max_external=(0, 1, 3)[i % 3],
                schemes=ALL_SCHEME_KINDS if i % 4 == 0 else SCHEME_KINDS,
                default_cost=default_cost,
                alphas=ZERO_RATE_ALPHAS if i % 2 else (F(1, 2), F(3, 4), F(1)),
                edge_prob=rng.choice((None, 0.5, 0.7)),
                liability_dens=(1, 2, 3, 7) if i % 2 else None,
            )
            held.clear()
            x = compute_max_clearing_pp(net).as_dict()
            assert is_clearing_state(net, x).ok
            if not default_cost:
                assert find_flood_component(active_graph(net, dict(x))) is None
                if i % 3 == 0:
                    minimal = run_min_clearing(net).state.as_dict()
                    if minimal != x:
                        assert find_flood_component(active_graph(net, minimal)) is not None
                        counts["min_below"] += 1
            [counters] = held
            structure = priority_structure(net)
            for v, r in counters.items():
                classes = structure[v]
                assert r == bisect_right(classes.grid, x[v] * classes.den) - 1, v
            counts["below_top"] += any(r < structure[v].class_count for v, r in counters.items())
            counts["piecewise"] += any(
                claim.payment._piece is None and net.total_out(claim.debtor)
                for claim in net.claims
            )
        assert counts["below_top"] >= 2000 and counts["piecewise"] >= 300
        assert counts["min_below"] >= 100, counts


class TestRounds:
    """Every round of the descent, by the induction in
    ``compute_max_clearing_pp``: its least state ``t^R`` lies at or above the
    maximal state ``x*`` and at or below ``s``, the previous round's ``t``
    with each bank lowered after it set to its assets, and each bank below
    its top class lies inside its class, ``[grid[r_v], grid[r_v + 1])``."""

    def test_rounds_lie_between_the_maximal_state_and_the_last_round(self, monkeypatch):
        held = hold_counters(monkeypatch)
        solve = priority._solve_counters
        rounds = []

        def recorded(system):
            t, a = solve(system)
            [counters] = held
            rounds.append((dict(counters), fractions(t), fractions(a)))
            return t, a

        monkeypatch.setattr(priority, "_solve_counters", recorded)
        rng = random.Random(2727)
        counts = {"rounds": 0, "later": 0, "default_cost": 0, "zero_rates": 0, "piecewise": 0}
        for i in range(900):
            default_cost = i % 3 != 0
            zero_rates = default_cost and i % 2 == 0
            net = random_network(
                rng,
                min_banks=3,
                max_banks=8,
                max_external=(0, 1, 3)[i % 3],
                schemes=ALL_SCHEME_KINDS if i % 4 == 0 else SCHEME_KINDS,
                default_cost=default_cost,
                alphas=ZERO_RATE_ALPHAS if zero_rates else (F(1, 2), F(3, 4), F(1)),
                edge_prob=rng.choice((None, 0.5, 0.7)),
                liability_dens=(1, 2, 3) if i % 5 == 0 else None,
            )
            held.clear()
            rounds.clear()
            x = compute_max_clearing_pp(net).as_dict()
            assert is_clearing_state(net, x).ok
            structure = priority_structure(net)
            s = None
            for counters, t, a in rounds:
                assert all(x[v] <= t[v] for v in t), "round below the maximal state"
                if s is not None:
                    assert all(t[v] <= s[v] for v in t), "round above the last round's s"
                    counts["later"] += 1
                for v, r in counters.items():
                    grid, den = structure[v].grid, structure[v].den
                    if r < structure[v].class_count:
                        assert F(grid[r], den) <= t[v] < F(grid[r + 1], den), v
                s = {v: a[v] if a[v] < t[v] else t[v] for v in t}
            counts["rounds"] += len(rounds)
            counts["default_cost"] += default_cost * len(rounds)
            counts["zero_rates"] += zero_rates * len(rounds)
            counts["piecewise"] += (i % 4 == 0) * len(rounds)
        assert counts["rounds"] >= 2000 and counts["later"] >= 1000, counts
        assert min(counts["default_cost"], counts["zero_rates"], counts["piecewise"]) >= 300, counts


class TestIntegerRows:
    """The counter system holds integer pairs; read as ``Fraction``s its rows
    must equal the ``Fraction`` reference after the first build and after
    every lowering, and each round's assets the reference asset map at the
    round's ``t``. The networks have rational liabilities, so debtors'
    denominators are not 1, haircuts, and piecewise schemes whose pieces
    need a denominator beyond their grid's."""

    def test_rows_and_assets_match_the_fraction_reference(self, monkeypatch):
        refresh, solve = priority._refresh_rows, priority._solve_counters
        counts = {
            "refreshes": 0, "rounds": 0, "scaled": 0, "beta_rows": 0, "zero_beta_rows": 0,
            "wide": 0,
        }
        current = {}

        def checked_refresh(system, net, structure, counters, banks):
            refresh(system, net, structure, counters, banks)
            held = normalized_rows(system)
            reference = fraction_counter_rows(net, current["structure"], counters)
            for name in ("w", "c", "floor"):
                assert held[name] == reference[name], name
            counts["refreshes"] += 1
            for v in banks:
                below_top = counters[v] < structure[v].class_count
                if below_top and net.bank(v).beta != 1 and held["w"][v]:
                    counts["beta_rows"] += 1
                paid = any(counters[u] < structure[u].class_count for u in system.sources[v])
                if below_top and net.bank(v).beta == 0 and paid:
                    counts["zero_beta_rows"] += 1

        def checked_solve(system):
            t, a = solve(system)
            rows = normalized_rows(system)
            values = {v: as_fraction(x) for v, x in t.items()}
            for v in system.order:
                expected = fraction_assets(rows["w"][v], rows["c"][v], values)
                assert as_fraction(a[v]) == expected, v
            counts["rounds"] += 1
            return t, a

        monkeypatch.setattr(priority, "_refresh_rows", checked_refresh)
        monkeypatch.setattr(priority, "_solve_counters", checked_solve)
        rng = random.Random(2222)
        for k in range(120):
            net = random_network(
                rng,
                min_banks=4,
                max_banks=9,
                max_external=3,
                edge_prob=0.45,
                default_cost=rng.random() < 0.75,
                schemes=ALL_SCHEME_KINDS,
                liability_dens=(1, 2, 3, 7),
                alphas=ZERO_RATE_ALPHAS if k % 3 == 0 else HAIRCUT_ALPHAS,
            )
            structure = priority_structure(net)
            current["structure"] = reference = fraction_priority_structure(net)
            for v, classes in structure.items():
                grid, pieces = reference[v]
                assert tuple(F(x, classes.den) for x in classes.grid) == grid
                assert tuple(
                    tuple((c, F(x, classes.den)) for c, x in entries) for entries in classes.pieces
                ) == pieces
                counts["scaled"] += classes.den > 1
                counts["wide"] += classes.den > lcm(*(x.denominator for x in grid))
            state = compute_max_clearing_pp(net)
            assert is_clearing_state(net, state).ok
        assert counts["refreshes"] >= 300 and counts["rounds"] >= 300
        assert counts["scaled"] >= 200 and counts["wide"] >= 20 and counts["beta_rows"] >= 100
        assert counts["zero_beta_rows"] >= 20

    def test_rows_hold_no_zero_weights(self, monkeypatch):
        """A bank with beta = 0 below its top class keeps none of what it is
        paid. Its row leaves its debtors out, so they add no dependency edge
        to the block order and no zero coefficient to a block's rows."""
        refresh = priority._refresh_rows
        counts = {"zero": 0, "entries": 0, "zero_beta_rows": 0}

        def counted_refresh(system, net, structure, counters, banks):
            refresh(system, net, structure, counters, banks)
            for v in banks:
                row = system.w[v]
                counts["entries"] += len(row)
                counts["zero"] += sum(1 for wn, _ in row.values() if wn == 0)
                below_top = counters[v] < structure[v].class_count
                counts["zero_beta_rows"] += below_top and net.bank(v).beta == 0

        monkeypatch.setattr(priority, "_refresh_rows", counted_refresh)
        rng = random.Random(11)
        for _ in range(600):
            net = random_network(
                rng, max_external=1, edge_prob=0.9, default_cost=True, alphas=ZERO_RATE_ALPHAS
            )
            assert is_clearing_state(net, compute_max_clearing_pp(net)).ok
        assert counts["zero"] == 0
        assert counts["zero_beta_rows"] >= 1000 and counts["entries"] >= 5000, counts


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
                t, a = _solve_counters(system)
            except errors.InternalInvariantError:
                continue  # insatiable interior states are exercised elsewhere
            d = {v: as_fraction(t[v]) - as_fraction(a[v]) for v in t}
            lp, order = build_counter_lp(net, structure, counters)
            result = simplex_solve(lp)
            assert result.status == "optimal"
            constant = sum((as_fraction(system.c[v]) for v in order), F(0))
            my_offset_total = sum((d[v] for v in order), F(0))
            # the LP minimizes sum((I - W) t) = sum(d) + sum(c)
            assert result.objective == my_offset_total + constant
            compared += 1
        assert compared >= 40
