"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. All comparisons are exact unless a tolerance is part
of the criterion itself.
"""

import random
import time
from fractions import Fraction as F

from netclear import (
    FloodStep,
    apply_trade,
    bottom_iterate,
    build_network,
    compute_max_clearing_flood,
    compute_max_clearing_pp,
    compute_min_clearing,
    is_clearing_state,
    optimal_creditor_positive_return,
    payments,
    phi,
    run_min_clearing,
    solve_range_clearing,
    top_iterate,
)
from netclear.errors import NoCreditorPositiveTradeError

from corpus import example1, example2, example3, random_network, random_trade_instance
from graph_checks import record_steps
from oracles import flood_maximum, nonunique_banks, to_priority_proportional

GAP_TOLERANCE = F(1, 10**6)
ORACLE_STEPS = 10**4


def ok(criterion: str, detail: str = "") -> None:
    suffix = f" — {detail}" if detail else ""
    print(f"[acceptance] {criterion}: PASS{suffix}")


class TestCriterion1Golden:
    def test_example1(self):
        started = time.monotonic()
        net = example1()
        state = compute_min_clearing(net)
        assert state.as_dict() == {"u": F(2), "v": F(1), "w": F(1)}
        assert all(p == 1 for p in payments(net, state).values())
        elapsed = time.monotonic() - started
        assert elapsed < 1.0
        ok("criterion 1a (Example 1)", f"{elapsed:.3f}s")

    def test_example2(self):
        started = time.monotonic()
        net = example2()
        state = compute_min_clearing(net)
        assert state.as_dict() == {"v": F(3), "w": F(3)}
        assert all(p == 2 for p in payments(net, state).values())
        oracle = bottom_iterate(net, ORACLE_STEPS)
        assert not oracle.converged
        for value in payments(net, oracle.state).values():
            assert value < 1
            assert value > 1 - GAP_TOLERANCE
        elapsed = time.monotonic() - started
        assert elapsed < 1.0
        ok("criterion 1b (Example 2)", f"{elapsed:.3f}s")

    def test_example3(self, monkeypatch):
        started = time.monotonic()
        net = example3()
        steps = record_steps(monkeypatch)
        run = run_min_clearing(net)
        assert run.state.as_dict() == {"u": F(1), "v": F(5), "w": F(2), "y": F(2)}
        assert payments(net, run.state) == {
            ("u", "v"): F(1),
            ("v", "w"): F(2),
            ("v", "y"): F(2),
            ("y", "v"): F(2),
        }
        floods = [step for step in steps if isinstance(step, FloodStep)]
        assert len(floods) == 1 and run.flood_count == 1
        assert floods[0].component == frozenset({"v", "y"})
        assert floods[0].scale == 2
        elapsed = time.monotonic() - started
        assert elapsed < 1.0
        ok("criterion 1c (Example 3)", f"{elapsed:.3f}s")


def corpus_networks(seed, count, **kwargs):
    rng = random.Random(seed)
    kwargs.setdefault("max_banks", 6)
    kwargs.setdefault("max_liability", 10)
    return [random_network(rng, **kwargs) for _ in range(count)]


def bounded_bottom_gap(net, minimal) -> F:
    """Largest coordinate gap between the minimal state and the 10^4-step
    bottom iterate, verified to dominate at every step.

    Iterates are monotone non-decreasing, so the gap only shrinks with more
    steps; once it drops below the tolerance the full-step-budget claim is
    implied and iteration can stop early.
    """
    current = {v: F(0) for v in net.bank_ids()}
    early_exit = GAP_TOLERANCE / 1000
    for _ in range(ORACLE_STEPS):
        nxt = phi(net, current).as_dict()
        if nxt == current:
            break
        current = nxt
        gap = max(minimal[v] - current[v] for v in net.bank_ids())
        assert gap >= 0, "bottom iterate exceeded the minimal state"
        if gap < early_exit:
            break
    return max(minimal[v] - current[v] for v in net.bank_ids())


class TestCriterion2OracleEquivalence:
    def test_500_networks(self):
        started = time.monotonic()
        nets = corpus_networks(seed=220001, count=500)
        for net in nets:
            minimal = compute_min_clearing(net)
            assert is_clearing_state(net, minimal).ok
            gap = bounded_bottom_gap(net, minimal)
            assert gap < GAP_TOLERANCE
            above = top_iterate(net, 200).state
            for v in net.bank_ids():
                assert minimal[v] <= above[v]
        elapsed = time.monotonic() - started
        assert elapsed < 60.0
        ok("criterion 2 (oracle equivalence, 500 networks)", f"{elapsed:.1f}s")


class TestCriterion3MaxClearing:
    def test_methods_agree_without_default_cost(self):
        nets = corpus_networks(seed=330001, count=500)
        for net in nets:
            minimal = compute_min_clearing(net)
            flood = compute_max_clearing_flood(net)
            descent = compute_max_clearing_pp(net)
            # the flood method starts at the descent's state: flooding up
            # from the driver's least state is the independent route
            assert flood.as_dict() == descent.as_dict() == flood_maximum(net)
            assert is_clearing_state(net, flood).ok
            assert is_clearing_state(net, descent).ok
            for v in net.bank_ids():
                assert minimal[v] <= flood[v]
        ok("criterion 3a (flood vs descent, 500 networks)")

    def test_default_cost_fixed_points(self):
        nets = corpus_networks(seed=330002, count=200, default_cost=True)
        for net in nets:
            state = compute_max_clearing_pp(net)
            assert is_clearing_state(net, state).ok
        ok("criterion 3b (default-cost corpus fixed points)")


class TestCriterion4TransformEquivalence:
    def test_200_networks(self):
        rng = random.Random(440001)
        for i in range(200):
            net = random_network(rng, max_banks=5, default_cost=i % 2 == 0)
            transformed, _ = to_priority_proportional(net)
            original = compute_min_clearing(net)
            lifted = compute_min_clearing(transformed)
            for v in net.bank_ids():
                assert original[v] == lifted[v]
        ok("criterion 4 (transform equivalence, 200 networks)")


class TestCriterion5UniquenessAndImpossibility:
    def test_300_strictly_monotone_instances(self):
        rng = random.Random(550001)
        sampled_trades = 0
        for _ in range(300):
            net = random_network(
                rng,
                max_banks=4,
                max_liability=3,
                max_external=2,
                schemes=("proportional",),
                edge_prob=0.6,
            )
            minimal = compute_min_clearing(net)
            for v in nonunique_banks(net):
                assert minimal[v] == 0
            for claim in net.claims:
                for buyer in net.bank_ids():
                    if buyer in claim.pair or net.has_claim(claim.debtor, buyer):
                        continue
                    cap = min(net.bank(buyer).external_assets, claim.liability)
                    if cap <= 0:
                        continue
                    for k in range(1, 21):
                        rho = cap * F(k, 20)
                        traded = apply_trade(net, claim.pair, buyer, rho)
                        post = compute_min_clearing(traded)
                        both = (
                            post[claim.pair[1]] > minimal[claim.pair[1]]
                            and post[buyer] > minimal[buyer]
                        )
                        assert not both
                        sampled_trades += 1
        assert sampled_trades >= 2000
        ok(
            "criterion 5 (uniqueness + impossibility, 300 instances)",
            f"{sampled_trades} trades sampled",
        )


def stratified_trade_instances(rng, count, min_positive):
    """Trade instances with a guaranteed share where the solver reports a
    creditor-positive return. The stratification only balances the mix; every
    instance is re-verified against the independent grid oracle, so a wrong
    existence answer still fails the test."""
    instances = []
    positives = 0
    while len(instances) < count:
        instance = random_trade_instance(rng)
        try:
            optimal_creditor_positive_return(*instance)
            positive = True
        except NoCreditorPositiveTradeError:
            positive = False
        remaining = count - len(instances)
        if not positive and remaining <= max(0, min_positive - positives):
            continue
        instances.append(instance)
        positives += positive
    return instances


class TestCriterion6TradeOptimality:
    def test_fixture(self):
        net = build_network(
            banks=[("u", 1), ("v", 0), ("w", 4), ("y", 0)],
            claims=[("u", "v", 2), ("v", "w", 3), ("v", "y", 2), ("y", "v", 2)],
            schemes={"v": {"type": "edge_ranking", "order": ["w", "y"]}},
        )
        result = optimal_creditor_positive_return(net, ("u", "v"), "w")
        assert result.rho_min == 1
        assert result.rho_star == 2
        ok("criterion 6a (trade fixture)")

    def test_100_instances_against_grid(self):
        rng = random.Random(660001)
        step = F(1, 100)
        positives_verified = 0
        for net, claim_pair, buyer in stratified_trade_instances(rng, 100, 20):
            creditor = claim_pair[1]
            base = compute_min_clearing(net)
            claim = net.claim(*claim_pair)
            rho_min = claim.payment.value_at(base[claim_pair[0]])
            cap = min(net.bank(buyer).external_assets, claim.liability)

            def creditor_positive(rho):
                traded = apply_trade(net, claim_pair, buyer, rho)
                post = compute_min_clearing(traded)
                return post[creditor] > base[creditor] and post[buyer] >= base[buyer]

            grid_best = None
            rho = rho_min + step
            while rho <= cap:
                if creditor_positive(rho):
                    grid_best = rho
                rho += step

            try:
                mine = optimal_creditor_positive_return(net, claim_pair, buyer)
            except NoCreditorPositiveTradeError:
                mine = None

            if mine is None:
                assert grid_best is None or grid_best <= rho_min + step
                continue
            assert creditor_positive(mine.rho_star)
            if grid_best is None:
                assert mine.rho_star - rho_min <= step
            else:
                assert grid_best <= mine.rho_star
                assert mine.rho_star - grid_best <= step
            beyond = mine.rho_star + step
            if beyond <= cap:
                assert not creditor_positive(beyond)
            positives_verified += 1
        assert positives_verified >= 20
        ok(
            "criterion 6b (100 instances vs 1/100 grid oracle)",
            f"{positives_verified} with a creditor-positive return",
        )


class TestCriterion7RangeClearing:
    def test_100_predetermined_instances(self):
        rng = random.Random(770001)
        feasible_count = 0
        infeasible_count = 0
        for index in range(100):
            net = random_network(
                rng, max_banks=5, max_external=1, edge_prob=0.7
            )
            minimal = compute_min_clearing(net)
            maximal = compute_max_clearing_flood(net)
            if index % 2 == 0:
                # feasible by construction: intervals around a clearing state
                # sampled via random flood fractions
                witness = _sampled_clearing_state(rng, net, minimal)
                picks = rng.sample(net.bank_ids(), k=min(2, len(net.bank_ids())))
                spec = {v: (witness[v], witness[v] + F(1, 4)) for v in picks}
                result = solve_range_clearing(net, spec)
                assert result.feasible
                assert is_clearing_state(net, result.state).ok
                for v in picks:
                    lo, hi = spec[v]
                    assert lo <= result.state[v] <= hi
                feasible_count += 1
            else:
                # infeasible by certificate: an interval strictly above the
                # maximal state, or strictly below the minimal one
                banks = net.bank_ids()
                v = rng.choice(banks)
                if rng.random() < 0.5 or minimal[v] == 0:
                    spec = {v: (maximal[v] + 1, maximal[v] + 2)}
                else:
                    spec = {v: (0, minimal[v] - F(1, 2))}
                result = solve_range_clearing(net, spec)
                assert not result.feasible
                assert result.witness is not None
                infeasible_count += 1
        assert feasible_count == 50 and infeasible_count == 50
        ok("criterion 7 (range decisions, 100 instances)")


def _sampled_clearing_state(rng, net, minimal):
    from netclear import active_graph, condense, solve_flood_step

    assets = minimal.as_dict()
    for _ in range(rng.randint(0, 3)):
        g = active_graph(net, assets)
        floodable = condense(g)
        if not floodable:
            break
        step = solve_flood_step(g, rng.choice(floodable))
        fraction = F(rng.randint(0, 4), 4)
        for member, d in step.direction.items():
            assets[member] += fraction * step.scale * d
    return assets


class TestCriterion8Scale:
    def test_n100_m400(self):
        rng = random.Random(880001)
        ids = [f"n{i:03d}" for i in range(100)]
        pairs = [(a, b) for a in ids for b in ids if a != b]
        chosen = rng.sample(pairs, 400)
        banks = [(v, rng.randint(0, 8)) for v in ids]
        claims = [(a, b, rng.randint(1, 10)) for a, b in chosen]
        out_by_bank = {}
        for a, b, _ in claims:
            out_by_bank.setdefault(a, []).append(b)
        schemes = {}
        for v, creditors in out_by_bank.items():
            if len(creditors) < 2:
                continue
            kind = rng.choice(("proportional", "edge_ranking", "priority_proportional"))
            if kind == "edge_ranking":
                order = creditors[:]
                rng.shuffle(order)
                schemes[v] = {"type": "edge_ranking", "order": order}
            elif kind == "priority_proportional":
                order = creditors[:]
                rng.shuffle(order)
                classes = [[]]
                for creditor in order:
                    if classes[-1] and rng.random() < 0.5:
                        classes.append([])
                    classes[-1].append(creditor)
                schemes[v] = {"type": "priority_proportional", "classes": classes}
        net = build_network(banks, claims, schemes)
        assert len(net.claims) == 400

        started = time.monotonic()
        minimal = compute_min_clearing(net)
        min_time = time.monotonic() - started
        assert min_time < 30.0
        assert is_clearing_state(net, minimal).ok

        started = time.monotonic()
        flood = compute_max_clearing_flood(net)
        flood_time = time.monotonic() - started
        assert flood_time < 30.0

        started = time.monotonic()
        descent = compute_max_clearing_pp(net)
        descent_time = time.monotonic() - started
        assert descent_time < 30.0
        assert flood.as_dict() == descent.as_dict()
        ok(
            "criterion 8 (n=100, m=400)",
            f"min {min_time:.1f}s, flood {flood_time:.1f}s, descent {descent_time:.1f}s",
        )
