"""Claims trading: rewriting, uniqueness, existence, and optimal returns."""

import random
from fractions import Fraction as F

import pytest

from netclear import (
    TradeSpec,
    apply_trade,
    build_network,
    compute_min_clearing,
    exists_creditor_positive,
    optimal_creditor_positive_return,
)
from netclear.errors import (
    DefaultCostUnsupportedError,
    DuplicateEdgeAfterTradeError,
    NoCreditorPositiveTradeError,
    ReturnExceedsCapError,
)

from corpus import random_network
from oracles import nonunique_banks


def trade_fixture():
    """u (ext 1) owes v 2; v owes w 3 and y 2, w ranked first; y owes v 2;
    w holds 4 in cash."""
    return build_network(
        banks=[("u", 1), ("v", 0), ("w", 4), ("y", 0)],
        claims=[("u", "v", 2), ("v", "w", 3), ("v", "y", 2), ("y", "v", 2)],
        schemes={"v": {"type": "edge_ranking", "order": ["w", "y"]}},
    )


class TestApplyTrade:
    def test_trade_at_rho_min_preserves_minimal_state(self):
        net = trade_fixture()
        base = compute_min_clearing(net)
        traded = apply_trade(net, TradeSpec(("u", "v"), "w", F(1)))
        assert traded.bank("v").external_assets == 1
        assert traded.bank("w").external_assets == 3
        assert traded.has_claim("u", "w") and not traded.has_claim("u", "v")
        post = compute_min_clearing(traded)
        assert post.as_dict() == base.as_dict()

    def test_zero_return_retargets_only(self):
        net = build_network(
            banks=[("u", 0), ("v", 0), ("w", 1)],
            claims=[("u", "v", 2)],
        )
        traded = apply_trade(net, TradeSpec(("u", "v"), "w", F(0)))
        assert traded.has_claim("u", "w")
        assert traded.bank("w").external_assets == 1

    def test_return_above_cash_rejected(self):
        net = trade_fixture()
        with pytest.raises(ReturnExceedsCapError):
            apply_trade(net, TradeSpec(("u", "v"), "w", F(5)))

    def test_return_above_liability_rejected(self):
        net = trade_fixture()
        with pytest.raises(ReturnExceedsCapError):
            apply_trade(net, TradeSpec(("u", "v"), "w", F(3)))

    def test_duplicate_edge_rejected(self):
        net = build_network(
            banks=[("u", 0), ("v", 0), ("w", 1)],
            claims=[("u", "v", 1), ("u", "w", 1)],
        )
        with pytest.raises(DuplicateEdgeAfterTradeError):
            apply_trade(net, TradeSpec(("u", "v"), "w", F(0)))

    def test_default_cost_rejected(self):
        net = build_network(
            banks=[("u", 1, "1/2", 1), ("v", 0), ("w", 1)],
            claims=[("u", "v", 2)],
        )
        with pytest.raises(
            DefaultCostUnsupportedError,
            match="^claims trading is defined for networks without default cost$",
        ):
            apply_trade(net, TradeSpec(("u", "v"), "w", F(0)))


class TestNonuniqueBanks:
    def test_two_cycle(self):
        net = build_network(
            banks=[("a", 0), ("b", 0)], claims=[("a", "b", 1), ("b", "a", 1)]
        )
        assert nonunique_banks(net) == {"a", "b"}

    def test_unique_example(self):
        net = build_network(
            banks=[("u", 1), ("v", 0), ("w", 0)],
            claims=[("u", "v", 1), ("u", "w", 1), ("w", "u", 1)],
        )
        assert nonunique_banks(net) == frozenset()

    def test_acyclic_always_unique(self):
        net = build_network(
            banks=[("a", 1), ("b", 0), ("c", 0)],
            claims=[("a", "b", 2), ("b", "c", 1)],
        )
        assert nonunique_banks(net) == frozenset()

    def test_lemma_minimal_zero_on_proportional_corpus(self):
        rng = random.Random(11)
        for _ in range(100):
            net = random_network(
                rng, max_banks=5, schemes=("proportional",), max_external=2
            )
            minimal = compute_min_clearing(net)
            for v in nonunique_banks(net):
                assert minimal[v] == 0


class TestExistence:
    def test_fixture_has_creditor_positive_trade(self):
        ok, diagnostic = exists_creditor_positive(trade_fixture(), ("u", "v"), "w")
        assert ok, diagnostic

    def test_unreachable_buyer(self):
        # v sits in a cycle with y (nonunique); w buys u's claim on v but is
        # unreachable from v, so every extra unit of return leaks away
        net = build_network(
            banks=[("u", 1), ("v", 0), ("w", 4), ("y", 0)],
            claims=[("u", "v", 2), ("v", "y", 2), ("y", "v", 2)],
        )
        ok, diagnostic = exists_creditor_positive(net, ("u", "v"), "w")
        assert not ok
        assert "buyer" in diagnostic

    def test_fully_paid_claim(self):
        net = build_network(
            banks=[("u", 2), ("v", 0), ("w", 4)],
            claims=[("u", "v", 2)],
        )
        ok, diagnostic = exists_creditor_positive(net, ("u", "v"), "w")
        assert not ok
        assert "cap" in diagnostic

    def test_cashless_buyer(self):
        net = build_network(
            banks=[("u", 1), ("v", 0), ("w", 0)],
            claims=[("u", "v", 2)],
        )
        ok, _ = exists_creditor_positive(net, ("u", "v"), "w")
        assert not ok
        with pytest.raises(NoCreditorPositiveTradeError):
            optimal_creditor_positive_return(net, ("u", "v"), "w")

    def test_agrees_with_optimizer_on_corpus(self):
        # Every valid (claim, buyer) pair of 300 small random networks.
        rng = random.Random(4242)
        pairs = positive = 0
        for _ in range(300):
            net = random_network(rng, max_banks=5)
            for claim in net.claims:
                for buyer in net.bank_ids():
                    if buyer in claim.pair or net.has_claim(claim.debtor, buyer):
                        continue
                    ok, diagnostic = exists_creditor_positive(net, claim.pair, buyer)
                    try:
                        optimal_creditor_positive_return(net, claim.pair, buyer)
                        optimal = True
                    except NoCreditorPositiveTradeError:
                        optimal = False
                    assert ok == optimal, (claim.pair, buyer, diagnostic)
                    pairs += 1
                    positive += ok
        assert (pairs, positive) == (1214, 16)


class TestOptimalReturn:
    def test_fixture_interval(self):
        net = trade_fixture()
        result = optimal_creditor_positive_return(net, ("u", "v"), "w")
        assert result.rho_min == 1
        assert result.rho_star == 2
        assert result.interval == (F(1), F(2))
        assert result.post_state["v"] == 2
        assert result.post_state["w"] == 5

    def test_pass_through_to_buyer_reaches_cap(self):
        # v pays w onward, so every extra unit of return comes straight back:
        # the whole admissible range is creditor-positive
        net = build_network(
            banks=[("u", 1), ("v", 0), ("w", 4)],
            claims=[("u", "v", 2), ("v", "w", 3)],
        )
        result = optimal_creditor_positive_return(net, ("u", "v"), "w")
        assert result.rho_star == 2  # cap = min(4, liability 2)
        assert result.post_state["w"] == compute_min_clearing(net)["w"]

    def test_flood_fires_mid_walk(self):
        # u owes v 5 with no cash, so rho_min = 0 and the walk starts at the
        # bottom. Returns up to 3 flow straight back to the buyer w through
        # v's first-ranked claim. At rho = 3 that claim fills, the {v, y}
        # cycle becomes a floodable sink and saturates, v turns solvent, and
        # any further return leaks: rho* = 3 exactly.
        net = build_network(
            banks=[("u", 0), ("v", 0), ("w", 5), ("y", 0)],
            claims=[("u", "v", 5), ("v", "w", 3), ("v", "y", 2), ("y", "v", 2)],
            schemes={"v": {"type": "edge_ranking", "order": ["w", "y"]}},
        )
        result = optimal_creditor_positive_return(net, ("u", "v"), "w")
        assert result.rho_min == 0
        assert result.rho_star == 3
        assert result.post_state.as_dict() == {
            "u": F(0),
            "v": F(3),
            "w": F(5),
            "y": F(0),
        }
        base = compute_min_clearing(net)
        # beyond rho*, the flooded phase makes v solvent and the buyer leaks
        for rho in (F(13, 4), F(4), F(5)):
            post = compute_min_clearing(
                apply_trade(net, TradeSpec(("u", "v"), "w", rho))
            )
            assert post["w"] < base["w"]
            assert post["v"] == 5 + rho - 3  # fully flooded cycle

    def test_immediate_leak_has_no_trade(self):
        # v's onward payments go to z, never back to w: raising the return
        # strictly drains the buyer
        net = build_network(
            banks=[("u", 1), ("v", 0), ("w", 4), ("z", 0)],
            claims=[("u", "v", 2), ("v", "z", 3)],
        )
        ok, diagnostic = exists_creditor_positive(net, ("u", "v"), "w")
        assert not ok
        assert "buyer" in diagnostic
        with pytest.raises(NoCreditorPositiveTradeError):
            optimal_creditor_positive_return(net, ("u", "v"), "w")


def grid_search_oracle(net, claim_pair, buyer, step=F(1, 100)):
    """Exhaustive creditor-positive search over a rational grid of returns."""
    base = compute_min_clearing(net)
    debtor, creditor = claim_pair
    claim = net.claim(debtor, creditor)
    rho_min = claim.payment.value_at(base[debtor])
    cap = min(net.bank(buyer).external_assets, claim.liability)
    best = None
    rho = rho_min + step
    while rho <= cap:
        traded = apply_trade(net, TradeSpec(claim_pair, buyer, rho))
        post = compute_min_clearing(traded)
        if post[creditor] > base[creditor] and post[buyer] >= base[buyer]:
            best = rho
        rho += step
    return rho_min, cap, best


# the shared generator biases buyers toward recoverable structures
from corpus import random_trade_instance  # noqa: E402


class TestAgainstGridOracle:
    def test_optimal_return_matches_grid(self):
        rng = random.Random(8080)
        for _ in range(30):
            net, claim_pair, buyer = random_trade_instance(rng)
            base = compute_min_clearing(net)
            creditor = claim_pair[1]
            rho_min, cap, grid_best = grid_search_oracle(net, claim_pair, buyer)
            try:
                result = optimal_creditor_positive_return(net, claim_pair, buyer)
                mine = result.rho_star
            except NoCreditorPositiveTradeError:
                mine = None
            if mine is None:
                # the true interval, if any, is narrower than one grid step
                assert grid_best is None or grid_best <= rho_min + F(1, 100)
            else:
                assert mine > rho_min
                # exactness at the returned point
                traded = apply_trade(net, TradeSpec(claim_pair, buyer, mine))
                post = compute_min_clearing(traded)
                assert post.as_dict() == result.post_state.as_dict()
                assert post[creditor] > base[creditor]
                assert post[buyer] >= base[buyer]
                if grid_best is not None:
                    assert grid_best <= mine
                    assert mine - grid_best <= F(1, 100)
                else:
                    assert mine - rho_min <= F(1, 100)
                # one grid step beyond the optimum must not be creditor-positive
                beyond = mine + F(1, 100)
                if beyond <= cap:
                    traded = apply_trade(net, TradeSpec(claim_pair, buyer, beyond))
                    post = compute_min_clearing(traded)
                    assert not (
                        post[creditor] > base[creditor] and post[buyer] >= base[buyer]
                    )

    def test_pareto_inside_the_interval(self):
        rng = random.Random(9090)
        checked = 0
        for _ in range(160):
            net, claim_pair, buyer = random_trade_instance(rng)
            base = compute_min_clearing(net)
            try:
                result = optimal_creditor_positive_return(net, claim_pair, buyer)
            except NoCreditorPositiveTradeError:
                continue
            span = result.rho_star - result.rho_min
            for k in (1, 2, 3):
                rho = result.rho_min + span * F(k, 3)
                traded = apply_trade(net, TradeSpec(claim_pair, buyer, rho))
                post = compute_min_clearing(traded)
                for v in net.bank_ids():
                    assert post[v] >= base[v]
            checked += 1
        assert checked >= 5

    def test_at_or_below_rho_min_nothing_changes(self):
        rng = random.Random(443)
        for _ in range(40):
            net, claim_pair, buyer = random_trade_instance(rng)
            base = compute_min_clearing(net)
            debtor = claim_pair[0]
            claim = net.claim(*claim_pair)
            rho_min = claim.payment.value_at(base[debtor])
            cap = min(net.bank(buyer).external_assets, claim.liability)
            if rho_min > cap:
                continue
            traded = apply_trade(net, TradeSpec(claim_pair, buyer, rho_min))
            post = compute_min_clearing(traded)
            assert post.as_dict() == base.as_dict()


class TestImpossibility:
    def test_no_trade_improves_both_strictly(self):
        rng = random.Random(31415)
        sampled = 0
        for _ in range(40):
            net = random_network(
                rng,
                max_banks=4,
                max_liability=3,
                max_external=2,
                schemes=("proportional",),
                edge_prob=0.6,
            )
            base = compute_min_clearing(net)
            for claim in net.claims:
                for buyer in net.bank_ids():
                    if buyer in claim.pair or net.has_claim(claim.debtor, buyer):
                        continue
                    cap = min(net.bank(buyer).external_assets, claim.liability)
                    if cap <= 0:
                        continue
                    for k in (1, 2, 4):
                        rho = cap * F(k, 4)
                        traded = apply_trade(net, TradeSpec(claim.pair, buyer, rho))
                        post = compute_min_clearing(traded)
                        both_strict = (
                            post[claim.pair[1]] > base[claim.pair[1]]
                            and post[buyer] > base[buyer]
                        )
                        assert not both_strict
                        sampled += 1
        assert sampled >= 100
