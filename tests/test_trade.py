"""Claims trading: rewriting, uniqueness, existence, and optimal returns."""

import random
from fractions import Fraction as F

import pytest

from netclear import (
    apply_trade,
    build_network,
    compute_min_clearing,
    is_clearing_state,
    optimal_creditor_positive_return,
    run_min_clearing,
)
from netclear.errors import (
    DefaultCostUnsupportedError,
    DuplicateEdgeAfterTradeError,
    NoCreditorPositiveTradeError,
    ReturnExceedsCapError,
    TradeError,
)

from corpus import random_network
from oracles import exists_creditor_positive, nonunique_banks


def least(net):
    """The least state of ``run_min_clearing``: the optimizer's own
    min-clears go top-down from the pp maximum, so its results are checked
    against the injection driver."""
    return run_min_clearing(net).state


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
        traded = apply_trade(net, ("u", "v"), "w", F(1))
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
        traded = apply_trade(net, ("u", "v"), "w", F(0))
        assert traded.has_claim("u", "w")
        assert traded.bank("w").external_assets == 1

    def test_return_above_cash_rejected(self):
        net = trade_fixture()
        with pytest.raises(ReturnExceedsCapError):
            apply_trade(net, ("u", "v"), "w", F(5))

    def test_return_above_liability_rejected(self):
        net = trade_fixture()
        with pytest.raises(ReturnExceedsCapError):
            apply_trade(net, ("u", "v"), "w", F(3))

    @pytest.mark.parametrize(
        "buyer, rho, message",
        [
            ("u", F(1), "buyer must differ"),
            ("v", F(1), "buyer must differ"),
            ("w", F(-1), "non-negative"),
        ],
    )
    def test_shape_and_sign_are_trade_errors(self, buyer, rho, message):
        # trade errors, so the CLI reads them as input errors; still
        # ValueErrors for library callers
        with pytest.raises(TradeError, match=message) as caught:
            apply_trade(trade_fixture(), ("u", "v"), buyer, rho)
        assert isinstance(caught.value, ValueError)

    def test_duplicate_edge_rejected(self):
        net = build_network(
            banks=[("u", 0), ("v", 0), ("w", 1)],
            claims=[("u", "v", 1), ("u", "w", 1)],
        )
        with pytest.raises(DuplicateEdgeAfterTradeError):
            apply_trade(net, ("u", "v"), "w", F(0))

    def test_default_cost_rejected(self):
        net = build_network(
            banks=[("u", 1, "1/2", 1), ("v", 0), ("w", 1)],
            claims=[("u", "v", 2)],
        )
        with pytest.raises(
            DefaultCostUnsupportedError,
            match="^claims trading is defined for networks without default cost$",
        ):
            apply_trade(net, ("u", "v"), "w", F(0))


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


# What the trade walk reports when no return above the current payment is
# creditor-positive, besides a cap at or below that payment.
WALK_REASONS = (
    "the buyer cannot recover any part of a higher return",
    "a higher return does not raise the seller's assets",
    "the seller's assets do not strictly improve",
)


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
        # Every valid (claim, buyer) pair of 300 small random networks: a
        # positive answer holds at the optimizer's return, and a negative one
        # gives one of the walk's reasons.
        rng = random.Random(4242)
        pairs = positive = 0
        for _ in range(300):
            net = random_network(rng, max_banks=5)
            base = least(net)
            for claim in net.claims:
                for buyer in net.bank_ids():
                    if buyer in claim.pair or net.has_claim(claim.debtor, buyer):
                        continue
                    ok, diagnostic = exists_creditor_positive(net, claim.pair, buyer)
                    if ok:
                        result = optimal_creditor_positive_return(net, claim.pair, buyer)
                        traded = apply_trade(net, claim.pair, buyer, result.rho_star)
                        post = least(traded)
                        assert post[claim.creditor] > base[claim.creditor]
                        assert post[buyer] >= base[buyer]
                    else:
                        assert diagnostic in WALK_REASONS or diagnostic.startswith(
                            "the return cap "
                        ), diagnostic
                    pairs += 1
                    positive += ok
        assert (pairs, positive) == (1214, 16)


class TestOptimalReturn:
    def test_fixture_interval(self):
        net = trade_fixture()
        result = optimal_creditor_positive_return(net, ("u", "v"), "w")
        assert result.rho_min == 1
        assert result.rho_star == 2
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
        assert result.post_state["w"] == least(net)["w"]

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
        base = least(net)
        # beyond rho*, the flooded phase makes v solvent and the buyer leaks
        for rho in (F(13, 4), F(4), F(5)):
            post = least(
                apply_trade(net, ("u", "v"), "w", rho)
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
    base = least(net)
    debtor, creditor = claim_pair
    claim = net.claim(debtor, creditor)
    rho_min = claim.payment.value_at(base[debtor])
    cap = min(net.bank(buyer).external_assets, claim.liability)
    best = None
    rho = rho_min + step
    while rho <= cap:
        traded = apply_trade(net, claim_pair, buyer, rho)
        post = least(traded)
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
            base = least(net)
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
                traded = apply_trade(net, claim_pair, buyer, mine)
                post = least(traded)
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
                    traded = apply_trade(net, claim_pair, buyer, beyond)
                    post = least(traded)
                    assert not (
                        post[creditor] > base[creditor] and post[buyer] >= base[buyer]
                    )

    def test_pareto_inside_the_interval(self):
        rng = random.Random(9090)
        checked = 0
        for _ in range(160):
            net, claim_pair, buyer = random_trade_instance(rng)
            base = least(net)
            try:
                result = optimal_creditor_positive_return(net, claim_pair, buyer)
            except NoCreditorPositiveTradeError:
                continue
            span = result.rho_star - result.rho_min
            for k in (1, 2, 3):
                rho = result.rho_min + span * F(k, 3)
                traded = apply_trade(net, claim_pair, buyer, rho)
                post = least(traded)
                for v in net.bank_ids():
                    assert post[v] >= base[v]
            checked += 1
        assert checked >= 5

    def test_at_or_below_rho_min_nothing_changes(self):
        """On these 40 generated instances the traded network's least state
        at ``rho_min`` equals the base state. That is a property of
        ``random_trade_instance``'s networks, not a theorem:
        ``test_base_state_is_not_the_least_traded_state`` is an instance
        where it fails."""
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
            traded = apply_trade(net, claim_pair, buyer, rho_min)
            post = compute_min_clearing(traded)
            assert post.as_dict() == base.as_dict()


    def test_base_state_is_not_the_least_traded_state(self):
        # w pays z first, then u; u passes what it gets to v. Trading u's
        # claim on v to w at rho_min closes the cycle w -> u -> w, which the
        # base state keeps filled at 2 while the least state leaves it empty.
        net = build_network(
            banks=[("w", 5), ("u", 0), ("v", 0), ("z", 0)],
            claims=[("w", "z", 3), ("w", "u", 10), ("u", "v", 10)],
            schemes={"w": {"type": "edge_ranking", "order": ["z", "u"]}},
        )
        base = least(net)
        assert (base["w"], base["u"]) == (5, 2)
        rho_min = net.claim("u", "v").payment.value_at(base["u"])
        assert rho_min == 2 and min(net.bank("w").external_assets, F(10)) == 5
        traded = apply_trade(net, ("u", "v"), "w", rho_min)
        lowest = least(traded)
        assert (lowest["w"], lowest["u"]) == (3, 0)
        # the base state still clears the traded network, above its least state
        assert is_clearing_state(traded, base).ok
        assert lowest.as_dict() != base.as_dict()
        with pytest.raises(NoCreditorPositiveTradeError, match="cannot recover"):
            optimal_creditor_positive_return(net, ("u", "v"), "w")


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
                        traded = apply_trade(net, claim.pair, buyer, rho)
                        post = compute_min_clearing(traded)
                        both_strict = (
                            post[claim.pair[1]] > base[claim.pair[1]]
                            and post[buyer] > base[buyer]
                        )
                        assert not both_strict
                        sampled += 1
        assert sampled >= 100
