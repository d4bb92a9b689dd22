"""Claims trading under minimal clearing.

A buyer pays a return out of its external assets for a claim and becomes its
creditor. The returns that strictly improve the seller while leaving the
buyer whole form an interval just above the claim's current payment; its
right end is found by walking the return upward along the exact linear
response of the minimal clearing state, flooding newly formed sink components
and re-solving at every payment-function border.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import errors
from .clearing import ClearingState
from .graphs import ActiveGraph
from .lattice import compute_max_clearing_flood, require_no_default_cost
from .minimal import border_scale, compute_min_clearing, flood_once, response
from .model import Bank, Claim, FinancialNetwork, assemble
from .rationals import ONE, ZERO


TRADING = "claims trading"


@dataclass(frozen=True)
class TradeSpec:
    claim: tuple[str, str]  # (debtor, creditor)
    buyer: str
    rho: Fraction


@dataclass(frozen=True)
class TradeResult:
    rho_min: Fraction  # pre-trade payment on the claim
    rho_star: Fraction  # largest creditor-positive return
    post_state: ClearingState  # minimal clearing state at rho_star
    interval: tuple[Fraction, Fraction]  # the half-open interval (rho_min, rho_star]


def _check_trade_shape(net: FinancialNetwork, claim_pair, buyer) -> Claim:
    debtor, creditor = claim_pair
    claim = net.claim(debtor, creditor)
    net.bank(buyer)
    if buyer in (debtor, creditor):
        raise ValueError("the buyer must differ from both claim endpoints")
    if net.has_claim(debtor, buyer):
        raise errors.DuplicateEdgeAfterTradeError(debtor, buyer)
    return claim


def apply_trade(net: FinancialNetwork, spec: TradeSpec) -> FinancialNetwork:
    """Re-target the claim to the buyer and move the return between the
    external assets of buyer and seller; the debtor-side payment function is
    untouched."""
    require_no_default_cost(net, TRADING)
    claim = _check_trade_shape(net, spec.claim, spec.buyer)
    debtor, creditor = spec.claim
    if spec.rho < 0:
        raise ValueError("the return must be non-negative")
    cap = min(net.bank(spec.buyer).external_assets, claim.liability)
    if spec.rho > cap:
        raise errors.ReturnExceedsCapError(spec.rho, cap)

    banks = []
    for v, bank in net.banks.items():
        if v == creditor:
            banks.append(Bank(v, bank.external_assets + spec.rho, bank.alpha, bank.beta))
        elif v == spec.buyer:
            banks.append(Bank(v, bank.external_assets - spec.rho, bank.alpha, bank.beta))
        else:
            banks.append(bank)
    claims = [
        Claim(debtor, spec.buyer, claim.liability, claim.payment) if c is claim else c
        for c in net.claims
    ]
    return assemble(banks, claims, dict(net.schemes))


def nonunique_banks(net: FinancialNetwork) -> frozenset[str]:
    """Banks whose minimal and maximal clearing assets differ."""
    require_no_default_cost(net, TRADING)
    low = compute_min_clearing(net)
    high = compute_max_clearing_flood(net)
    return frozenset(v for v in net.bank_ids() if low[v] != high[v])


def _flood_closure(net: FinancialNetwork, assets: dict, v: str):
    """Fully flood every non-singleton sink SCC reachable from ``v``; returns
    the flooded assets with their active graph."""
    assets = dict(assets)
    while True:
        g, step = flood_once(net, assets, v)
        if step is None:
            return assets, g


def _trade_slopes(net: FinancialNetwork, g: ActiveGraph, v: str, w: str) -> dict:
    """Response of the minimal clearing state to moving one unit of external
    assets from the buyer ``w`` to the seller ``v``; ``g`` is the active
    graph at the current state. The buyer's outgoing payments are held fixed
    (at the creditor-positive boundary its assets do not move), and the sign
    of its drift is the stop signal. A buyer outside the seller's reach gets no
    active in-edge from it, so it only loses the unit.
    """
    solved = response(g, v, {v: ONE, w: -ONE}, frozen=w)
    if solved is None:
        raise errors.InternalInvariantError(
            "singular trade response system after flood closure"
        )
    slopes = dict.fromkeys(net.bank_ids(), ZERO)
    slopes[w] = -ONE
    slopes.update(solved)
    return slopes


def _trade_walk(net: FinancialNetwork, claim_pair, buyer):
    """Walk the return up from the claim's current payment.

    Returns ``(rho_min, rho_star, post_state, base_state, reason)``. When no
    creditor-positive return exists, ``rho_star == rho_min``, ``post_state``
    is the state at ``rho_min`` and ``reason`` says why; otherwise ``reason``
    is None.
    """
    require_no_default_cost(net, TRADING)
    claim = _check_trade_shape(net, claim_pair, buyer)
    debtor, v = claim_pair
    w = buyer
    base = compute_min_clearing(net)
    rho_min = claim.payment.value_at(base[debtor])
    cap = min(net.bank(w).external_assets, claim.liability)
    if cap <= rho_min:
        reason = f"the return cap {cap} does not exceed the current payment {rho_min}"
        return rho_min, rho_min, base, base, reason

    rho = rho_min
    reason = None
    # The walk reads only the claims of the traded network, which do not
    # depend on the return, so it is built once at rho_min.
    traded = apply_trade(net, TradeSpec(claim_pair, buyer, rho))
    state = compute_min_clearing(traded).as_dict()
    while True:
        flooded, g = _flood_closure(traded, state, v)
        slopes = _trade_slopes(traded, g, v, w)
        # The buyer's drift is never positive: its out-edges are frozen, so
        # it absorbs at most the unit injected at the seller.
        if slopes[w] < 0 or slopes[v] <= 0:
            if rho == rho_min:
                reason = (
                    "the buyer cannot recover any part of a higher return"
                    if slopes[w] < 0
                    else "a higher return does not raise the seller's assets"
                )
            break
        state = flooded
        # slopes[w] == 0 here, so the scan leaves the buyer out.
        advance = border_scale(g, state, slopes, limit=cap - rho)
        for u, s_u in slopes.items():
            if s_u:
                state[u] += advance * s_u
        rho += advance
        if rho == cap:
            break
    return rho_min, rho, ClearingState(state), base, reason


def exists_creditor_positive(
    net: FinancialNetwork, claim_pair, buyer
) -> tuple[bool, str]:
    """Decide whether some return strictly improves the seller while keeping
    the buyer whole; the diagnostic explains the failure."""
    *_, reason = _trade_walk(net, claim_pair, buyer)
    if reason is not None:
        return False, reason
    return True, "a higher return raises the seller and leaves the buyer whole"


def optimal_creditor_positive_return(
    net: FinancialNetwork, claim_pair, buyer
) -> TradeResult:
    """Largest creditor-positive return with its post-trade minimal state."""
    rho_min, rho_star, post, base, _ = _trade_walk(net, claim_pair, buyer)
    if rho_star == rho_min:
        raise errors.NoCreditorPositiveTradeError(
            "no return above the current payment improves the seller "
            "without hurting the buyer"
        )
    if post[claim_pair[1]] <= base[claim_pair[1]]:
        raise errors.NoCreditorPositiveTradeError(
            "the seller's assets do not strictly improve"
        )
    return TradeResult(
        rho_min=rho_min,
        rho_star=rho_star,
        post_state=post,
        interval=(rho_min, rho_star),
    )
