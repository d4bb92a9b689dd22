"""Claims trading under minimal clearing.

A buyer pays a return out of its external assets for a claim and becomes its
creditor. The returns that strictly improve the seller while leaving the
buyer whole form an interval just above the claim's current payment; its
right end is found by walking the return upward along the exact linear
response of the minimal clearing state, flooding newly formed sink components
and re-solving at every payment-function border.
The walk holds one active graph of the traded network, built at its minimal
state, and steps its assets through ``minimal.flood_closure`` and
``minimal.advance``. Every minimal state here (the base state, the traded
state, ``evaluate_return``'s) comes from ``minimal.compute_min_clearing``,
which walks down from the pp maximum by reverse floods: trades reject
default costs, the only networks that need the injection driver.
"""

from __future__ import annotations

from fractions import Fraction

from . import errors
from .clearing import ClearingState, require_no_default_cost
from .graphs import ActiveGraph, active_graph
from .minimal import advance, border_scale, compute_min_clearing, flood_closure, response
from .model import Bank, Claim, FinancialNetwork, _Value, assemble


TRADING = "claims trading"


class TradeResult(_Value):
    """The claim's pre-trade payment ``rho_min``, the largest
    creditor-positive return ``rho_star`` and the ``post_state``, the
    minimal clearing state of the traded network at ``rho_star``."""

    __slots__ = ("rho_min", "rho_star", "post_state")


def _check_trade_shape(net: FinancialNetwork, claim_pair, buyer) -> Claim:
    debtor, creditor = claim_pair
    claim = net.claim(debtor, creditor)
    net.bank(buyer)
    if buyer in (debtor, creditor):
        raise errors.TradeError("the buyer must differ from both claim endpoints")
    if net.has_claim(debtor, buyer):
        raise errors.DuplicateEdgeAfterTradeError(debtor, buyer)
    return claim


def apply_trade(
    net: FinancialNetwork, claim_pair, buyer: str, rho: Fraction
) -> FinancialNetwork:
    """Re-target the claim ``(debtor, creditor)`` to the buyer and move the
    return ``rho`` between the external assets of buyer and seller; the
    debtor-side payment function is untouched."""
    require_no_default_cost(net, TRADING)
    claim = _check_trade_shape(net, claim_pair, buyer)
    debtor, creditor = claim_pair
    if rho < 0:
        raise errors.TradeError("the return must be non-negative")
    cap = min(net.bank(buyer).external_assets, claim.liability)
    if rho > cap:
        raise errors.ReturnExceedsCapError(rho, cap)

    banks = []
    for v, bank in net.banks.items():
        if v == creditor:
            banks.append(Bank(v, bank.external_assets + rho, bank.alpha, bank.beta))
        elif v == buyer:
            banks.append(Bank(v, bank.external_assets - rho, bank.alpha, bank.beta))
        else:
            banks.append(bank)
    claims = [
        Claim(debtor, buyer, claim.liability, claim.payment) if c is claim else c
        for c in net.claims
    ]
    return assemble(banks, claims)


def evaluate_return(
    net: FinancialNetwork, claim_pair, buyer: str, rho: Fraction
) -> tuple[FinancialNetwork, ClearingState, bool]:
    """The traded network at the return ``rho``, its minimal clearing state,
    and whether the return is creditor-positive there: the seller's assets
    strictly rise and the buyer's do not fall, against the minimal state of
    ``net``."""
    traded = apply_trade(net, claim_pair, buyer, rho)
    base = compute_min_clearing(net)
    post = compute_min_clearing(traded)
    creditor = claim_pair[1]
    return traded, post, post[creditor] > base[creditor] and post[buyer] >= base[buyer]


def _trade_slopes(g: ActiveGraph, v: str, w: str) -> tuple[dict, int]:
    """Response of the minimal clearing state at ``g.assets`` to moving one
    unit of external assets from the buyer ``w`` to the seller ``v``.
    Returned as ``(rates, den)``: an integer numerator over one positive
    common denominator for each bank the seller reaches, plus the buyer;
    every other bank stays put. The buyer's outgoing payments are held fixed
    (at the creditor-positive boundary its assets do not move), and the sign
    of its drift is the stop signal. A buyer outside the seller's reach gets
    no active in-edge from it, so it only loses the unit.
    """
    solved = response(g, v, {v: 1, w: -1}, frozen=w)
    if solved is None:
        raise errors.InternalInvariantError(
            "singular trade response system after flood closure"
        )
    rates, den = solved
    rates.setdefault(w, -den)
    return rates, den


def optimal_creditor_positive_return(
    net: FinancialNetwork, claim_pair, buyer
) -> TradeResult:
    """Largest creditor-positive return with its post-trade minimal state.

    The return walks up from the claim's current payment. When no
    creditor-positive return exists, ``NoCreditorPositiveTradeError`` says why.
    """
    require_no_default_cost(net, TRADING)
    claim = _check_trade_shape(net, claim_pair, buyer)
    debtor, v = claim_pair
    w = buyer
    base = compute_min_clearing(net)
    rho_min = claim.payment.value_at(base[debtor])
    cap = min(net.bank(w).external_assets, claim.liability)
    if cap <= rho_min:
        raise errors.NoCreditorPositiveTradeError(
            f"the return cap {cap} does not exceed the current payment {rho_min}"
        )

    rho = rho_min
    # The walk reads only the claims of the traded network, which do not
    # depend on the return, so it is built once at rho_min. Its least state
    # there is solved afresh: the base state also clears the traded network
    # but need not be its least state, since the trade can close a cycle
    # through the buyer that the base state keeps filled.
    traded = apply_trade(net, claim_pair, buyer, rho)
    g = active_graph(traded, compute_min_clearing(traded).as_dict())
    while True:
        # The stop path keeps the state before this flood, and drops ``g``.
        state = dict(g.assets)
        flood_closure(g, v)
        slopes, den = _trade_slopes(g, v, w)
        # The buyer's drift is never positive: its out-edges are frozen, so
        # it absorbs at most the unit injected at the seller.
        if slopes[w] < 0 or slopes[v] <= 0:
            if rho == rho_min:
                raise errors.NoCreditorPositiveTradeError(
                    "the buyer cannot recover any part of a higher return"
                    if slopes[w] < 0
                    else "a higher return does not raise the seller's assets"
                )
            break
        # slopes[w] == 0 here, so the scan leaves the buyer out. The return
        # moves by den times the scale of the integer rates.
        scale = border_scale(g, slopes, limit=(cap - rho) / den)
        advance(g, slopes, scale)
        rho += scale * den
        if rho == cap:
            state = g.assets
            break
    if state[v] <= base[v]:
        raise errors.NoCreditorPositiveTradeError(
            "the seller's assets do not strictly improve"
        )
    return TradeResult(rho_min, rho, ClearingState(state))
