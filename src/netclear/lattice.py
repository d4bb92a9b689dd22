"""Navigation of the clearing-state lattice of a network without default
cost.

Every clearing state is reachable from the minimal one by repeatedly
flooding non-singleton sink SCCs of the active graph, partially or fully.
Flooding selectively answers range queries; flooding to saturation, from
any clearing state, ends at the maximal one. Each walk holds one active
graph, built at its start state, and steps its assets through
``minimal.advance`` and ``minimal.flood_closure``.
Both extremes come from the pp maximum of ``priority``: the maximal state
is that maximum, with ``flood_closure`` on its active graph as the
certificate, and ``minimal.compute_min_clearing`` reaches the minimal one
from it by ``flood_closure`` on its ``left`` graph. Every operation here
rejects default costs first, and only those need the injection driver.
"""

from __future__ import annotations

from . import errors
from .clearing import ClearingState, is_clearing_state
from .graphs import ActiveGraph, active_graph, find_flood_component
from .minimal import FloodStep, advance, compute_min_clearing, flood_closure, solve_flood_step
from .model import FinancialNetwork, _Value
from .priority import compute_max_clearing_pp
from .rationals import parse_exact


def require_no_default_cost(net: FinancialNetwork, operation: str) -> None:
    """Reject networks with default cost from ``operation``, which is only
    defined without it."""
    if net.has_default_cost():
        raise errors.DefaultCostUnsupportedError(
            f"{operation} is defined for networks without default cost"
        )


def _own_sink_flood(g: ActiveGraph, v: str) -> FloodStep | None:
    """The flood step of the component of ``v`` in ``g``, or None when that
    component is not a non-singleton sink. A sink is the only component its
    members reach, so ``find_flood_component(g, v)`` holds ``v`` exactly
    when ``v`` is a member."""
    component = find_flood_component(g, v)
    if component is None or v not in component:
        return None
    return solve_flood_step(g, component)


def apply_flood_sequence(
    net: FinancialNetwork,
    start: ClearingState,
    steps,
) -> ClearingState:
    """Apply partial flood steps to a clearing state.

    ``steps`` is an iterable of ``(bank_id, fraction)``: the SCC currently
    containing the bank is flooded by ``fraction`` of its maximal feasible
    scale. Every intermediate state is again a clearing state, exactly.
    """
    require_no_default_cost(net, "apply_flood_sequence")
    check = is_clearing_state(net, start)
    if not check.ok:
        raise errors.NotAClearingStateError(
            f"start state is not a clearing state: {check.violations}"
        )
    g = active_graph(net, dict(start))
    for bank_id, fraction in steps:
        fraction = parse_exact(fraction)
        if not (0 <= fraction <= 1):
            raise ValueError("flood fractions must lie in [0, 1]")
        step = _own_sink_flood(g, bank_id)
        if step is None:
            raise errors.NotASinkComponentError(
                f"component of {bank_id!r} is not a non-singleton sink SCC"
            )
        advance(g, step.direction, fraction * step.scale)
    return ClearingState(g.assets)


def compute_max_clearing_flood(net: FinancialNetwork) -> ClearingState:
    """The maximal clearing state ``x^``: ``flood_closure`` on the active
    graph of the pp maximum, which floods whatever closed component is left
    there, so ``--method flood`` checks the counter descent on its own.

    Certificate: a clearing state ``x`` at which no non-singleton SCC of the
    active (right-slope) graph is closed is ``x^``. Let ``D = {x < x^}``.
    For ``v`` in ``D``, ``x^_v - x_v`` is the sum of its debtors' payment
    increments, and debtors outside ``D`` add nothing, as they sit at
    ``x^``. A bank's total payment is ``min(a, L+)``, as borders start at 0
    and slopes sum to 1 below ``L+``, so a payment rises by at most its
    asset increment. Summing over ``D`` makes every inequality tight: each
    ``u`` in ``D`` pays all of its increment over ``[x_u, x^_u]`` into
    ``D``, at total slope 1. So just above ``x_u`` every ``u`` in ``D`` has
    positive right slopes, all into ``D``, and a nonempty ``D`` would hold a
    closed SCC of the active graph, non-singleton as no bank has a claim on
    itself. So ``D`` is empty, and ``x = x^``. A flood keeps a clearing
    state clearing and only raises it, and no clearing state lies above
    ``x^``, so from any clearing start ``flood_closure`` ends at ``x^``."""
    require_no_default_cost(net, "compute_max_clearing_flood")
    g = active_graph(net, compute_max_clearing_pp(net).as_dict())
    flood_closure(g)
    return ClearingState(g.assets)


INFEASIBLE_EXCEEDS = "minimal_exceeds_interval"
INFEASIBLE_STUCK = "sink_stuck"
INFEASIBLE_CONFLICT = "conflict"


class RangeResult(_Value):
    """Whether the targets are ``feasible``, with the clearing ``state`` that
    meets them, else None; an infeasible answer names the ``witness`` bank,
    the ``reason`` and, for a conflict, the ``conflicting`` bank, and a
    feasible one has None in all three."""

    __slots__ = ("feasible", "state", "witness", "reason", "conflicting")


def solve_range_clearing(net: FinancialNetwork, targets) -> RangeResult:
    """Find a clearing state with each targeted bank inside its interval.

    ``targets`` maps bank ids to closed intervals ``(lo, hi)`` of exact
    numbers. Intervals above the asset ceiling are not rejected; they are
    reported infeasible with a witness.

    Starting at the minimal state, the lowest below-target bank's component is
    flooded until the bank enters its interval or the active graph changes. A
    below-target bank whose component cannot be flooded can never rise in any
    clearing state above the current one, so the instance is infeasible; the
    same holds when raising one target is only possible by pushing another
    above its interval.
    """
    bounds = {}
    for bank_id, (lo, hi) in targets.items():
        if bank_id not in net.banks:
            raise errors.UnknownBankError(bank_id)
        try:
            lo, hi = parse_exact(lo), parse_exact(hi)
        except ValueError as exc:
            raise errors.InvalidSpecError(str(exc)) from None
        if not (0 <= lo <= hi):
            raise errors.InvalidSpecError(
                f"interval for {bank_id!r} must satisfy 0 <= lo <= hi"
            )
        bounds[bank_id] = (lo, hi)
    require_no_default_cost(net, "solve_range_clearing")
    assets = compute_min_clearing(net).as_dict()
    for bank_id, (lo, hi) in sorted(bounds.items()):
        if assets[bank_id] > hi:
            return RangeResult(False, None, bank_id, INFEASIBLE_EXCEEDS, None)

    g = active_graph(net, assets)
    while True:
        below = sorted(
            v for v, (lo, hi) in bounds.items() if assets[v] < lo
        )
        if not below:
            return RangeResult(True, ClearingState(assets), None, None, None)
        v = below[0]
        lo_v = bounds[v][0]
        step = _own_sink_flood(g, v)
        if step is None:
            return RangeResult(False, None, v, INFEASIBLE_STUCK, None)
        gamma_border = step.scale
        gamma_target = (lo_v - assets[v]) / step.direction[v]
        gamma = min(gamma_border, gamma_target)
        # Cap the flood where it would push another targeted member past its
        # upper bound; if that cap prevents v from reaching its interval the
        # two targets are in conflict.
        cap_bank = None
        for w in sorted(step.component):
            if w == v or w not in bounds:
                continue
            hi_w = bounds[w][1]
            room = (hi_w - assets[w]) / step.direction[w]
            if room < gamma:
                gamma = room
                cap_bank = w
        advance(g, step.direction, gamma)
        if cap_bank is not None and assets[v] < lo_v:
            return RangeResult(False, None, v, INFEASIBLE_CONFLICT, cap_bank)
