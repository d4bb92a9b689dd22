"""Navigation of the clearing-state lattice above the minimum.

Every clearing state of a network without default cost is reachable from the
minimal one by repeatedly flooding non-singleton sink SCCs of the active
graph, partially or fully. Flooding to saturation yields the maximal state;
flooding selectively answers range queries.
Each walk holds one active graph, built at its start state, and steps its
assets through ``minimal.advance`` and ``minimal.flood_closure``.
"""

from __future__ import annotations

from . import errors
from .clearing import ClearingState, is_clearing_state
from .graphs import ActiveGraph, active_graph, find_flood_component
from .minimal import FloodStep, advance, compute_min_clearing, flood_closure, solve_flood_step
from .model import FinancialNetwork, _Value
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
    """Maximal clearing state by greedy saturation of floodable components."""
    require_no_default_cost(net, "compute_max_clearing_flood")
    g = active_graph(net, compute_min_clearing(net).as_dict())
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
