"""Navigation of the clearing-state lattice above the minimum.

Every clearing state of a network without default cost is reachable from the
minimal one by repeatedly flooding non-singleton sink SCCs of the active
graph, partially or fully. Flooding to saturation yields the maximal state;
flooding selectively answers range queries.
Each walk holds one active graph, built at its start state, and steps its
assets through ``minimal.advance`` and ``minimal.flood_closure``.
"""

from __future__ import annotations

from fractions import Fraction

from . import errors
from .clearing import ClearingState, is_clearing_state
from .graphs import ActiveGraph, active_graph, condense
from .minimal import FloodStep, advance, compute_min_clearing, flood_closure, solve_flood_step
from .model import FinancialNetwork
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
    members reach, so it comes first in ``condense(g, v)`` exactly when ``v``
    is a member."""
    components = condense(g, v)
    if not components or v not in components[0]:
        return None
    return solve_flood_step(g, components[0])


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


class RangeSpec:
    """Closed target intervals for a subset of banks."""

    __slots__ = ("targets",)

    def __init__(self, targets: dict[str, tuple[Fraction, Fraction]]):
        self.targets = targets

    @staticmethod
    def build(net: FinancialNetwork, targets) -> "RangeSpec":
        parsed: dict[str, tuple[Fraction, Fraction]] = {}
        for bank_id, (lo, hi) in dict(targets).items():
            if bank_id not in net.banks:
                raise errors.UnknownBankError(bank_id)
            lo, hi = parse_exact(lo), parse_exact(hi)
            if not (0 <= lo <= hi):
                raise errors.InvalidSpecError(
                    f"interval for {bank_id!r} must satisfy 0 <= lo <= hi"
                )
            # Intervals above the asset ceiling are not rejected here; the
            # solver reports them as infeasible with a witness.
            parsed[bank_id] = (lo, hi)
        return RangeSpec(parsed)


INFEASIBLE_EXCEEDS = "minimal_exceeds_interval"
INFEASIBLE_STUCK = "sink_stuck"
INFEASIBLE_CONFLICT = "conflict"


class RangeResult:
    __slots__ = ("feasible", "state", "witness", "reason", "conflicting")

    def __init__(
        self,
        feasible: bool,
        state: ClearingState | None,
        witness: str | None = None,
        reason: str | None = None,
        conflicting: str | None = None,
    ):
        self.feasible = feasible
        self.state = state
        self.witness = witness
        self.reason = reason
        self.conflicting = conflicting


def solve_range_clearing(net: FinancialNetwork, spec: RangeSpec) -> RangeResult:
    """Find a clearing state with each targeted bank inside its interval.

    Starting at the minimal state, the lowest below-target bank's component is
    flooded until the bank enters its interval or the active graph changes. A
    below-target bank whose component cannot be flooded can never rise in any
    clearing state above the current one, so the instance is infeasible; the
    same holds when raising one target is only possible by pushing another
    above its interval.
    """
    require_no_default_cost(net, "solve_range_clearing")
    if not isinstance(spec, RangeSpec):
        spec = RangeSpec.build(net, spec)
    assets = compute_min_clearing(net).as_dict()
    for bank_id, (lo, hi) in sorted(spec.targets.items()):
        if assets[bank_id] > hi:
            return RangeResult(
                False, None, witness=bank_id, reason=INFEASIBLE_EXCEEDS
            )

    g = active_graph(net, assets)
    while True:
        below = sorted(
            v for v, (lo, hi) in spec.targets.items() if assets[v] < lo
        )
        if not below:
            return RangeResult(True, ClearingState(assets))
        v = below[0]
        lo_v = spec.targets[v][0]
        step = _own_sink_flood(g, v)
        if step is None:
            return RangeResult(False, None, witness=v, reason=INFEASIBLE_STUCK)
        gamma_border = step.scale
        gamma_target = (lo_v - assets[v]) / step.direction[v]
        gamma = min(gamma_border, gamma_target)
        # Cap the flood where it would push another targeted member past its
        # upper bound; if that cap prevents v from reaching its interval the
        # two targets are in conflict.
        cap_bank = None
        for w in sorted(step.component):
            if w == v or w not in spec.targets:
                continue
            hi_w = spec.targets[w][1]
            room = (hi_w - assets[w]) / step.direction[w]
            if room < gamma:
                gamma = room
                cap_bank = w
        advance(g, step.direction, gamma)
        if cap_bank is not None and assets[v] < lo_v:
            return RangeResult(
                False,
                None,
                witness=v,
                reason=INFEASIBLE_CONFLICT,
                conflicting=cap_bank,
            )
