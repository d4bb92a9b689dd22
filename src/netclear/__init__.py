"""Exact-arithmetic clearing engine for financial networks.

Computes minimal, maximal, arbitrary, and range-constrained clearing states of
networks with monotone piecewise-linear payment functions and default costs,
and decides/optimizes creditor-positive claims trades. All core arithmetic is
exact rational; decimal output is a display projection.
"""

__version__ = "0.1.0"

from .clearing import (
    ClearingState,
    bottom_iterate,
    incoming_assets,
    is_clearing_state,
    payments,
    phi,
    top_iterate,
)
from .graphs import active_graph, condense, find_flood_component, reachable_from
from .lattice import (
    RangeResult,
    RangeSpec,
    apply_flood_sequence,
    compute_max_clearing_flood,
    solve_range_clearing,
)
from .linalg import solve_linear_system, unit_left_nullspace
from .minimal import (
    AdjustedNetwork,
    FloodStep,
    IncreaseStep,
    MinClearingRun,
    adjust_default_cost,
    compute_min_clearing,
    rewire_solvent_bank,
    run_min_clearing,
    solve_flood_step,
    solve_increase_step,
)
from .model import (
    Bank,
    Claim,
    FinancialNetwork,
    PaymentFunction,
    build_network,
    make_edge_ranking,
    make_priority_proportional,
    make_proportional,
    validate_network,
)
from .priority import compute_max_clearing_pp, priority_structure
from .trade import (
    TradeResult,
    TradeSpec,
    apply_trade,
    exists_creditor_positive,
    optimal_creditor_positive_return,
)
