"""Maximal clearing via the priority-proportional route.

Any network with piecewise-linear payments is equivalent to one with
priority-proportional payments: merge each bank's out-edge borders into one
grid, split every claim into one piece per grid class, and route each piece
through a zero-asset relay bank so the result stays a simple graph.

The maximal clearing state is then found by a counter descent: assume every
bank pays all of its classes, test whether a consistent state exists, and
lower the counters of the banks whose class floor is unreachable until the
test passes. The feasibility test and the final maximization are solved
exactly on the class structure (relays eliminated by substitution); both are
cross-checked against the explicit LP formulation in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import errors
from .clearing import ClearingState, is_clearing_state
from .graphs import strongly_connected
from .linalg import solve_linear_system, unit_left_nullspace
from .model import Bank, Claim, FinancialNetwork, PaymentFunction, assemble
from .rationals import ONE, ZERO


@dataclass(frozen=True)
class BankClasses:
    """Priority classes of one bank on its merged border grid."""

    grid: tuple[Fraction, ...]  # 0 = x_0 < x_1 < ... < x_k = L+(v)
    # pieces[j] lists (creditor, piece liability) for class j+1
    pieces: tuple[tuple[tuple[str, Fraction], ...], ...]

    @property
    def class_count(self) -> int:
        return len(self.pieces)

    def class_total(self, j: int) -> Fraction:
        return self.grid[j + 1] - self.grid[j]


def priority_structure(net: FinancialNetwork) -> dict[str, BankClasses]:
    """Merged-grid class decomposition of every bank's out-claims."""
    structure: dict[str, BankClasses] = {}
    for v in net.bank_ids():
        out = net.out_claims(v)
        if not out or net.total_out(v) == 0:
            structure[v] = BankClasses(grid=(ZERO,), pieces=())
            continue
        grid = sorted({x for claim in out for x in claim.payment.borders})
        pieces: list[tuple[tuple[str, Fraction], ...]] = []
        for j in range(len(grid) - 1):
            width = grid[j + 1] - grid[j]
            entries = []
            for claim in out:
                slope = claim.payment.slope_at(grid[j])
                if slope > 0:
                    entries.append((claim.creditor, slope * width))
            pieces.append(tuple(entries))
        structure[v] = BankClasses(grid=tuple(grid), pieces=tuple(pieces))
    return structure


@dataclass(frozen=True)
class TransformCertificate:
    relays: dict[str, tuple[str, str, int]]  # relay id -> (debtor, creditor, class)
    piece_edges: dict[tuple[str, str], tuple[str, ...]]  # claim -> relays per class


def to_priority_proportional(
    net: FinancialNetwork,
) -> tuple[FinancialNetwork, TransformCertificate]:
    """Equivalent network in which every bank pays by priority classes.

    Each original claim is split into per-class pieces whose liabilities sum
    to the original liability. A piece travels through a fresh relay bank with
    a single pass-through edge of the piece's liability and slope 1, so no
    parallel edges arise. The relay reaches that liability exactly when its
    debtor reaches the piece's class border, so payments are unchanged.
    Pieces with zero liability are dropped.
    """
    structure = priority_structure(net)
    taken = set(net.bank_ids())
    banks: list[Bank] = [net.bank(v) for v in net.bank_ids()]
    claims: list[Claim] = []
    relays: dict[str, tuple[str, str, int]] = {}
    piece_edges: dict[tuple[str, str], dict[int, str]] = {
        claim.pair: {} for claim in net.claims
    }

    for v in net.bank_ids():
        classes = structure[v]
        grid = classes.grid
        k = classes.class_count
        for j in range(k):
            for creditor, liability in classes.pieces[j]:
                relay_id = f"{v}~{creditor}~{j + 1}"
                while relay_id in taken:
                    relay_id += "_"
                taken.add(relay_id)
                relays[relay_id] = (v, creditor, j + 1)
                piece_edges[(v, creditor)][j + 1] = relay_id
                slopes = [ZERO] * k
                slopes[j] = liability / classes.class_total(j)
                claims.append(
                    Claim(v, relay_id, liability, PaymentFunction(grid, tuple(slopes)))
                )
                passthrough = PaymentFunction((ZERO, liability), (ONE,))
                claims.append(Claim(relay_id, creditor, liability, passthrough))
                banks.append(Bank(relay_id, ZERO, ONE, ONE))

    certificate = TransformCertificate(
        relays=relays,
        piece_edges={
            pair: tuple(by_class[j] for j in sorted(by_class))
            for pair, by_class in piece_edges.items()
        },
    )
    return assemble(banks, claims), certificate


# --- counter descent ---------------------------------------------------------

@dataclass(frozen=True)
class _CounterSystem:
    """Linear system behind the feasibility test at fixed counters.

    With counters r, anything a bank pays on classes up to r is a constant and
    class r+1 is paid proportionally to the headroom t_v - x_{v,r}. Incoming
    payments are therefore affine in t, so assets satisfy a = W t + c with
    W >= 0 and every cycle product <= 1.
    """

    order: tuple[str, ...]
    w: dict[str, dict[str, Fraction]]  # w[v][u]: coefficient of t_u in a_v
    c: dict[str, Fraction]
    floor: dict[str, Fraction]  # x_{v, r_v}
    cap: dict[str, Fraction | None]  # x_{v, r_v + 1}; None when r_v = k_v


def _counter_system(
    net: FinancialNetwork, structure: dict[str, BankClasses], counters: dict[str, int]
) -> _CounterSystem:
    w: dict[str, dict[str, Fraction]] = {v: {} for v in net.bank_ids()}
    c: dict[str, Fraction] = {}
    floor: dict[str, Fraction] = {}
    cap: dict[str, Fraction | None] = {}
    for v in net.bank_ids():
        bank = net.bank(v)
        classes = structure[v]
        r = counters[v]
        floor[v] = classes.grid[r]
        cap[v] = classes.grid[r + 1] if r < classes.class_count else None
        solvent_row = r == classes.class_count
        scale_ext = ONE if solvent_row else bank.alpha
        c[v] = scale_ext * bank.external_assets

    for u in net.bank_ids():
        classes = structure[u]
        r = counters[u]
        fixed: dict[str, Fraction] = {}
        for j in range(r):
            for creditor, liability in classes.pieces[j]:
                fixed[creditor] = fixed.get(creditor, ZERO) + liability
        for creditor, amount in fixed.items():
            bank = net.bank(creditor)
            scale = ONE if counters[creditor] == structure[creditor].class_count else bank.beta
            c[creditor] += scale * amount
        if r < classes.class_count:
            class_total = classes.class_total(r)
            for creditor, liability in classes.pieces[r]:
                bank = net.bank(creditor)
                scale = (
                    ONE
                    if counters[creditor] == structure[creditor].class_count
                    else bank.beta
                )
                coeff = scale * liability / class_total
                w[creditor][u] = w[creditor].get(u, ZERO) + coeff
                c[creditor] -= coeff * classes.grid[r]
    return _CounterSystem(
        order=net.bank_ids(), w=w, c=c, floor=floor, cap=cap
    )


class _Insatiable(Exception):
    """A closed circulation block cannot absorb its net injection at the
    current counters; carries the block's members."""

    def __init__(self, members):
        self.members = set(members)
        super().__init__("insatiable circulation block")


def _blocks_in_order(system: _CounterSystem) -> list[list[str]]:
    """SCC blocks of the dependency graph (t_u feeds a_v), topologically
    ordered so every block's inputs are solved first."""
    nodes = list(system.order)
    out: dict[str, list[str]] = {v: [] for v in nodes}  # u -> dependents v
    for v, row in system.w.items():
        for u in row:
            out[u].append(v)

    blocks = strongly_connected(nodes, out.__getitem__)
    # Tarjan emits blocks in reverse topological order of the dependency
    # graph, i.e. dependents before their inputs; reverse it.
    return [sorted(block) for block in reversed(blocks)]


def _flow_rows(system, members, t):
    """Sparse rows and right-hand side of the flow equalities
    ``(I - W_BB) t_B = c_B + W_B,rest t_rest`` on the block ``members``, with
    the inputs outside the block taken from ``t``."""
    idx = {v: i for i, v in enumerate(members)}
    rows = []
    rhs = []
    for i, v in enumerate(members):
        row = [(i, ONE)]
        acc = system.c[v]
        for u, coeff in system.w[v].items():
            if u in idx:
                if coeff:
                    row.append((idx[u], -coeff))
            else:
                acc += coeff * t[u]
        rows.append(row)
        rhs.append(acc)
    return rows, rhs


def _assets(system: _CounterSystem, t, v: str) -> Fraction:
    """The affine asset map ``a_v = c_v + sum_u w_vu t_u``."""
    acc = system.c[v]
    for u, coeff in system.w[v].items():
        acc += coeff * t[u]
    return acc


def _solve_block_least(system, block, t):
    """Least fixed point of t_B = max(floor_B, (W t + c)_B) given solved
    inputs, by promoting coordinates from their floors as forced."""
    members = sorted(block)
    flow: set[str] = set()
    for v in members:
        t[v] = system.floor[v]

    while True:
        promote = [
            v for v in members if v not in flow and _assets(system, t, v) > t[v]
        ]
        if not promote:
            return
        flow.update(promote)
        f = sorted(flow)
        solution = solve_linear_system(*_flow_rows(system, f, t))
        if solution is not None:
            for i, v in enumerate(f):
                t[v] = solution[i]
            continue
        # Closed circulation block: the flow equations are singular. Solve
        # the consistent line t = particular + gamma * h and take the least
        # point at or above the floors; inconsistency means the injection
        # cannot circulate at these counters.
        if len(f) != len(members):
            raise errors.InternalInvariantError(
                "singular flow system on a strict sub-block"
            )
        particular, direction = _solve_singular_line(system, f, t)
        if particular is None:
            raise _Insatiable(members)
        gamma = max(
            (system.floor[v] - particular[i]) / direction[i]
            for i, v in enumerate(f)
        )
        for i, v in enumerate(f):
            t[v] = particular[i] + gamma * direction[i]
        return


def _solve_singular_line(system, members, t):
    """Particular solution and positive null direction of
    (I - W_BB) x = g on a closed block; (None, None) when inconsistent."""
    rows, g = _flow_rows(system, members, t)
    # The null direction d = W_BB d is the left Perron vector of W_BB^T, and
    # the rows of I - W_BB are the columns of I - W_BB^T.
    try:
        direction = unit_left_nullspace(rows)
    except errors.DegenerateMatrixError:
        raise errors.InternalInvariantError("closed block without Perron direction")
    # Particular solution: pin the first coordinate to its floor in place of
    # the first equation, then test the dropped equation by substitution.
    pinned = [[(0, ONE)]] + rows[1:]
    solution = solve_linear_system(pinned, [system.floor[members[0]]] + g[1:])
    if solution is None or sum((x * solution[j] for j, x in rows[0]), ZERO) != g[0]:
        return None, None
    return solution, direction


def _solve_block_greatest(system, block, t):
    """Exact flow equalities on a block, taking the largest point under the
    caps when the block carries a free circulation."""
    members = sorted(block)
    solution = solve_linear_system(*_flow_rows(system, members, t))
    if solution is not None:
        for i, v in enumerate(members):
            t[v] = solution[i]
        return
    particular, direction = _solve_singular_line(system, members, t)
    if particular is None:
        raise errors.InternalInvariantError(
            "inconsistent circulation block at the final counters"
        )
    rooms = [
        (system.cap[v] - particular[i]) / direction[i]
        for i, v in enumerate(members)
        if system.cap[v] is not None
    ]
    if not rooms:
        raise errors.InternalInvariantError("closed block without any cap")
    gamma = min(rooms)
    for i, v in enumerate(members):
        t[v] = particular[i] + gamma * direction[i]


def _solve_counters(net, structure, counters, mode):
    """Solve the feasibility system at fixed counters.

    ``mode='least'`` returns the normalized minimum-offset solution
    ``(t, a, d)``; ``mode='greatest'`` returns the asset-maximal exact state.
    Raises ``_Insatiable`` when a closed block cannot absorb its injection.
    """
    system = _counter_system(net, structure, counters)
    t: dict[str, Fraction] = {}
    for block in _blocks_in_order(system):
        if mode == "least":
            _solve_block_least(system, block, t)
        else:
            _solve_block_greatest(system, block, t)
    a = {v: _assets(system, t, v) for v in system.order}
    d = {v: t[v] - a[v] for v in system.order}
    return t, a, d


def compute_max_clearing_pp(net: FinancialNetwork) -> ClearingState:
    """Maximal clearing state via counter descent; default costs allowed."""
    structure = priority_structure(net)
    counters = {v: structure[v].class_count for v in net.bank_ids()}
    for _ in range(sum(counters.values()) + 1):
        try:
            t, a, d = _solve_counters(net, structure, counters, "least")
        except _Insatiable as blocked:
            lowered = False
            for v in sorted(blocked.members):
                if counters[v] > 0:
                    counters[v] -= 1
                    lowered = True
            if not lowered:
                raise errors.InternalInvariantError(
                    "insatiable block with all counters at zero"
                )
            continue
        offenders = sorted(v for v, offset in d.items() if offset > 0)
        if not offenders:
            _, a, _ = _solve_counters(net, structure, counters, "greatest")
            state = ClearingState(a)
            if not is_clearing_state(net, state).ok:
                raise errors.InternalInvariantError(
                    "counter descent settled on a non-clearing state"
                )
            return state
        for v in offenders:
            if counters[v] == 0:
                raise errors.InternalInvariantError(
                    "positive offset at counter zero"
                )
            counters[v] -= 1
    raise errors.InternalInvariantError("counter descent failed to terminate")
