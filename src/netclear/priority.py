"""Maximal clearing via the priority-proportional route.

Any network with piecewise-linear payments is equivalent to one with
priority-proportional payments: merge each bank's out-edge borders into one
grid and split every claim into one piece per grid class. The route works on
that class structure (``priority_structure``) directly; the explicit
transformed network, with each piece routed through a zero-asset relay bank,
is built only by the test suite's oracle.

The maximal clearing state is then found by a counter descent: assume every
bank pays all of its classes, test whether a consistent state exists, and
lower the counters of the banks whose class floor is unreachable until the
test passes. A bank whose assets fall short of its floor jumps straight to
the class those assets reach: in the maximal state such a bank holds at most
those assets (see ``_lower``), so the jump never passes the maximal state's
class, and lowering by one is the special case. One counter system
serves the whole descent: a lowering refreshes only the rows it touches (the
lowered banks' own, and those of the creditors in the classes between the
old and new counters), and a one-bank block is solved by substitution. The
last round's least solution is the final state wherever its block has one
solution; only a block that may have more is maximized under its caps. The
feasibility test and the final maximization are solved exactly on the class
structure (relays eliminated by substitution); both are cross-checked against
the explicit LP formulation in the test suite.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction

from . import errors
from .clearing import ClearingState, is_clearing_state
from .graphs import strongly_connected
from .linalg import solve_linear_system, unit_left_nullspace
from .axioms import merged_slopes
from .model import FinancialNetwork
from .rationals import ONE, ZERO


class BankClasses:
    """Priority classes of one bank on its merged border grid."""

    __slots__ = ("grid", "pieces")

    def __init__(
        self,
        grid: tuple[Fraction, ...],
        pieces: tuple[tuple[tuple[str, Fraction], ...], ...],
    ):
        self.grid = grid  # 0 = x_0 < x_1 < ... < x_k = L+(v)
        # pieces[j] lists (creditor, piece liability) for class j+1
        self.pieces = pieces

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
        grid, slopes = merged_slopes(out)
        pieces: list[tuple[tuple[str, Fraction], ...]] = []
        for j in range(len(grid) - 1):
            width = grid[j + 1] - grid[j]
            entries = []
            for claim, row in zip(out, slopes):
                if row[j] > 0:
                    entries.append((claim.creditor, row[j] * width))
            pieces.append(tuple(entries))
        structure[v] = BankClasses(grid=grid, pieces=tuple(pieces))
    return structure


# --- counter descent ---------------------------------------------------------

class _CounterSystem:
    """Linear system behind the feasibility test at fixed counters.

    With counters r, anything a bank pays on classes up to r is a constant and
    class r+1 is paid proportionally to the headroom t_v - x_{v,r}. Incoming
    payments are therefore affine in t, so assets satisfy a = W t + c with
    W >= 0 and every cycle product <= 1. The row maps are updated in place by
    ``_refresh_rows``, so one system serves a whole descent.
    """

    __slots__ = ("order", "w", "c", "floor", "cap", "sources")

    def __init__(
        self,
        order: tuple[str, ...],
        w: dict[str, dict[str, Fraction]],
        c: dict[str, Fraction],
        floor: dict[str, Fraction],
        cap: dict[str, Fraction | None],
        sources: dict[str, dict[str, list[tuple[int, Fraction]]]],
    ):
        self.order = order
        self.w = w  # w[v][u]: coefficient of t_u in a_v
        self.c = c
        self.floor = floor  # x_{v, r_v}
        self.cap = cap  # x_{v, r_v + 1}; None when r_v = k_v
        # sources[v][u]: (class index, piece liability) of v's pieces among the
        # classes of its debtor u, in class order; debtors in bank order
        self.sources = sources


def _refresh_rows(
    system: _CounterSystem,
    net: FinancialNetwork,
    structure: dict[str, BankClasses],
    counters: dict[str, int],
    banks,
) -> None:
    """Recompute, in place, the rows of ``banks`` at ``counters``; other rows
    are left as they are. A bank's row is its floor and cap, and what its
    debtors pay into it, each linearised on its own counter segment, scaled
    by the bank's haircuts (alpha on external assets, beta on payments)
    unless its counter is at the top."""
    for v in banks:
        bank = net.bank(v)
        classes = structure[v]
        r = counters[v]
        solvent = r == classes.class_count
        system.floor[v] = classes.grid[r]
        system.cap[v] = None if solvent else classes.grid[r + 1]
        row: dict[str, Fraction] = {}
        paid = ZERO  # constant part of the unscaled inflow
        for u, pieces in system.sources[v].items():
            ru = counters[u]
            for j, liability in pieces:
                if j < ru:
                    paid += liability
                    continue
                if j == ru:
                    debtor = structure[u]
                    share = liability / debtor.class_total(ru)
                    row[u] = share
                    paid -= share * debtor.grid[ru]
                break
        if solvent:
            system.w[v] = row
            system.c[v] = bank.external_assets + paid
        else:
            beta = bank.beta
            system.w[v] = {u: beta * share for u, share in row.items()}
            system.c[v] = bank.alpha * bank.external_assets + beta * paid


def _counter_system(
    net: FinancialNetwork, structure: dict[str, BankClasses], counters: dict[str, int]
) -> _CounterSystem:
    """The system at ``counters``: a refresh of every row."""
    order = net.bank_ids()
    sources: dict[str, dict[str, list[tuple[int, Fraction]]]] = {v: {} for v in order}
    for u in order:
        for j, pieces in enumerate(structure[u].pieces):
            for creditor, liability in pieces:
                sources[creditor].setdefault(u, []).append((j, liability))
    system = _CounterSystem(order=order, w={}, c={}, floor={}, cap={}, sources=sources)
    _refresh_rows(system, net, structure, counters, order)
    return system


def _lower(system, net, structure, counters, banks, assets=None) -> None:
    """Lower the counter of each of ``banks`` and refresh the rows that this
    touches: the lowered banks' own, and those of the creditors in every class
    from the new counter up to the old one (classes no longer paid, or now
    paid in proportion).

    With ``assets`` each bank jumps straight to the class its assets reach,
    ``bisect_right(grid, a_v) - 1``; without, it drops by one. The jump keeps
    the counters at or above the classes ``r*`` of the maximal state ``x*``.
    Let ``r >= r*``, let ``t`` solve the round's system and ``D = {t < x*}``.
    Then ``d = x* - t`` satisfies ``d_D <= W_DD d_D``. Every column of ``W``
    sums to at most 1 (column ``u`` adds up the shares of ``u``'s current
    class, each scaled by a haircut of at most 1), so summing over ``D``
    makes every one of these inequalities tight: ``D`` keeps all of its
    marginal flow inside itself, and each of its banks has ``a = t``. A lowered bank has
    ``a_v < t_v``, so it lies outside ``D``: ``x*_v <= a_v``, hence
    ``r*_v <= class(a_v)`` and ``r >= r*`` holds after the jump. The
    insatiable rounds lower by one."""
    touched = set(banks)
    for v in banks:
        classes = structure[v]
        old = counters[v]
        new = old - 1 if assets is None else bisect_right(classes.grid, assets[v]) - 1
        counters[v] = new
        for pieces in classes.pieces[new : old + 1]:
            touched.update(creditor for creditor, _ in pieces)
    _refresh_rows(system, net, structure, counters, touched)


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


def _solve_block_least(system, block, t) -> tuple[dict[str, Fraction], bool]:
    """Least fixed point of t_B = max(floor_B, (W t + c)_B) given solved
    inputs, by promoting coordinates from their floors as forced. Returns
    the members' assets, and whether the block's flow equalities have just
    this solution: true for one bank and for a nonsingular solve of all the
    members, false when some member was never promoted. Raises
    ``_Insatiable`` when the flow equalities of all the members are
    singular."""
    members = sorted(block)
    if len(members) == 1:
        # No bank has a claim on itself, so a_v does not read t_v.
        v = members[0]
        assets = _assets(system, t, v)
        t[v] = max(system.floor[v], assets)
        return {v: assets}, True
    flow: set[str] = set()
    for v in members:
        t[v] = system.floor[v]

    while True:
        assets = {v: _assets(system, t, v) for v in members if v not in flow}
        promote = [v for v, a in assets.items() if a > t[v]]
        if not promote:
            # the flow equalities hold on the promoted members: a = t there
            assets.update((v, t[v]) for v in flow)
            return assets, len(flow) == len(members)
        flow.update(promote)
        f = sorted(flow)
        solution = solve_linear_system(*_flow_rows(system, f, t))
        if solution is not None:
            numerators, den = solution
            for v, x in zip(f, numerators):
                t[v] = Fraction(x, den)
            continue
        # Singular on all the members. Every column of W_BB sums to at most
        # 1, so the block holds a closed circulation C (every column of
        # W_CC sums to 1, so t_C feeds nothing outside C), and every flow
        # set holding all of C is singular: this promotion took a member of
        # C at a > t. The promoted members have a = t, so the sum of a - t
        # over C, which does not read t_C, is positive; the other inputs of
        # C only rise in a solve, while the summed C-equations ask for that
        # sum to be 0. So the block cannot absorb its injection here.
        if len(f) != len(members):
            raise errors.InternalInvariantError(
                "singular flow system on a strict sub-block"
            )
        raise _Insatiable(members)


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
    if solution is None:
        return None, None
    numerators, den = solution
    particular = [Fraction(x, den) for x in numerators]
    if sum((x * particular[j] for j, x in rows[0]), ZERO) != g[0]:
        return None, None
    return particular, direction


def _solve_block_greatest(system, block, t):
    """Exact flow equalities on a block, taking the largest point under the
    caps when the block carries a free circulation."""
    members = sorted(block)
    if len(members) == 1:
        v = members[0]
        t[v] = _assets(system, t, v)
        return
    solution = solve_linear_system(*_flow_rows(system, members, t))
    if solution is not None:
        numerators, den = solution
        for v, x in zip(members, numerators):
            t[v] = Fraction(x, den)
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


def _solve_counters(system: _CounterSystem):
    """Least solution ``(t, a)`` of t = max(floor, W t + c) and its assets,
    solved block by block, inputs first, with the blocks from the first one
    whose flow equalities may have other solutions onward (empty when none
    may). Raises ``_Insatiable`` when a closed block cannot absorb its
    injection.
    """
    t: dict[str, Fraction] = {}
    a: dict[str, Fraction] = {}
    open_blocks = []
    for block in _blocks_in_order(system):
        assets, unique = _solve_block_least(system, block, t)
        a.update(assets)
        if open_blocks or not unique:
            open_blocks.append(block)
    return {v: t[v] for v in system.order}, {v: a[v] for v in system.order}, open_blocks


def compute_max_clearing_pp(net: FinancialNetwork) -> ClearingState:
    """Maximal clearing state via counter descent; default costs allowed.

    Each round solves the least state ``t`` at the current counters. A bank
    with assets ``a_v < t_v`` jumps to ``class(a_v)``: every column of the
    round's coefficient matrix sums to at most 1, so the banks where ``t``
    falls short of the maximal state ``x*`` have ``a = t``, and a lowered
    bank has ``x*_v <= a_v`` (proof in ``_lower``). A block that cannot
    absorb its injection lowers its members by one. The descent ends when
    ``a = t``; ``t`` is then the state, re-solved for the largest point under
    the caps only from the first block whose flow equalities may have more
    than one solution."""
    structure = priority_structure(net)
    counters = {v: structure[v].class_count for v in net.bank_ids()}
    system = _counter_system(net, structure, counters)
    for _ in range(sum(counters.values()) + 1):
        try:
            t, a, open_blocks = _solve_counters(system)
        except _Insatiable as blocked:
            lowered = [v for v in sorted(blocked.members) if counters[v] > 0]
            if not lowered:
                raise errors.InternalInvariantError(
                    "insatiable block with all counters at zero"
                )
            a = None  # an insatiable round lowers by one
        else:
            lowered = sorted(v for v in system.order if a[v] < t[v])
            if not lowered:
                # a = t everywhere, so t solves every block's flow equalities;
                # the asset-maximal solution differs only where they may have
                # more than one, so re-solve from the first such block on
                for block in open_blocks:
                    _solve_block_greatest(system, block, t)
                state = ClearingState(t)
                if not is_clearing_state(net, state).ok:
                    raise errors.InternalInvariantError(
                        "counter descent settled on a non-clearing state"
                    )
                return state
            if any(counters[v] == 0 for v in lowered):
                raise errors.InternalInvariantError("positive offset at counter zero")
        _lower(system, net, structure, counters, lowered, a)
    raise errors.InternalInvariantError("counter descent failed to terminate")
