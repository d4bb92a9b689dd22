"""Maximal clearing via the priority-proportional route.

Any network with piecewise-linear payments is equivalent to one with
priority-proportional payments: merge each bank's out-edge borders into one
grid and split every claim into one piece per grid class. The route works on
that class structure (``priority_structure``) directly; the explicit
transformed network, with each piece routed through a zero-asset relay bank,
is built only by the test suite's oracle.

The maximal clearing state is then found by a counter descent: assume every
bank pays all of its classes, solve the least consistent state, and move
each bank whose class floor is unreachable down to the class its assets
reach, until no bank falls short. The rounds never rise, and the counters
never fall below the maximal state's classes (proof in
``compute_max_clearing_pp``). One counter system serves the whole descent: a
lowering refreshes only the rows it touches (the lowered banks' own, and
those of the creditors in the classes between the old and new counters),
and a one-bank block is solved by substitution. The feasibility test is
solved exactly on the class structure (relays eliminated by substitution)
and cross-checked against the explicit LP formulation in the test suite.

The descent runs on Python ints. ``priority_structure`` returns each bank's
grid and piece liabilities as integer numerators over one denominator per
bank, the grid ``axioms.bank_classes`` builds once, at load, and
validation's axiom check holds on the network. Every row of the counter
system, its floors and each round's ``t`` and assets are ``(numerator,
denominator)`` pairs, summed, compared by cross-multiplying and handed to
the solver as integer rows. Only the final state becomes ``Fraction``s, one
per bank. The ``Fraction`` reference of the rows and of the asset map lives
with the test oracles.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import gcd, lcm

from . import errors
from .axioms import BankClasses, bank_classes
from .clearing import ClearingState
from .graphs import strongly_connected
from .linalg import solve_linear_system
from .model import FinancialNetwork


def priority_structure(net: FinancialNetwork) -> dict[str, BankClasses]:
    """Every bank's integer class grid, in a new dict: the one validation
    holds on the network, else ``axioms.bank_classes`` of its out-claims,
    built once and held there too (a network assembled from trusted parts is
    not validated). The grids themselves are the network's; do not edit
    them."""
    held = net._classes
    for v in net.bank_ids():
        if v not in held:
            total = net.total_out(v)
            held[v] = bank_classes(net.out_claims(v)) if total else BankClasses(1, (0,), ())
    return dict(held)


# --- counter descent ---------------------------------------------------------

class _CounterSystem:
    """Linear system behind the feasibility test at fixed counters.

    With counters r, anything a bank pays on classes up to r is a constant and
    class r+1 is paid proportionally to the headroom t_v - x_{v,r}. Incoming
    payments are therefore affine in t, so assets satisfy a = W t + c with
    W >= 0 and every cycle product <= 1. The row maps are updated in place by
    ``_refresh_rows``, so one system serves a whole descent.

    Each value is a pair of ints ``(numerator, denominator > 0)``, not
    necessarily reduced: the entries of ``w``, ``c`` and ``floor``, and a
    round's ``t`` and assets. Only the final state builds ``Fraction``s,
    one per bank. ``sources[v][u]`` lists the ``(class index, piece
    liability)`` of ``v``'s pieces among the classes of its debtor ``u``,
    in class order, with the debtors in bank order.
    """

    __slots__ = ("order", "w", "c", "floor", "sources")

    def __init__(self, order, w, c, floor, sources):
        self.order = order
        self.w = w  # w[v][u]: coefficient of t_u in a_v
        self.c = c
        self.floor = floor  # x_{v, r_v}
        self.sources = sources


def _refresh_rows(
    system: _CounterSystem,
    net: FinancialNetwork,
    structure: dict[str, BankClasses],
    counters: dict[str, int],
    banks,
) -> None:
    """Recompute, in place, the rows of ``banks`` at ``counters``; other rows
    are left as they are. A bank's row is its floor and what its debtors pay
    into it, each linearised on its own counter segment, scaled by the
    bank's haircuts (alpha on external assets, beta on payments) unless its
    counter is at the top.

    A piece ``L`` of debtor ``u``'s class ``[x_r, x_r+1)`` of total ``T``,
    paid in proportion, gives ``w[v][u] = (L, T)`` (``u``'s denominator
    cancels) and ``-L x_r / T`` to the constant, which sums the debtors'
    terms over the product of their denominators and is reduced once. A
    bank with ``beta = 0`` below its top class keeps none of what it is
    paid, so its row has no entries."""
    for v in banks:
        bank = net.bank(v)
        classes = structure[v]
        r = counters[v]
        solvent = r == classes.class_count
        system.floor[v] = (classes.grid[r], classes.den)
        row = {}
        pn, pd = 0, 1  # constant part of the unscaled inflow
        for u, pieces in system.sources[v].items():
            ru = counters[u]
            debtor = structure[u]
            n, d = 0, debtor.den
            for j, liability in pieces:
                if j < ru:
                    n += liability
                    continue
                if j == ru:
                    low, total = debtor.grid[ru], debtor.grid[ru + 1] - debtor.grid[ru]
                    row[u] = (liability, total)
                    n, d = n * total - liability * low, d * total
                break
            if n:
                pn, pd = pn * d + n * pd, pd * d
        en, ed = bank.external_assets.as_integer_ratio()
        an, ad = (1, 1) if solvent else bank.alpha.as_integer_ratio()
        bn, bd = (1, 1) if solvent else bank.beta.as_integer_ratio()
        system.w[v] = row if bn == bd else {u: (bn * x, bd * y) for u, (x, y) in row.items() if bn}
        n, d = an * en * bd * pd + bn * pn * ad * ed, ad * ed * bd * pd
        g = gcd(n, d)
        system.c[v] = (n // g, d // g)


def _counter_system(
    net: FinancialNetwork, structure: dict[str, BankClasses], counters: dict[str, int]
) -> _CounterSystem:
    """The system at ``counters``: a refresh of every row."""
    order = net.bank_ids()
    sources = {v: {} for v in order}
    for u in order:
        for j, pieces in enumerate(structure[u].pieces):
            for creditor, liability in pieces:
                sources[creditor].setdefault(u, []).append((j, liability))
    system = _CounterSystem(order, {}, {}, {}, sources)
    _refresh_rows(system, net, structure, counters, order)
    return system


def _lower(system, net, structure, counters, banks, assets) -> None:
    """Move each of ``banks`` to the class its assets reach,
    ``bisect_right(grid, a_v) - 1`` (the grid is integers over ``den``, so
    ``floor(a_v * den)`` stands for ``a_v``), and refresh the rows that this
    touches: the lowered banks' own, and those of the creditors in every
    class from the new counter up to the old one (classes no longer paid, or
    now paid in proportion)."""
    touched = set(banks)
    for v in banks:
        classes = structure[v]
        old = counters[v]
        an, ad = assets[v]
        new = bisect_right(classes.grid, an * classes.den // ad) - 1
        counters[v] = new
        for pieces in classes.pieces[new : old + 1]:
            touched.update(creditor for creditor, _ in pieces)
    _refresh_rows(system, net, structure, counters, touched)


def _flow_rows(system, members, t):
    """Integer rows and right-hand side of the flow equalities
    ``(I - W_BB) t_B = c_B + W_B,rest t_rest`` on the block ``members``, with
    the inputs outside the block taken from ``t``; each row and its
    right-hand side are scaled by the lcm of their denominators."""
    idx = {v: i for i, v in enumerate(members)}
    rows = []
    rhs = []
    for i, v in enumerate(members):
        gn, gd = _assets(system, t, v, idx)
        inner = [(idx[u], wn, wd) for u, (wn, wd) in system.w[v].items() if u in idx]
        den = lcm(gd, *(wd for _, _, wd in inner))
        rows.append([(i, den)] + [(j, -wn * (den // wd)) for j, wn, wd in inner])
        rhs.append(gn * (den // gd))
    return rows, rhs


def _assets(system: _CounterSystem, t, v: str, block=()) -> tuple[int, int]:
    """The affine asset map ``a_v = c_v + sum_u w_vu t_u`` over the inputs
    ``u`` outside ``block``: the terms are summed over the product of their
    denominators, and the pair is reduced once."""
    an, ad = system.c[v]
    for u, (wn, wd) in system.w[v].items():
        if u not in block:
            tn, td = t[u]
            an, ad = an * wd * td + wn * tn * ad, ad * wd * td
    g = gcd(an, ad)
    return an // g, ad // g


def _solve_block_least(system, block, t) -> dict:
    """Least fixed point of t_B = max(floor_B, (W t + c)_B) given solved
    inputs, by promoting coordinates from their floors as forced. Returns
    the members' assets. A singular flow system means the block has no
    fixed point, which no round of the descent meets (proof in
    ``compute_max_clearing_pp``), so it raises ``InternalInvariantError``.

    No bank has a claim on itself, so the one bank of a one-bank block
    reads only inputs."""
    if len(block) == 1:
        (v,) = block
        assets = _assets(system, t, v)
        fn, fd = floor = system.floor[v]
        t[v] = assets if assets[0] * fd > fn * assets[1] else floor
        return {v: assets}
    flow = set()
    for v in block:
        t[v] = system.floor[v]

    while True:
        assets = {v: _assets(system, t, v) for v in block if v not in flow}
        promote = [v for v, (an, ad) in assets.items() if an * t[v][1] > t[v][0] * ad]
        if not promote:
            # the flow equalities hold on the promoted members: a = t there
            assets.update((v, t[v]) for v in flow)
            return assets
        flow.update(promote)
        f = sorted(flow)
        solution = solve_linear_system(*_flow_rows(system, f, t))
        if solution is None:
            raise errors.InternalInvariantError("singular flow system in a round")
        numerators, den = solution
        t.update((v, (x, den)) for v, x in zip(f, numerators))


def _solve_counters(system: _CounterSystem):
    """Least solution ``(t, a)`` of t = max(floor, W t + c) and its assets,
    solved block by block, each map in the order its banks were solved. The
    blocks are the SCCs of the rows: ``w[v]`` lists the banks whose ``t``
    feeds ``a_v``, and Tarjan emits each component after every one it
    reaches, so each block comes after the blocks it reads."""
    t, a = {}, {}
    for block in strongly_connected(system.order, system.w):
        a.update(_solve_block_least(system, block, t))
    return t, a


def compute_max_clearing_pp(net: FinancialNetwork) -> ClearingState:
    """Maximal clearing state ``x*`` via counter descent; default costs
    allowed.

    Round ``R`` solves the least state ``t^R`` of t = max(floor, W t + c)
    and its assets ``a^R`` at the counters ``r^R``; each bank with
    ``a_v < t_v`` (so ``t_v`` is its floor ``grid[r_v]``) jumps to
    ``class(a_v) < r_v``. The descent ends at the first round with
    ``a = t``. Let ``r*`` be the classes of ``x*``. By induction on ``R``:

    (a) Round ``R`` has a finite least solution. Round 1 has ``W = 0``.
    For ``R > 1`` let ``s`` be ``t^{R-1}`` with each bank lowered in round
    ``R-1`` set to its ``a^{R-1}_v``; then ``s >= max(floor, W s + c)`` at
    ``r^R``. Floors: a lowered bank's new floor is at most ``a_v``.
    Payments: a debtor that was not lowered pays at ``s`` what it paid in
    round ``R-1``; a lowered debtor paid there at its floor, where its line
    is exact, and pays at ``a_u``, inside its new class, its true payment,
    which is no more. A row can only gain haircuts, so each bank's assets
    at ``s`` are at most ``a^{R-1}_v``, which is ``s_v``, as ``a = t`` on
    the banks not lowered. So ``t^R <= s``, as a monotone map has its
    least fixed point below any supersolution. Nor does a least solve meet
    a singular flow system: its flow set would hold a closed circulation
    ``C`` (every column of ``W_CC`` sums to 1, so ``t_C`` feeds nothing
    outside ``C``) and this promotion took a member of ``C`` at ``a > t``,
    the others having ``a = t``. The sum of ``a - t`` over ``C`` does not
    read ``t_C`` and rises with the other coordinates, which the promotion
    keeps below the least solution; so it is positive there too, against
    ``a <= t``.

    (b) ``t`` never rises: ``t^R <= s <= t^{R-1}``. A bank below its top
    class was last lowered to the class of some ``a_v``, so it stays in
    ``[grid[r_v], grid[r_v + 1])``, where its line is exact and it is in
    default, and each round's ``W t + c`` is the true asset map at ``t``.
    At exit ``a = t``, so ``t`` is a clearing state.

    (c) ``t >= x*`` while ``r >= r*``, as in round 1, where every counter
    is at its top. Let ``D = {t < x*}`` and ``d = x* - t``. A bank of ``D``
    has ``grid[r_v] <= t_v < x*_v`` and ``r*_v <= r_v``, so ``r*_v = r_v``
    and both ``t_v`` and ``x*_v`` lie in its class, below its cap if it has
    one; any other bank has ``t_u >= x*_u`` and ``r_u >= r*_u``, so it pays
    at ``t`` at least its true payment at ``x*``; and a row below its top
    has the haircuts it has at ``x*``, a row at its top none. So
    ``d_D <= W_DD d_D`` by ``a <= t``. Every column of ``W`` sums to at
    most 1, so summing over ``D`` makes all of it tight: ``D`` is a closed
    circulation at ``x*``'s own classes and ``x* + e d_D`` is a clearing
    state for small ``e > 0``, above the greatest. So ``D`` is empty, and
    the same comparison gives ``x* <= a``: a lowered bank has
    ``x*_v <= a_v``, so ``r^{R+1} >= r*``. At exit ``t`` is a clearing
    state ``>= x*``, so ``t = x*``.

    The result is not checked here, as the induction is its proof; ``cli``
    checks every state it writes, and a library caller who needs that
    guarantee calls ``clearing.is_clearing_state``."""
    structure = priority_structure(net)
    counters = {v: structure[v].class_count for v in net.bank_ids()}
    system = _counter_system(net, structure, counters)
    for _ in range(sum(counters.values()) + 1):
        t, a = _solve_counters(system)
        lowered = sorted(v for v in t if a[v][0] * t[v][1] < t[v][0] * a[v][1])
        if not lowered:
            return ClearingState({v: Fraction(*t[v]) for v in system.order})
        if any(counters[v] == 0 for v in lowered):
            raise errors.InternalInvariantError("positive offset at counter zero")
        _lower(system, net, structure, counters, lowered, a)
    raise errors.InternalInvariantError("counter descent failed to terminate")
