"""Minimal clearing state computation.

External assets are injected one bank at a time. The response of the
banks reachable from the chosen bank to a small injection is linear; its
slopes come from one exact linear solve, and the injection advances to the
next payment-function border or the bank's remaining budget, whichever is
closer. That solve is singular exactly when the bank can reach a flooded
region (a non-singleton sink SCC of the active graph). Only then is the
graph condensed, and payments inside the region are raised along the
component's circulation eigenvector until a border binds.

One active graph serves the whole run while the working network stays the
same. A step changes the active segment only of the banks it moves onto
their next border, so only those are refreshed; a rewire builds the graph
afresh.

Default costs are removed up front by network surgery: each defaulting bank
gets a splitter that diverts the haircut share of its incoming payments to a
sink. When such a bank turns solvent the gadget is retired and its outgoing
claims are replaced by external-asset injections at the former creditors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import errors
from .clearing import ClearingState, incoming_assets, is_clearing_state
from .graphs import (
    ActiveGraph,
    active_graph,
    condense,
    find_flood_component,
    reachable_from,
    refresh_banks,
)
from .linalg import solve_linear_system, unit_left_nullspace
from .model import (
    Bank,
    Claim,
    FinancialNetwork,
    assemble,
    make_proportional,
)
from .rationals import ONE, ZERO


@dataclass(frozen=True)
class FloodStep:
    component: frozenset[str]
    direction: dict[str, Fraction]  # circulation eigenvector, max entry 1
    scale: Fraction  # largest multiple before a border binds


@dataclass(frozen=True)
class IncreaseStep:
    source: str
    slopes: dict[str, Fraction]  # asset response per unit of injection
    delta: Fraction  # injected amount


@dataclass
class AdjustedNetwork:
    """Working bundle for the driver: the surgically adjusted network plus the
    bookkeeping that ties it back to the original."""

    network: FinancialNetwork
    original: FinancialNetwork
    auxiliary_map: dict[str, tuple[str, str]]  # original id -> (splitter, sink)
    original_d: frozenset[str]
    targets: dict[str, Fraction]  # external assets to inject, per working bank
    injected: dict[str, Fraction]  # externals injected so far
    rewired: set[str] = field(default_factory=set)
    setup_removed: dict[str, tuple[Claim, ...]] = field(default_factory=dict)

    def collector(self, original_id: str) -> str:
        """Working bank that receives the original in-claims of a bank."""
        pair = self.auxiliary_map.get(original_id)
        return pair[0] if pair is not None and pair[0] in self.network.banks else original_id


def _fresh_id(base: str, taken) -> str:
    candidate = base
    while candidate in taken:
        candidate += "_"
    return candidate


def adjust_default_cost(net: FinancialNetwork) -> AdjustedNetwork:
    """Lemma-style surgery replacing default costs with splitter gadgets.

    Banks that can actually default (haircut rates below 1 and positive
    out-liabilities) get their external assets scaled by alpha and their
    incoming claims routed through a proportional splitter that sends the
    (1 - beta) share to a sink. Banks with both rates zero pay nothing while
    insolvent, so their out-claims are simply dropped. Networks without
    effective default cost are returned unchanged.
    """
    effective_d = frozenset(
        v
        for v, bank in net.banks.items()
        if (bank.alpha != 1 or bank.beta != 1)
        and net.total_out(v) > 0
    )
    if not effective_d:
        targets = {v: net.bank(v).external_assets for v in net.bank_ids()}
        return AdjustedNetwork(
            network=net,
            original=net,
            auxiliary_map={},
            original_d=effective_d,
            targets=targets,
            injected={v: ZERO for v in net.bank_ids()},
        )

    taken = set(net.bank_ids())
    aux_map: dict[str, tuple[str, str]] = {}
    redirect: dict[str, str] = {}
    banks: list[Bank] = []
    setup_removed: dict[str, tuple[Claim, ...]] = {}
    targets: dict[str, Fraction] = {}

    for v, bank in net.banks.items():
        if v in effective_d:
            if bank.alpha == 0 and bank.beta == 0:
                setup_removed[v] = tuple(net.out_claims(v))
                target = ZERO
            else:
                splitter = _fresh_id(f"{v}__s", taken)
                taken.add(splitter)
                sink = _fresh_id(f"{v}__t", taken)
                taken.add(sink)
                aux_map[v] = (splitter, sink)
                redirect[v] = splitter
                target = bank.alpha * bank.external_assets
            banks.append(Bank(v, target, ONE, ONE))
        else:
            target = bank.external_assets
            banks.append(Bank(v, target, ONE, ONE))
        targets[v] = target

    claims: list[Claim] = []
    dropped = {claim.pair for removed in setup_removed.values() for claim in removed}
    for claim in net.claims:
        if claim.pair in dropped:
            continue
        creditor = redirect.get(claim.creditor, claim.creditor)
        claims.append(Claim(claim.debtor, creditor, claim.liability, claim.payment))

    for v, (splitter, sink) in aux_map.items():
        bank = net.bank(v)
        total = net.total_out(v)
        banks.append(Bank(splitter, ZERO, ONE, ONE))
        banks.append(Bank(sink, ZERO, ONE, ONE))
        targets[splitter] = ZERO
        targets[sink] = ZERO
        split = {}
        if bank.beta < 1:
            split[sink] = (1 - bank.beta) * total
        if bank.beta > 0:
            split[v] = bank.beta * total
        functions = make_proportional(split)
        for creditor, liability in split.items():
            claims.append(Claim(splitter, creditor, liability, functions[creditor]))

    work = assemble(banks, claims)
    return AdjustedNetwork(
        network=work,
        original=net,
        auxiliary_map=aux_map,
        original_d=effective_d,
        targets=targets,
        injected={b.id: ZERO for b in banks},
        setup_removed=setup_removed,
    )


def original_inflow(adj: AdjustedNetwork, assets: dict[str, Fraction], u: str) -> Fraction:
    """Incoming payments of ``u`` in the original network, valued at the
    current working state: rewired debtors pay their full liability, debtors
    silenced at setup pay nothing until rewired, everyone else pays their
    current payment-function value."""
    total = ZERO
    for claim in adj.original.in_claims(u):
        debtor = claim.debtor
        if debtor in adj.rewired:
            total += claim.liability
        elif debtor in adj.setup_removed:
            continue
        else:
            total += claim.payment.value_at(assets[debtor])
    return total


def original_solvent(adj: AdjustedNetwork, assets: dict[str, Fraction], u: str) -> bool:
    total_out = adj.original.total_out(u)
    ext = adj.original.bank(u).external_assets
    return ext + original_inflow(adj, assets, u) >= total_out


def rewire_solvent_bank(
    adj: AdjustedNetwork, assets: dict[str, Fraction], u: str
) -> dict[str, Fraction]:
    """Replace the out-claims of a solvent defaulting bank by external-asset
    injections at its creditors and retire its splitter gadget. Mutates
    ``adj`` and returns the consistent new working state."""
    if u not in adj.original_d or u in adj.rewired:
        raise errors.NotSolventError(f"{u!r} is not an unrewired defaulting bank")
    if not original_solvent(adj, assets, u):
        raise errors.NotSolventError(f"{u!r} is not solvent in the original network")

    work = adj.network
    assets = dict(assets)
    removed_pairs: set[tuple[str, str]] = set()

    if u in adj.setup_removed:
        # Out-claims were dropped at setup and paid nothing so far: credit the
        # full liability as a target; nothing was injected yet.
        for claim in adj.setup_removed[u]:
            creditor = adj.collector(claim.creditor)
            adj.targets[creditor] += claim.liability
    else:
        for claim in work.out_claims(u):
            paid = claim.payment.value_at(assets[u])
            adj.targets[claim.creditor] += claim.liability
            adj.injected[claim.creditor] += paid
            removed_pairs.add(claim.pair)

    banks = {v: b for v, b in work.banks.items()}
    claims = [c for c in work.claims if c.pair not in removed_pairs]

    pair = adj.auxiliary_map.get(u)
    if pair is not None:
        splitter, sink = pair
        ext = adj.original.bank(u).external_assets
        adj.targets[u] = ext + adj.targets.pop(splitter)
        adj.injected[u] = ext + adj.injected.pop(splitter)
        adj.targets.pop(sink, None)
        adj.injected.pop(sink, None)
        rerouted = []
        for claim in claims:
            if claim.debtor in (splitter, sink):
                continue
            if claim.creditor == splitter:
                rerouted.append(Claim(claim.debtor, u, claim.liability, claim.payment))
            else:
                rerouted.append(claim)
        claims = rerouted
        del banks[splitter]
        del banks[sink]
        assets.pop(splitter, None)
        assets.pop(sink, None)
    else:
        # alpha = beta = 0 bank: it was inert so far; from now on it simply
        # accumulates its full unreduced assets.
        ext = adj.original.bank(u).external_assets
        adj.targets[u] += ext
        adj.injected[u] += ext

    adj.rewired.add(u)
    adj.network = assemble(banks.values(), claims)
    assets[u] = incoming_assets(adj.network, assets, u, adj.injected)
    return assets


def border_scale(
    g: ActiveGraph, state, rates, limit: Fraction | None = None
) -> Fraction | None:
    """Largest ``t <= limit`` for which moving every bank ``u`` by
    ``t * rates[u]`` crosses no payment-function border: the least
    ``(g.borders[u] - state[u]) / rate`` over the banks with a positive rate
    and an active out-claim. None when there is neither such a bank nor a
    limit. ``g`` is the active graph at ``state``. The scale never
    overshoots, so after the move a bank that binds sits exactly on its
    border."""
    scale = limit
    borders = g.borders
    for u, rate in rates.items():
        if rate > 0 and u in borders:
            ratio = (borders[u] - state[u]) / rate
            if scale is None or ratio < scale:
                scale = ratio
    if scale is not None and scale <= 0:  # a fresh border lies strictly above its bank
        raise errors.InternalInvariantError("no room before a border: stale active graph")
    return scale


def solve_flood_step(
    net: FinancialNetwork,
    state,
    component: frozenset[str],
    graph: ActiveGraph | None = None,
) -> FloodStep:
    """Circulation direction and largest feasible scale for flooding a
    non-singleton sink SCC of the active graph. The direction is the Perron
    vector ``d = d M`` of the component's slope matrix, read off its
    ``response_rows`` (the columns of ``I - M``). ``graph`` is the active graph
    of ``net`` at ``state`` when the caller already holds it; it is built
    here otherwise."""
    g = active_graph(net, state) if graph is None else graph
    members = sorted(component)
    direction = dict(zip(members, unit_left_nullspace(response_rows(g, members))))
    scale = border_scale(g, state, direction)
    if scale is None:
        raise errors.InternalInvariantError(
            "flood component has no border ahead; component was not floodable"
        )
    return FloodStep(component=component, direction=direction, scale=scale)


def advance(g: ActiveGraph, net: FinancialNetwork, assets: dict, rates, scale: Fraction) -> None:
    """Move each bank ``u`` by ``scale * rates[u]`` in place, a scale that
    ``border_scale`` allowed on ``g``, the active graph of ``net`` at
    ``assets``; then refresh the banks with a positive rate that landed on
    their next border, the only ones whose active segment can change."""
    for u, rate in rates.items():
        if rate:
            assets[u] += scale * rate
    borders = g.borders
    landed = [u for u, r in rates.items() if r > 0 and u in borders and assets[u] == borders[u]]
    refresh_banks(g, net, assets, landed)


def flood_closure(g: ActiveGraph, net: FinancialNetwork, assets: dict, source=None) -> None:
    """Fully flood, in place, every non-singleton sink SCC of ``g`` (the active
    graph of ``net`` at ``assets``, kept so) reachable from ``source``, or
    every one when ``source`` is None, until none is left."""
    while True:
        component = find_flood_component(g, condense(g), source)
        if component is None:
            return
        step = solve_flood_step(net, assets, component, g)
        advance(g, net, assets, step.direction, step.scale)


def response_rows(g: ActiveGraph, members, frozen: str | None = None) -> list:
    """Sparse rows of ``I - M^T`` over ``members``, where ``M`` holds the
    slopes of the active edges between members and the out-edges of
    ``frozen`` are left out. Row ``j`` is also column ``j`` of ``I - M``."""
    index = {u: i for i, u in enumerate(members)}
    rows = [[(i, ONE)] for i in range(len(members))]
    for i, u in enumerate(members):
        if u == frozen:
            continue
        for claim in g.edges[u]:
            j = index.get(claim.creditor)
            if j is not None:
                rows[j].append((i, -g.slopes[claim.pair]))
    return rows


def response(
    g: ActiveGraph, v: str, injection: dict, frozen: str | None = None
) -> dict[str, Fraction] | None:
    """Asset response of the banks reachable from ``v`` to ``injection`` (an
    amount per bank; banks outside that set are skipped), with the out-edges
    of ``frozen`` held fixed: the solution of ``(I - M^T) s = injection``,
    or None when that system is singular."""
    reach = sorted(reachable_from(g, v))
    rhs = [injection.get(u, ZERO) for u in reach]
    solution = solve_linear_system(response_rows(g, reach, frozen), rhs)
    return None if solution is None else dict(zip(reach, solution))


def solve_increase_step(
    net: FinancialNetwork,
    state,
    v: str,
    budget: Fraction,
    graph: ActiveGraph | None = None,
) -> IncreaseStep | None:
    """Linear response of the minimal clearing state to an injection at ``v``.
    The step size is capped by the budget and by the nearest payment-function
    border along the response slopes. ``graph`` is the active graph of ``net``
    at ``state`` when the caller already holds it; it is built here otherwise.

    Returns None when the response system is singular. Every row of the
    active slope matrix sums to 1 or 0 and no bank pays itself, so over the
    banks reachable from ``v`` that happens exactly when a non-singleton sink
    SCC (a flooded region) is reachable from ``v``: it must be flooded
    first."""
    if budget <= 0:
        raise ValueError("budget must be positive")
    g = active_graph(net, state) if graph is None else graph
    slopes = response(g, v, {v: ONE})
    if slopes is None:
        return None
    delta = border_scale(g, state, slopes, limit=budget)
    return IncreaseStep(source=v, slopes=slopes, delta=delta)


@dataclass(frozen=True)
class MinClearingRun:
    state: ClearingState
    flood_steps: tuple[FloodStep, ...]
    increase_steps: tuple[IncreaseStep, ...]

    @property
    def step_count(self) -> int:
        return len(self.flood_steps) + len(self.increase_steps)


def run_min_clearing(net: FinancialNetwork, check_invariant: bool = False) -> MinClearingRun:
    """Full driver; returns the minimal clearing state plus the step trace.

    One active graph serves every step while the working network stays the
    same object: after each step only the banks that reached their next
    border are refreshed, and a rewire builds the graph afresh. A flood is
    looked for only when the source's response system is singular.

    With ``check_invariant`` the working state is verified to be an exact
    fixed point of the asset map (w.r.t. the injected externals) after every
    step; before every response the graph is compared with a fresh build, and
    the response's singularity with the flood check; test suites enable this.
    """
    adj = adjust_default_cost(net)
    assets: dict[str, Fraction] = {v: ZERO for v in adj.network.bank_ids()}
    floods: list[FloodStep] = []
    increases: list[IncreaseStep] = []
    g: ActiveGraph | None = None
    g_network: FinancialNetwork | None = None

    def verify() -> None:
        if not check_invariant:
            return
        check = is_clearing_state(adj.network, assets, externals=adj.injected)
        if not check.ok:
            raise errors.InternalInvariantError(
                f"working state lost the fixed-point invariant: {check.violations}"
            )

    def check_graph() -> None:
        if not check_invariant:
            return
        fresh = active_graph(adj.network, assets)
        if (g.edges, g.slopes, g.borders) != (fresh.edges, fresh.slopes, fresh.borders):
            raise errors.InternalInvariantError(
                "stale active graph handed to the increase step"
            )

    def settle_defaulters() -> None:
        nonlocal assets
        changed = True
        while changed:
            changed = False
            for u in sorted(adj.original_d - adj.rewired):
                if original_solvent(adj, assets, u):
                    assets = rewire_solvent_bank(adj, assets, u)
                    changed = True

    settle_defaulters()
    verify()
    while True:
        source = next(
            (
                v
                for v in sorted(adj.targets)
                if adj.injected[v] < adj.targets[v]
            ),
            None,
        )
        if source is None:
            break

        # Flood from the source while its response is singular. A rewiring
        # cascade can retire the selected bank itself (when it is a splitter
        # whose owner turns solvent); re-pick the source then. One that a
        # rewire paid off meanwhile floods what it reaches, then yields.
        step = None
        while source in adj.targets:
            if g_network is not adj.network:
                g, g_network = active_graph(adj.network, assets), adj.network
            budget = adj.targets[source] - adj.injected[source]
            if budget > 0:
                check_graph()
                step = solve_increase_step(adj.network, assets, source, budget, g)
                if step is None or check_invariant:
                    component = find_flood_component(g, condense(g), source)
                    if (step is None) == (component is None):
                        raise errors.InternalInvariantError(
                            "singular response without a reachable flood"
                            if step is None
                            else "regular response despite a reachable flood"
                        )
                if step is not None:
                    break
            else:
                component = find_flood_component(g, condense(g), source)
                if component is None:
                    break
            flood = solve_flood_step(adj.network, assets, component, g)
            floods.append(flood)
            advance(g, adj.network, assets, flood.direction, flood.scale)
            settle_defaulters()
            verify()

        if step is None:
            continue
        increases.append(step)
        adj.injected[source] += step.delta
        advance(g, adj.network, assets, step.slopes, step.delta)
        settle_defaulters()
        verify()

    # Project back to the original banks through the asset axioms.
    final: dict[str, Fraction] = {}
    for u in net.bank_ids():
        bank = net.bank(u)
        if u in adj.original_d:
            inflow = original_inflow(adj, assets, u)
            unreduced = bank.external_assets + inflow
            if unreduced >= net.total_out(u):
                final[u] = unreduced
            else:
                final[u] = bank.alpha * bank.external_assets + bank.beta * inflow
        else:
            final[u] = assets[u]
    return MinClearingRun(
        state=ClearingState(final),
        flood_steps=tuple(floods),
        increase_steps=tuple(increases),
    )


def compute_min_clearing(net: FinancialNetwork) -> ClearingState:
    return run_min_clearing(net).state
