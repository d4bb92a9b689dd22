"""Minimal clearing state computation, and ``flood_closure``, the one
flood-to-saturation loop of the package, which raises a state on a graph of
right slopes and lowers it on a ``left`` one.

``compute_min_clearing`` takes one of two routes. A network without default
cost is walked down from the top: the pp maximum, then ``flood_closure`` on
its ``left`` active graph, which lowers closed components until none is
left and so certifies the least state (proof in its docstring). That route
is not proved for default costs, so a network with them, and the CLI's
``min-clear``, which reports the driver's step counts, go through
``run_min_clearing``, the paper's strongly polynomial injection driver and
the reference for the route; the rest of this docstring describes it.

External assets are injected one bank at a time. The response of the
banks reachable from the chosen bank to a small injection is linear; its
slopes come from one exact linear solve, and the injection advances to the
next payment-function border or the bank's remaining budget, whichever is
closer. That solve is singular exactly when the bank can reach a flooded
region (a non-singleton sink SCC of the active graph). Only then is that
region looked for, by an SCC pass started at the bank, and payments inside
it are raised along the component's circulation eigenvector until a border
binds.

A step stays on integers. The solve returns the response as integer rates
``r_u`` over one positive common denominator ``den``, and the step moves
every bank by ``tau * r_u`` for one scale ``tau = delta / den``.
``border_scale`` finds ``tau`` by comparing the ratios
``(border_u - a_u) / r_u`` by cross-multiplication, with the budget entering
as ``budget / den``, and ``advance`` builds each moved bank's assets with one
normalization. Both read their rates through ``numerator`` and
``denominator``, so a flood's ``Fraction`` direction goes through the same
two functions.

The driver keeps one assets dict for the whole run and one active graph,
which carries the working network and those assets, while that network
stays the same. A step changes the active segment only of the banks it
moves onto their next border, so only those are refreshed; a rewire
changes the network, so the graph is built afresh.

Default costs are removed up front by network surgery: every defaulting
bank, alpha = beta = 0 included, gets one splitter/sink gadget that diverts
the haircut share of its incoming payments to the sink. When such a bank
turns solvent the gadget is retired and its outgoing claims are replaced by
external-asset injections at the former creditors. Once every target is
injected, the working assets of the original banks are the minimal state.
"""

from __future__ import annotations

from fractions import Fraction

from . import errors
from .clearing import ClearingState, is_clearing_state
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
    _Value,
    assemble,
    make_proportional,
)
from .priority import compute_max_clearing_pp
from .rationals import ONE, ZERO


class FloodStep(_Value):
    """A flood of the sink SCC ``component`` along ``direction``, its
    circulation eigenvector with max entry 1 (min entry -1 on a ``left``
    graph, which lowers the component), by ``scale``, the largest multiple
    before a border binds."""

    __slots__ = ("component", "direction", "scale")


class IncreaseStep(_Value):
    """An injection that moves each bank ``u`` by ``scale * rates[u]``: the
    response solve's integer numerators over its positive common denominator
    ``den``, kept as they came, and ``scale``, the injected amount over
    ``den``. ``delta`` is the injected amount."""

    __slots__ = ("rates", "den", "scale")

    @property
    def delta(self) -> Fraction:
        return self.scale * self.den


class AdjustedNetwork:
    """Working bundle for the driver: the surgically adjusted network plus the
    bookkeeping that ties it back to the original."""

    __slots__ = ("network", "original", "auxiliary_map", "targets", "injected")

    def __init__(
        self,
        network: FinancialNetwork,
        original: FinancialNetwork,
        auxiliary_map: dict[str, tuple[str, str]],
        targets: dict[str, Fraction],
        injected: dict[str, Fraction],
    ):
        self.network = network
        self.original = original
        self.auxiliary_map = auxiliary_map  # unrewired defaulting id -> (splitter, sink)
        self.targets = targets  # external assets to inject, per working bank
        self.injected = injected  # externals injected so far


def _fresh_id(base: str, taken) -> str:
    candidate = base
    while candidate in taken:
        candidate += "_"
    return candidate


def adjust_default_cost(net: FinancialNetwork) -> AdjustedNetwork:
    """Lemma-style surgery replacing default costs with splitter gadgets.

    Every bank that can actually default (a haircut rate below 1 and positive
    out-liabilities), alpha = beta = 0 included, gets one gadget: its external
    assets are scaled by alpha and its incoming claims are routed through a
    proportional splitter that passes the beta share on to it and sends the
    (1 - beta) share to a sink. Networks without effective default cost are
    returned unchanged.
    """
    taken = set(net.bank_ids())
    aux_map: dict[str, tuple[str, str]] = {}
    for v, bank in net.banks.items():
        if (bank.alpha != 1 or bank.beta != 1) and net.total_out(v) > 0:
            splitter = _fresh_id(f"{v}__s", taken)
            taken.add(splitter)
            sink = _fresh_id(f"{v}__t", taken)
            taken.add(sink)
            aux_map[v] = (splitter, sink)
    if not aux_map:
        targets = {v: net.bank(v).external_assets for v in net.bank_ids()}
        return AdjustedNetwork(net, net, {}, targets, {v: ZERO for v in net.bank_ids()})

    banks: list[Bank] = []
    targets: dict[str, Fraction] = {}
    for v, bank in net.banks.items():
        target = bank.alpha * bank.external_assets if v in aux_map else bank.external_assets
        banks.append(Bank(v, target, ONE, ONE))
        targets[v] = target

    claims: list[Claim] = []
    for claim in net.claims:
        creditor = aux_map[claim.creditor][0] if claim.creditor in aux_map else claim.creditor
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
    return AdjustedNetwork(work, net, aux_map, targets, {b.id: ZERO for b in banks})


def original_solvent(adj: AdjustedNetwork, assets: dict[str, Fraction], u: str) -> bool:
    """Whether ``u`` covers its original liabilities, with its incoming
    payments valued at the working state: rewired debtors pay their full
    liability, everyone else their current payment-function value.

    That inflow is read off ``u``'s splitter ``s``. Until its debtor is
    rewired, every original claim on ``u`` is a claim on ``s`` with the same
    debtor and payment function; the rewire drops it, adds its liability to
    ``targets[s]``, which starts at 0, and its payment at that moment to
    ``injected[s]``. ``s`` is proportional with ``alpha = beta = 1``, so at
    every fixed point of the working network, which every step and every
    rewire keeps, ``assets[s]`` is ``injected[s]`` plus the current payments
    of its unrewired debtors. So the inflow is
    ``assets[s] - injected[s] + targets[s]``."""
    s = adj.auxiliary_map[u][0]
    inflow = assets[s] - adj.injected[s] + adj.targets[s]
    return adj.original.bank(u).external_assets + inflow >= adj.original.total_out(u)


def rewire_solvent_bank(adj: AdjustedNetwork, assets: dict[str, Fraction], u: str) -> None:
    """Replace the out-claims of a solvent defaulting bank by external-asset
    injections at its creditors and retire its splitter gadget, popping its
    ``auxiliary_map`` entry. Edits ``adj`` and ``assets`` in place, so that
    ``assets`` stays the fixed point of the new working network.

    ``assets`` must be the fixed point of ``adj.network`` under
    ``adj.injected``, as ``run_min_clearing`` keeps it: the solvency check
    and ``u``'s new assets are read off its splitter's entry, which is only
    ``u``'s inflow there (see ``original_solvent``)."""
    if u not in adj.auxiliary_map:
        raise errors.NotSolventError(f"{u!r} is not an unrewired defaulting bank")
    if not original_solvent(adj, assets, u):
        raise errors.NotSolventError(f"{u!r} is not solvent in the original network")

    work = adj.network
    for claim in work.out_claims(u):
        adj.targets[claim.creditor] += claim.liability
        adj.injected[claim.creditor] += claim.payment.value_at(assets[u])

    splitter, sink = adj.auxiliary_map.pop(u)
    ext = adj.original.bank(u).external_assets
    adj.targets[u] = ext + adj.targets.pop(splitter)
    adj.injected[u] = ext + adj.injected.pop(splitter)
    adj.targets.pop(sink)
    adj.injected.pop(sink)
    claims = []
    for claim in work.claims:
        if claim.debtor in (u, splitter, sink):
            continue
        if claim.creditor == splitter:
            claim = Claim(claim.debtor, u, claim.liability, claim.payment)
        claims.append(claim)
    banks = [b for v, b in work.banks.items() if v not in (splitter, sink)]
    # u takes over its splitter's in-claims and injections, so at the fixed
    # point it holds its external assets plus what the splitter held
    assets[u] = ext + assets.pop(splitter)
    assets.pop(sink)
    adj.network = assemble(banks, claims)


def border_scale(g: ActiveGraph, rates, limit: Fraction | None = None) -> Fraction | None:
    """Largest ``t <= limit`` for which moving every bank ``u`` by
    ``t * rates[u]`` crosses no payment-function border: the least
    ``(g.borders[u] - g.assets[u]) / rate`` over the banks with an active
    out-claim that move toward their border in ``g``, with a positive rate
    toward the next border above on a graph of right slopes and a negative
    one toward the lower border on a ``left`` graph. None when there is
    neither such a bank nor a limit. Rates, assets and limit may be any
    rationals, such as a response's integer numerators or a flood's
    ``Fraction`` direction: each ratio is kept as an integer numerator and
    positive denominator, the side's sign folded into both, and compared by
    cross-multiplication, and one ``Fraction`` is built for the result. The
    scale never overshoots, so after the move a bank that binds sits
    exactly on its border."""
    num = den = None
    if limit is not None:
        num, den = limit.numerator, limit.denominator
    sign = -1 if g.left else 1
    borders, state = g.borders, g.assets
    for u, rate in rates.items():
        toward = rate.numerator * sign
        if toward > 0 and u in borders:
            border, assets = borders[u], state[u]
            bd, ad = border.denominator, assets.denominator
            n = (border.numerator * ad - assets.numerator * bd) * rate.denominator * sign
            d = bd * ad * toward
            if num is None or n * den < num * d:
                num, den = n, d
    if num is None:
        return None
    if num <= 0:  # a fresh border lies strictly ahead of its bank
        side = "left" if g.left else "right"
        raise errors.InternalInvariantError(f"no room before a border: stale {side} graph")
    return Fraction(num, den)


def solve_flood_step(g: ActiveGraph, component: frozenset[str]) -> FloodStep:
    """Circulation direction and largest feasible scale for flooding a
    non-singleton sink SCC of ``g``. The direction is the Perron vector
    ``d = d M`` of the component's slope matrix, read off its
    ``response_rows`` (the columns of ``I - M``), negated on a ``left``
    graph, whose floods lower the component."""
    members = sorted(component)
    direction = unit_left_nullspace(response_rows(g, members))
    if g.left:
        direction = [-d for d in direction]
    direction = dict(zip(members, direction))
    scale = border_scale(g, direction)
    if scale is None:
        raise errors.InternalInvariantError(
            "flood component has no border ahead; component was not floodable"
        )
    return FloodStep(component, direction, scale)


def advance(g: ActiveGraph, rates, scale: Fraction) -> None:
    """Move each bank ``u`` of ``g.assets`` by ``scale * rates[u]`` in place,
    a scale that keeps every moved bank inside its segment of ``g``; then
    refresh the banks that landed on their border in ``g.borders``, the only
    ones whose active segment can change: the next border above on a graph
    of right slopes, reached with a positive rate, or the lower border on a
    ``left`` graph, reached with a negative one. Rates and scale may be any
    rationals; each moved bank's new assets are summed on integers and
    normalized once."""
    sn, sd = scale.numerator, scale.denominator
    borders, assets = g.borders, g.assets
    landed = []
    for u, rate in rates.items():
        if rate:
            a = assets[u]
            rd, ad = rate.denominator, a.denominator
            num = a.numerator * sd * rd + sn * rate.numerator * ad
            den = ad * sd * rd
            assets[u] = Fraction(num, den)
            if u in borders:
                border = borders[u]
                if num * border.denominator == den * border.numerator:
                    landed.append(u)
    refresh_banks(g, landed)


def flood_closure(g: ActiveGraph, source=None) -> None:
    """Fully flood, in place, every non-singleton sink SCC of ``g`` reachable
    from ``source``, or every one when ``source`` is None, until none is
    left: upward on a graph of right slopes, downward on a ``left`` one.

    Each pass floods every component of one ``condense``. Two of them are
    disjoint and closed, and a flood moves and refreshes only its own
    members, so it leaves the other's members, edges and borders, and the
    paths from ``source`` to it, as they were: the floods of one pass
    commute. Each flood lands a bank on a border, and as the state only
    moves one way no bank lands on one border twice, so the walk ends; and
    as any two floods open at one state commute, every order of them ends
    in the same state (Newman's lemma)."""
    while components := condense(g, source):
        for component in components:
            step = solve_flood_step(g, component)
            advance(g, step.direction, step.scale)


def response_rows(g: ActiveGraph, members, frozen: str | None = None) -> list:
    """Sparse rows of ``M^T - I`` over ``members``, where ``M`` holds the
    slopes ``g.edges[u][c]`` of the active claims between members and the
    out-edges of ``frozen`` are left out. Row ``j`` is also column ``j`` of
    ``M - I``. These are the rows of the response system ``(I - M^T) s = b``
    negated, so the slopes go in as the graph stores them: a response solve
    passes ``-b`` as the right-hand side, and ``unit_left_nullspace`` gives
    the same Perron direction for ``M - I`` as for ``I - M``."""
    index = {u: i for i, u in enumerate(members)}
    rows = [[(i, -1)] for i in range(len(members))]
    for i, u in enumerate(members):
        if u == frozen:
            continue
        for c, slope in g.edges[u].items():
            j = index.get(c)
            if j is not None:
                rows[j].append((i, slope))
    return rows


def response(
    g: ActiveGraph, v: str, injection: dict, frozen: str | None = None
) -> tuple[dict[str, int], int] | None:
    """Asset response of the banks reachable from ``v`` to ``injection`` (an
    amount per bank; banks outside that set are skipped), with the out-edges
    of ``frozen`` held fixed: the solution of ``(I - M^T) s = injection`` as
    ``(rates, den)``, an integer numerator per bank over one positive common
    denominator, or None when that system is singular."""
    reach = sorted(reachable_from(g, v))
    rhs = [-injection.get(u, 0) for u in reach]
    solution = solve_linear_system(response_rows(g, reach, frozen), rhs)
    if solution is None:
        return None
    numerators, den = solution
    return dict(zip(reach, numerators)), den


def solve_increase_step(g: ActiveGraph, v: str, budget: Fraction) -> IncreaseStep | None:
    """Linear response of the minimal clearing state to an injection at ``v``,
    read on ``g``. The step size is capped by the budget and by the nearest
    payment-function border along the response slopes.

    Returns None when the response system is singular. Every row of the
    active slope matrix sums to 1 or 0 and no bank pays itself, so over the
    banks reachable from ``v`` that happens exactly when a non-singleton sink
    SCC (a flooded region) is reachable from ``v``: it must be flooded
    first."""
    if budget <= 0:
        raise ValueError("budget must be positive")
    solved = response(g, v, {v: 1})
    if solved is None:
        return None
    rates, den = solved
    scale = border_scale(g, rates, limit=budget / den)
    return IncreaseStep(rates, den, scale)


class MinClearingRun(_Value):
    """The minimal clearing ``state`` found by ``run_min_clearing``, the
    number of steps it took, ``step_count``, and how many of them were
    floods, ``flood_count``."""

    __slots__ = ("state", "step_count", "flood_count")


def run_min_clearing(net: FinancialNetwork, check_invariant: bool = False) -> MinClearingRun:
    """Full driver; returns the minimal clearing state and its step counts.

    One active graph serves every step while the working network stays the
    same: after each step only the banks that reached their next border are
    refreshed. A rewire replaces the network, so the graph is built afresh,
    but only when a step needs it: no graph is built for a network that
    takes no step, such as the one before the first rewires.
    A flood is looked for only when the source's response system is
    singular.

    With ``check_invariant`` the working state is verified to be an exact
    fixed point of the asset map (w.r.t. the injected externals) after every
    step; before every response the graph is compared with a fresh build of
    the working network and assets, and the response's singularity with the
    flood check; test suites enable this.
    """
    adj = adjust_default_cost(net)
    assets = {v: ZERO for v in adj.network.bank_ids()}

    def check_graph() -> None:
        if not check_invariant:
            return
        fresh = active_graph(adj.network, assets)
        if (
            g.net is not adj.network
            or g.assets is not assets
            or g.edges != fresh.edges
            or g.borders != fresh.borders
        ):
            raise errors.InternalInvariantError(
                "stale active graph handed to the increase step"
            )

    def settle() -> None:
        """Rewire the defaulters turned solvent, in sorted order, until none
        is left. A rewire drops the active graph ``g``, which the next step
        builds afresh for the settled network, and recomputes ``pending``."""
        nonlocal g
        network = adj.network
        changed = True
        while changed:
            changed = False
            for u in sorted(adj.auxiliary_map):
                if original_solvent(adj, assets, u):
                    rewire_solvent_bank(adj, assets, u)
                    changed = True
        if check_invariant:
            check = is_clearing_state(adj.network, assets, externals=adj.injected)
            if not check.ok:
                raise errors.InternalInvariantError(
                    f"working state lost the fixed-point invariant: {check.violations}"
                )
        if adj.network is not network:
            g = None
            pending.clear()
            pending.update(v for v, target in adj.targets.items() if adj.injected[v] < target)

    # The banks with a target not yet injected, kept up to date: a step
    # removes its source once paid off, and a rewire recomputes the set.
    pending = {v for v, target in adj.targets.items() if adj.injected[v] < target}
    g = None
    settle()
    increases = floods = 0
    while pending:
        source = min(pending)

        # Flood from the source while its response is singular. A rewiring
        # cascade can retire the selected bank itself (when it is a splitter
        # whose owner turns solvent); re-pick the source then. One that a
        # rewire paid off meanwhile floods what it reaches, then yields.
        step = None
        while source in adj.targets:
            if g is None:
                g = active_graph(adj.network, assets)
            budget = adj.targets[source] - adj.injected[source]
            if budget > 0:
                check_graph()
                step = solve_increase_step(g, source, budget)
                if step is None or check_invariant:
                    component = find_flood_component(g, source)
                    if (step is None) == (component is None):
                        raise errors.InternalInvariantError(
                            "singular response without a reachable flood"
                            if step is None
                            else "regular response despite a reachable flood"
                        )
                if step is not None:
                    break
            else:
                component = find_flood_component(g, source)
                if component is None:
                    break
            flood = solve_flood_step(g, component)
            advance(g, flood.direction, flood.scale)
            floods += 1
            settle()

        if step is None:
            continue
        adj.injected[source] += step.delta
        if adj.injected[source] >= adj.targets[source]:
            pending.discard(source)
        advance(g, step.rates, step.scale)
        settle()
        increases += 1

    # Every target is injected now, so each splitter holds its owner's
    # original inflow: the working assets are the original ones.
    state = ClearingState({u: assets[u] for u in net.bank_ids()})
    return MinClearingRun(state, floods + increases, floods)


def compute_min_clearing(net: FinancialNetwork) -> ClearingState:
    """The minimal clearing state ``x*``. A network with default cost goes
    through ``run_min_clearing``, the paper's strongly polynomial injection
    driver, which stays the reference route. Any other network is walked
    down from the top: from the maximal state of
    ``priority.compute_max_clearing_pp`` (a polynomial counter descent),
    ``flood_closure`` lowers the closed components of the ``left`` active
    graph by reverse floods until none is left.

    Certificate: a clearing state ``x`` at which no non-singleton SCC of the
    left-slope graph is closed is ``x*``. Let ``D = {x > x*}``. For ``v`` in
    ``D``, ``x_v - x*_v`` is the sum of its debtors' payment increments, and
    debtors outside ``D`` add nothing positive. A bank's total payment is
    ``min(a, L+)``, as borders start at 0 and slopes sum to 1 below ``L+``
    (validation checks both), so a payment rises by at most its asset
    increment. Summing over ``D`` makes every inequality tight: each ``u``
    in ``D`` pays all of its increment over ``[x*_u, x_u]`` into ``D``, at
    total slope 1. So just below ``x_u`` every ``u`` in ``D`` has positive
    left slopes, all into ``D``, and a nonempty ``D`` would hold a closed
    SCC of the left-slope graph, non-singleton as no bank has a claim on
    itself. So ``D`` is empty, and ``x = x*``.

    Reverse flood: on their left segments the members of a closed component
    ``C`` pay only one another, with row sums 1; where an inactive claim's
    slope changes so does an active one's, as the slopes sum to 1, so the
    lower borders of the active claims bound the segment. So ``x - e d``,
    with ``d = d M`` the Perron vector of the left slopes (the direction
    ``solve_flood_step`` negates on a left graph), clears for every ``e`` up
    to the first member's landing on its lower border. Every clearing state
    is at least ``x*``, so the walk never passes it, and it ends (see
    ``flood_closure``) where the certificate holds: at ``x*``."""
    if net.has_default_cost():
        return run_min_clearing(net).state
    g = active_graph(net, compute_max_clearing_pp(net).as_dict(), left=True)
    flood_closure(g)
    return ClearingState(g.assets)
