"""Active-graph construction, the one SCC routine (which the counter descent
in ``priority`` also uses), and the flooded regions a bank reaches: the
non-singleton sink SCCs of the active graph.

An ``ActiveGraph`` is the state every walk holds: a network, the working
assets dict it steps in place, and the active claims at those assets."""

from __future__ import annotations

from collections.abc import Callable, Iterable
from fractions import Fraction
from operator import attrgetter

from . import errors
from .model import Claim, FinancialNetwork


class ActiveGraph:
    """Subgraph of the claims of ``net`` whose payment slope is strictly
    positive at ``assets``, with that slope per edge and, per bank with an
    active out-claim, the lowest border strictly above its assets over those
    claims: up to that border no slope of the bank changes. ``assets`` is the
    caller's dict itself; whoever moves a bank in it refreshes that bank
    through ``refresh_banks``, which updates the maps in place."""

    __slots__ = ("net", "assets", "edges", "slopes", "borders")

    def __init__(
        self,
        net: FinancialNetwork,
        assets: dict[str, Fraction],
        edges: dict[str, tuple[Claim, ...]],
        slopes: dict[tuple[str, str], Fraction],
        borders: dict[str, Fraction],
    ):
        self.net = net
        self.assets = assets
        self.edges = edges  # debtor -> active out-claims
        self.slopes = slopes  # claim pair -> positive slope
        self.borders = borders  # debtor -> next border of its active claims


def refresh_banks(g: ActiveGraph, banks: Iterable[str]) -> None:
    """Recompute, in place, the active out-claims, their slopes and the next
    border of each of ``banks`` at ``g.assets``; other banks are left as they
    are."""
    net, state = g.net, g.assets
    edges, slopes, borders = g.edges, g.slopes, g.borders
    for v in banks:
        for claim in edges.get(v, ()):
            del slopes[claim.pair]
        borders.pop(v, None)
        assets = state[v]
        active = []
        nearest = None
        for claim in net.out_claims(v):
            segment = claim.payment.active_segment(assets)
            if segment is not None:
                slope, border = segment
                active.append(claim)
                slopes[claim.pair] = slope
                if nearest is None or border < nearest:
                    nearest = border
        edges[v] = tuple(active)
        if nearest is not None:
            borders[v] = nearest


def active_graph(net: FinancialNetwork, assets: dict) -> ActiveGraph:
    g = ActiveGraph(net=net, assets=assets, edges={}, slopes={}, borders={})
    refresh_banks(g, net.bank_ids())
    return g


def strongly_connected(
    nodes: Iterable[str], successors: Callable[[str], Iterable[str]]
) -> list[list[str]]:
    """Strongly connected components by Tarjan's algorithm (Tarjan 1972),
    iterative. ``successors(v)`` yields the node ids that ``v`` points to.
    Components come out in Tarjan order: each one after every component it
    reaches, so sinks first."""
    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    components: list[list[str]] = []
    counter = 0

    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(successors(root)))]
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, neighbours = work[-1]
            for succ in neighbours:
                if succ not in index:
                    index[succ] = lowlink[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(successors(succ))))
                    break
                if succ in on_stack and index[succ] < lowlink[node]:
                    lowlink[node] = index[succ]
            else:
                work.pop()
                low = lowlink[node]
                if work:
                    parent = work[-1][0]
                    if low < lowlink[parent]:
                        lowlink[parent] = low
                if low == index[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.remove(member)
                        component.append(member)
                        if member == node:
                            break
                    components.append(component)
    return components


_creditor = attrgetter("creditor")


def condense(g: ActiveGraph, source: str | None = None) -> tuple[frozenset[str], ...]:
    """The non-singleton sink SCCs of the active graph reachable from
    ``source`` (every one when ``source`` is None), ordered by smallest
    member id. A component is a sink when every active out-edge of its
    members stays inside it. Tarjan's pass starts at ``source``, so it visits
    only the banks that ``source`` reaches."""
    edges = g.edges
    if source is None:
        roots = g.net.bank_ids()
    elif source in edges:
        roots = (source,)
    else:
        raise errors.UnknownBankError(source)
    sinks = []
    for members in strongly_connected(roots, lambda v: map(_creditor, edges[v])):
        if len(members) > 1:
            component = frozenset(members)
            if all(claim.creditor in component for v in members for claim in edges[v]):
                sinks.append(component)
    return tuple(sorted(sinks, key=min))


def reachable_from(g: ActiveGraph, v: str) -> frozenset[str]:
    if v not in g.edges:
        raise errors.UnknownBankError(v)
    seen = {v}
    frontier = [v]
    while frontier:
        node = frontier.pop()
        for claim in g.edges[node]:
            if claim.creditor not in seen:
                seen.add(claim.creditor)
                frontier.append(claim.creditor)
    return frozenset(seen)


def find_flood_component(g: ActiveGraph, source: str | None = None) -> frozenset[str] | None:
    """The first of ``condense(g, source)``: the non-singleton sink SCC
    reachable from ``source`` with the smallest minimum bank id, or None when
    every sink it reaches is a singleton."""
    components = condense(g, source)
    return components[0] if components else None
