"""Active-graph construction, the one SCC routine (which the counter descent
in ``priority`` also uses), and the flooded regions a bank reaches: the
non-singleton sink SCCs of the active graph.

An ``ActiveGraph`` is the state every walk holds: a network, the working
assets dict it steps in place, and the active claims at those assets, one
map per debtor from each creditor it actively pays to that claim's
slope."""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction

from . import errors
from .model import FinancialNetwork, PaymentFunction


class ActiveGraph:
    """Subgraph of the claims of ``net`` whose payment slope is strictly
    positive at ``assets``: ``edges[d][c]`` is the slope of the active claim
    ``(d, c)``, so ``edges[d]`` lists the creditors ``d`` actively pays. Per
    bank with an active out-claim, ``borders`` holds the lowest border
    strictly above its assets over those claims: up to that border no slope
    of the bank changes. A ``left`` graph reads the slopes just below the
    assets instead (``PaymentFunction.lower_segment``), and its ``borders``
    hold the highest border strictly below the assets where one of those
    segments starts: down to that border no slope of the bank changes.
    ``assets`` is the caller's dict itself; whoever moves a bank in it
    refreshes that bank through ``refresh_banks``."""

    __slots__ = ("net", "assets", "edges", "borders", "left")

    def __init__(
        self,
        net: FinancialNetwork,
        assets: dict[str, Fraction],
        edges: dict[str, dict[str, Fraction]],
        borders: dict[str, Fraction],
        left: bool = False,
    ):
        self.net = net
        self.assets = assets
        self.edges = edges  # debtor -> {creditor: positive slope}
        self.borders = borders  # debtor -> next border of its active claims (lower if left)
        self.left = left


def refresh_banks(g: ActiveGraph, banks: Iterable[str]) -> None:
    """Rebuild the map of active out-claims and the next border of each of
    ``banks`` at ``g.assets``, read on the side of the assets that ``g.left``
    names; other banks are left as they are."""
    net, state, edges, borders = g.net, g.assets, g.edges, g.borders
    segment_of = PaymentFunction.lower_segment if g.left else PaymentFunction.active_segment
    nearest = max if g.left else min
    for v in banks:
        borders.pop(v, None)
        assets = state[v]
        active = {}
        ends = []
        for claim in net.out_claims(v):
            segment = segment_of(claim.payment, assets)
            if segment is not None:
                active[claim.creditor], border = segment
                ends.append(border)
        edges[v] = active
        if ends:
            borders[v] = nearest(ends)


def active_graph(net: FinancialNetwork, assets: dict, left: bool = False) -> ActiveGraph:
    g = ActiveGraph(net, assets, {}, {}, left)
    refresh_banks(g, net.bank_ids())
    return g


def strongly_connected(
    nodes: Iterable[str], successors: Mapping[str, Iterable[str]]
) -> list[list[str]]:
    """Strongly connected components by Tarjan's algorithm (Tarjan 1972),
    iterative. ``successors[v]`` holds the node ids that ``v`` points to.
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
        work = [(root, iter(successors[root]))]
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
                    work.append((succ, iter(successors[succ])))
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
    for members in strongly_connected(roots, edges):
        if len(members) > 1:
            component = frozenset(members)
            if all(c in component for v in members for c in edges[v]):
                sinks.append(component)
    return tuple(sorted(sinks, key=min))


def reachable_from(g: ActiveGraph, v: str) -> frozenset[str]:
    if v not in g.edges:
        raise errors.UnknownBankError(v)
    seen = {v}
    frontier = [v]
    while frontier:
        node = frontier.pop()
        for c in g.edges[node]:
            if c not in seen:
                seen.add(c)
                frontier.append(c)
    return frozenset(seen)


def find_flood_component(g: ActiveGraph, source: str | None = None) -> frozenset[str] | None:
    """The first of ``condense(g, source)``: the non-singleton sink SCC
    reachable from ``source`` with the smallest minimum bank id, or None when
    every sink it reaches is a singleton."""
    components = condense(g, source)
    return components[0] if components else None
