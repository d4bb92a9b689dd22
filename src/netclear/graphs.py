"""Active-graph construction, SCC condensation, and flood detection."""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter

from . import errors
from .model import Claim, FinancialNetwork


@dataclass(frozen=True)
class ActiveGraph:
    """Subgraph of claims whose payment slope is strictly positive at the
    current debtor assets, with that slope per edge and, per bank with an
    active out-claim, the lowest border strictly above its assets over those
    claims: up to that border no slope of the bank changes. The maps are
    updated in place by ``refresh_banks``."""

    nodes: tuple[str, ...]
    edges: dict[str, tuple[Claim, ...]]  # debtor -> active out-claims
    slopes: dict[tuple[str, str], Fraction]  # claim pair -> positive slope
    borders: dict[str, Fraction]  # debtor -> next border of its active claims


def refresh_banks(
    g: ActiveGraph, net: FinancialNetwork, state: Mapping, banks: Iterable[str]
) -> None:
    """Recompute, in place, the active out-claims, their slopes and the next
    border of each of ``banks`` at ``state``; other banks are left as they
    are."""
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


def active_graph(net: FinancialNetwork, state: Mapping) -> ActiveGraph:
    g = ActiveGraph(nodes=net.bank_ids(), edges={}, slopes={}, borders={})
    refresh_banks(g, net, state, g.nodes)
    return g


@dataclass(frozen=True)
class Condensation:
    components: tuple[frozenset[str], ...]  # ordered by smallest member id
    component_of: dict[str, int]
    dag: tuple[frozenset[int], ...]  # out-edges between component indices
    is_sink: tuple[bool, ...]
    is_singleton: tuple[bool, ...]


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


def condense(g: ActiveGraph) -> Condensation:
    """SCC condensation of the active graph."""
    edges = g.edges
    sccs = strongly_connected(g.nodes, lambda v: map(_creditor, edges[v]))
    ordered = sorted((frozenset(c) for c in sccs), key=min)
    component_of = {v: i for i, comp in enumerate(ordered) for v in comp}
    dag: list[set[int]] = [set() for _ in ordered]
    for v in g.nodes:
        for claim in g.edges[v]:
            a, b = component_of[v], component_of[claim.creditor]
            if a != b:
                dag[a].add(b)
    return Condensation(
        components=tuple(ordered),
        component_of=component_of,
        dag=tuple(frozenset(s) for s in dag),
        is_sink=tuple(not s for s in dag),
        is_singleton=tuple(len(c) == 1 for c in ordered),
    )


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


def find_flood_component(
    g: ActiveGraph, cond: Condensation, v: str | None = None
) -> frozenset[str] | None:
    """The non-singleton sink SCC reachable from ``v`` (from anywhere when
    ``v`` is None) with the smallest minimum bank id, or None when every such
    sink is a singleton."""
    if v is None:
        seen = range(len(cond.components))
    else:
        if v not in g.edges:
            raise errors.UnknownBankError(v)
        start = cond.component_of[v]
        seen = {start}
        frontier = [start]
        while frontier:
            comp = frontier.pop()
            for succ in cond.dag[comp]:
                if succ not in seen:
                    seen.add(succ)
                    frontier.append(succ)
    candidates = [
        i for i in seen if cond.is_sink[i] and not cond.is_singleton[i]
    ]
    if not candidates:
        return None
    # Components are numbered in order of their smallest member id.
    return cond.components[min(candidates)]
