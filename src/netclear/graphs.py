"""Active-graph construction, SCC condensation, and flood detection."""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass
from operator import attrgetter

from . import errors
from .model import Claim, FinancialNetwork


@dataclass(frozen=True)
class ActiveGraph:
    """Subgraph of claims whose payment slope is strictly positive at the
    current debtor assets, with the active interval index per edge."""

    nodes: tuple[str, ...]
    edges: dict[str, tuple[Claim, ...]]  # debtor -> active out-claims
    intervals: dict[tuple[str, str], int]

    def edge_pairs(self) -> set[tuple[str, str]]:
        return set(self.intervals)


def active_graph(net: FinancialNetwork, state: Mapping) -> ActiveGraph:
    edges: dict[str, tuple[Claim, ...]] = {}
    intervals: dict[tuple[str, str], int] = {}
    for v in net.bank_ids():
        assets = state[v]
        active = tuple(
            claim for claim in net.out_claims(v) if claim.payment.slope_at(assets) > 0
        )
        edges[v] = active
        for claim in active:
            intervals[claim.pair] = claim.payment.segment_index(assets)
    return ActiveGraph(nodes=net.bank_ids(), edges=edges, intervals=intervals)


def phase_key(net: FinancialNetwork, state: Mapping) -> tuple:
    """Sortable key identifying the phase: active edges plus their intervals."""
    g = active_graph(net, state)
    return tuple(sorted(g.intervals.items()))


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
