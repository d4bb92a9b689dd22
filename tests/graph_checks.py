"""Checks on the active graph that the engine's walks hold between steps.

- ``check_advance_freshness`` wraps ``minimal.advance`` in every ``netclear``
  namespace that binds it. Every rate it is handed must be an ``int``, as
  ``advance`` and ``border_scale`` read no denominator of a rate. After each
  call the held graph must equal a fresh
  ``active_graph`` build of its own network at its moved assets, of its own
  kind (right slopes, or the ``left`` slopes of ``compute_min_clearing``'s
  reverse floods), in its map of active claims and their slopes and in its
  borders.
- ``count_builds`` counts ``active_graph`` builds in every namespace, and
  how many of them ran inside a min-clear: ``compute_min_clearing`` or
  ``run_min_clearing``.
- ``record_steps`` records the flood and increase steps that
  ``run_min_clearing`` applies, in order, each with its kind.
- ``working_network`` is the injection driver's working network with the
  externals injected so far, the network its working assets solve.
- ``check_driver`` checks the injection driver ``run_min_clearing`` step by
  step: the graph each increase step reads, the flood search beside each
  response, the working state after each step and rewire, and the state
  the run returns.
"""

from __future__ import annotations

import sys

from netclear import clearing, graphs, minimal
from netclear.model import Bank, assemble


def _rebind(monkeypatch, original, replacement) -> None:
    """Replace ``original`` by ``replacement`` in every ``netclear`` module
    that binds it."""
    bound = 0
    for name, module in list(sys.modules.items()):
        if name != "netclear" and not name.startswith("netclear."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, replacement)
                bound += 1
    assert bound


def check_advance_freshness(monkeypatch) -> dict:
    """Counts of checked ``advance`` calls, of calls that moved a bank onto
    its border (which must refresh the held graph), and of the calls on a
    ``left`` graph, ``compute_min_clearing``'s reverse floods, each of which
    lands a bank on its lower border."""
    original = minimal.advance
    counts = {"calls": 0, "landed": 0, "reverse": 0}

    def checked(g, rates, scale):
        assert all(type(rate) is int for rate in rates.values()), "a rate that is no int"
        before = dict(g.borders)
        original(g, rates, scale)
        assets = g.assets
        fresh = graphs.active_graph(g.net, assets, g.left)
        assert g.edges == fresh.edges, "stale edges after advance"
        assert g.borders == fresh.borders, "stale borders after advance"
        counts["calls"] += 1
        counts["landed"] += any(u in before and assets[u] == before[u] for u in rates)
        counts["reverse"] += g.left

    _rebind(monkeypatch, original, checked)
    return counts


def count_builds(monkeypatch) -> dict:
    """Running totals: ``all`` builds, and those made inside a min-clear,
    ``min_clear``."""
    build = graphs.active_graph
    counts = {"all": 0, "min_clear": 0}
    depth = 0  # compute_min_clearing may call run_min_clearing

    def counted_build(*args, **kwargs):
        counts["all"] += 1
        counts["min_clear"] += depth > 0
        return build(*args, **kwargs)

    def counting(run):
        def counted_run(*args, **kwargs):
            nonlocal depth
            depth += 1
            try:
                return run(*args, **kwargs)
            finally:
                depth -= 1

        return counted_run

    _rebind(monkeypatch, build, counted_build)
    for run in (minimal.compute_min_clearing, minimal.run_min_clearing):
        _rebind(monkeypatch, run, counting(run))
    return counts


def record_steps(monkeypatch) -> list:
    """The list that ``solve_flood_step`` and ``solve_increase_step``, in
    every namespace that binds them, append their steps to as ``(kind,
    step)`` pairs, ``kind`` being "flood" or "increase". ``run_min_clearing``
    applies every step it solves, so over one run this is its trace, in the
    order taken. A singular response (None) is no step and is left out."""
    steps = []

    def recording(solve, kind):
        def recorded(*args):
            step = solve(*args)
            if step is not None:
                steps.append((kind, step))
            return step

        return recorded

    for solve, kind in (
        (minimal.solve_flood_step, "flood"),
        (minimal.solve_increase_step, "increase"),
    ):
        _rebind(monkeypatch, solve, recording(solve, kind))
    return steps


def working_network(adj):
    """``adj``'s working network with the externals injected so far,
    ``adj.injected``, as its banks' external assets. Every working bank has
    ``alpha = beta = 1``, so the driver's working assets are a fixed point
    of this network exactly."""
    banks = [Bank(v, adj.injected[v]) for v in adj.network.bank_ids()]
    return assemble(banks, adj.network.claims)


def _check_working_state(adj, assets, before) -> None:
    """``assets`` is a fixed point of ``working_network(adj)``, and no bank
    that ``before`` holds fell."""
    fell = sorted(v for v in assets if v in before and assets[v] < before[v])
    assert not fell, f"working assets fell at {fell}"
    check = clearing.is_clearing_state(working_network(adj), assets)
    assert check.ok, f"working state lost the fixed-point invariant: {check.violations}"


def check_driver(monkeypatch) -> dict:
    """Wrap, in every ``netclear`` namespace that binds them, the functions
    ``run_min_clearing`` calls, and check each call inside a run:

    - before each ``solve_increase_step`` the graph must belong to the
      working network and equal a fresh ``active_graph`` build at its
      assets, in its active claims, their slopes and its borders;
    - after it, the step must be None exactly when the driver's
      ``find_flood_component`` finds a flood from the source;
    - after each ``advance`` and each ``rewire_solvent_bank``, the working
      assets must be a fixed point of the working network under
      ``adj.injected``, and no working bank that survives may fall;
    - the state the run returns must be a clearing state of its network.

    Call the driver through a rebound name, such as
    ``netclear.run_min_clearing``, or through a solver that runs it: a test
    module's own ``from netclear import run_min_clearing`` is not rebound,
    and a run through it fails. Defects planted into ``minimal`` before the
    call are wrapped and checked in turn. Returns running counts of the
    checked ``runs``, ``steps`` (``advance`` calls, floods and increases
    alike) and ``rewires``."""
    run, adjust = minimal.run_min_clearing, minimal.adjust_default_cost
    solve, advance, rewire = (
        minimal.solve_increase_step,
        minimal.advance,
        minimal.rewire_solvent_bank,
    )
    build = graphs.active_graph
    counts = {"runs": 0, "steps": 0, "rewires": 0}
    runs = []  # the AdjustedNetwork of each run in progress

    def checked_run(net):
        runs.append(None)
        try:
            result = run(net)
        finally:
            runs.pop()
        check = clearing.is_clearing_state(net, result.state)
        assert check.ok, f"run_min_clearing returned no clearing state: {check.violations}"
        counts["runs"] += 1
        return result

    def checked_adjust(net):
        # only run_min_clearing calls it inside the package
        assert runs, "run_min_clearing called past the checker"
        runs[-1] = adjust(net)
        return runs[-1]

    def checked_solve(g, v, budget):
        if not runs:
            return solve(g, v, budget)
        fresh = build(g.net, g.assets)
        assert (
            g.net is runs[-1].network
            and g.edges == fresh.edges
            and g.borders == fresh.borders
        ), "stale active graph handed to the increase step"
        step = solve(g, v, budget)
        # the driver's own binding, so that a planted flood search is checked
        component = minimal.find_flood_component(g, v)
        assert (step is None) == (component is not None), (
            "singular response without a reachable flood"
            if step is None
            else "regular response despite a reachable flood"
        )
        return step

    def checked_advance(g, rates, scale):
        if not runs:
            return advance(g, rates, scale)
        before = dict(g.assets)
        advance(g, rates, scale)
        _check_working_state(runs[-1], g.assets, before)
        counts["steps"] += 1

    def checked_rewire(adj, assets, u):
        before = dict(assets)
        rewire(adj, assets, u)
        _check_working_state(adj, assets, before)
        counts["rewires"] += 1

    for original, replacement in (
        (run, checked_run),
        (adjust, checked_adjust),
        (solve, checked_solve),
        (advance, checked_advance),
        (rewire, checked_rewire),
    ):
        _rebind(monkeypatch, original, replacement)
    return counts
