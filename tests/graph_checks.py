"""Checks on the active graph that the engine's walks hold between steps.

- ``check_advance_freshness`` wraps ``minimal.advance`` in every ``netclear``
  namespace that binds it. After each call the held graph must equal a fresh
  ``active_graph`` build of its own network at its moved assets, of its own
  kind (right slopes, or the ``left`` slopes of ``compute_min_clearing``'s
  reverse floods), in its map of active claims and their slopes and in its
  borders.
- ``count_builds`` counts ``active_graph`` builds in every namespace, and
  how many of them ran inside a min-clear: ``compute_min_clearing`` or
  ``run_min_clearing``.
- ``record_steps`` records the flood and increase steps that
  ``run_min_clearing`` applies, in order.
"""

from __future__ import annotations

import sys

from netclear import graphs, minimal


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
    every namespace that binds them, append their steps to. ``run_min_clearing``
    applies every step it solves, so over one run this is its trace, in the
    order taken. A singular response (None) is no step and is left out."""
    steps = []

    def recording(solve):
        def recorded(*args):
            step = solve(*args)
            if step is not None:
                steps.append(step)
            return step

        return recorded

    for solve in (minimal.solve_flood_step, minimal.solve_increase_step):
        _rebind(monkeypatch, solve, recording(solve))
    return steps
