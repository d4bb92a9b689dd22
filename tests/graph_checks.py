"""Checks on the active graph that the engine's walks hold between steps.

- ``check_advance_freshness`` wraps ``minimal.advance`` in every ``netclear``
  namespace that binds it. After each call the held graph must equal a fresh
  ``active_graph`` build of its own network at its moved assets, in its map
  of active claims and their slopes and in its borders.
- ``count_builds`` counts ``active_graph`` builds in every namespace, and
  how many of them ran inside ``run_min_clearing``.
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
    """Counts of checked ``advance`` calls and of calls that moved a bank
    onto its next border (which must refresh the held graph)."""
    original = minimal.advance
    counts = {"calls": 0, "landed": 0}

    def checked(g, rates, scale):
        before = dict(g.borders)
        original(g, rates, scale)
        assets = g.assets
        fresh = graphs.active_graph(g.net, assets)
        assert g.edges == fresh.edges, "stale edges after advance"
        assert g.borders == fresh.borders, "stale borders after advance"
        counts["calls"] += 1
        if any(u in before and assets[u] == before[u] for u in rates):
            counts["landed"] += 1

    _rebind(monkeypatch, original, checked)
    return counts


def count_builds(monkeypatch) -> dict:
    """Running totals: ``all`` builds, and those made inside ``min_clear``."""
    build, run = graphs.active_graph, minimal.run_min_clearing
    counts = {"all": 0, "min_clear": 0}

    def counted_build(*args):
        counts["all"] += 1
        return build(*args)

    def counted_run(*args, **kwargs):
        before = counts["all"]
        try:
            return run(*args, **kwargs)
        finally:
            counts["min_clear"] += counts["all"] - before

    _rebind(monkeypatch, build, counted_build)
    _rebind(monkeypatch, run, counted_run)
    return counts
