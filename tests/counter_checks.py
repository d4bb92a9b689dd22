"""Checks on the counter system that the maximal-state descent holds between
rounds.

``check_counter_freshness`` wraps ``priority._lower`` and
``priority._solve_counters``:

- after each lowering the held system must equal a fresh ``_counter_system``
  build at the new counters, in ``w``, ``c``, ``floor`` and ``cap``;
- rounds that end in an insatiable block are counted.
"""

from __future__ import annotations

from netclear import priority


def assert_fresh(system, net, structure, counters) -> None:
    fresh = priority._counter_system(net, structure, counters)
    assert system.w == fresh.w, "stale w after a lowering"
    assert system.c == fresh.c, "stale c after a lowering"
    assert system.floor == fresh.floor, "stale floor after a lowering"
    assert system.cap == fresh.cap, "stale cap after a lowering"


def check_counter_freshness(monkeypatch) -> dict:
    """Running counts: ``lowerings`` checked and ``insatiable`` rounds."""
    lower, solve = priority._lower, priority._solve_counters
    counts = {"lowerings": 0, "insatiable": 0}

    def checked_lower(system, net, structure, counters, banks):
        lower(system, net, structure, counters, banks)
        assert_fresh(system, net, structure, counters)
        counts["lowerings"] += 1

    def counted_solve(system):
        try:
            return solve(system)
        except priority._Insatiable:
            counts["insatiable"] += 1
            raise

    monkeypatch.setattr(priority, "_lower", checked_lower)
    monkeypatch.setattr(priority, "_solve_counters", counted_solve)
    return counts
