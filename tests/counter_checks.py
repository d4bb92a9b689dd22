"""Checks on the counter system that the maximal-state descent holds between
rounds.

``check_counter_freshness`` wraps ``priority._lower`` and
``priority._solve_counters``:

- after each lowering the held system must equal a fresh ``_counter_system``
  build at the new counters, in ``w``, ``c``, ``floor`` and ``cap``;
- rounds that end in an insatiable block are counted.

``record_rounds`` wraps ``priority._lower`` to keep every regular round's
lowering (the insatiable rounds lower by one and pass no assets), and
``assert_jumps_sound`` checks those rounds against the maximal state.

``record_least_exits`` wraps ``priority._solve_block_least`` and counts how
each least solve of a block of two or more banks leaves: with one solution,
with a member never promoted, or through the singular path. Every singular
exit is checked to be inconsistent, so that no least solve needed the
consistent line of a closed block.
"""

from __future__ import annotations

from bisect import bisect_right

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

    def checked_lower(system, net, structure, counters, banks, *rest):
        lower(system, net, structure, counters, banks, *rest)
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


def record_rounds(monkeypatch) -> list:
    """A list that collects one entry per regular round: the banks lowered,
    their assets, and the counters before and after the lowering. Clear it
    between networks."""
    lower = priority._lower
    rounds: list = []

    def recorded_lower(system, net, structure, counters, banks, *rest):
        before = dict(counters)
        lower(system, net, structure, counters, banks, *rest)
        assets = rest[0] if rest else None
        if assets is not None:
            rounds.append(
                {
                    "structure": structure,
                    "lowered": list(banks),
                    "assets": dict(assets),
                    "before": before,
                    "after": dict(counters),
                }
            )

    monkeypatch.setattr(priority, "_lower", recorded_lower)
    return rounds


def assert_jumps_sound(rounds, state) -> int:
    """Every bank a round lowered has ``x*_v <= a_v`` for the maximal state
    ``state``, and every counter stays at or above ``class(x*_v)``. Returns
    the number of lowerings by two or more classes."""
    jumps = 0
    for entry in rounds:
        structure = entry["structure"]
        for v in entry["lowered"]:
            assert state[v] <= entry["assets"][v], f"lowered {v} below the maximal state"
            if entry["before"][v] - entry["after"][v] >= 2:
                jumps += 1
        for v, r in entry["after"].items():
            assert r >= bisect_right(structure[v].grid, state[v]) - 1, (
                f"counter of {v} below the class of the maximal state"
            )
    return jumps


def record_least_exits(monkeypatch) -> dict:
    """Running counts of least block solves of two or more banks by exit:
    ``unique``, ``open`` (a member never promoted) and ``singular`` (raised
    ``_Insatiable``). On a singular exit the flow equalities at the final
    ``t`` must have no solution on the pinned line."""
    least = priority._solve_block_least
    counts = {"unique": 0, "open": 0, "singular": 0}

    def recorded_least(system, block, t):
        if len(block) == 1:
            return least(system, block, t)
        try:
            assets, unique = least(system, block, t)
        except priority._Insatiable:
            counts["singular"] += 1
            line = priority._solve_singular_line(system, sorted(block), t)
            assert line == (None, None), "consistent singular least solve"
            raise
        counts["unique" if unique else "open"] += 1
        return assets, unique

    monkeypatch.setattr(priority, "_solve_block_least", recorded_least)
    return counts
