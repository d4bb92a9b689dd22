"""Checks on the counter system that the maximal-state descent holds between
rounds.

``check_counter_freshness`` wraps ``priority._lower``: after each lowering
the held system must equal a fresh ``_counter_system`` build at the new
counters, in the values of ``w``, ``c`` and ``floor`` (read as
``Fraction``s by ``oracles.normalized_rows``).

``record_rounds`` wraps ``priority._lower`` to keep every round's lowering,
and ``assert_jumps_sound`` checks those rounds against the maximal state.

``hold_counters`` wraps ``priority._counter_system`` to keep the counters
dict of each descent, which the descent lowers in place.

``record_least_exits`` wraps ``priority._solve_block_least`` and counts how
each least solve of a block of two or more banks leaves: with every member
promoted off its floor, with a member left at its floor, or through the
singular path, which the descent never takes and the driven walks of
``test_priority`` do. Every singular exit is checked to be inconsistent, so
that the solver never refuses a block with a point on its line.

``reference_blocks`` orders the blocks of a counter system inputs first by
a second route, and ``check_block_order`` wraps ``priority._solve_counters``
to hold each round's blocks and least solution against it.
"""

from __future__ import annotations

from bisect import bisect_right

from netclear import errors, priority
from netclear.graphs import strongly_connected

from oracles import as_fraction, has_pinned_flow_solution, normalized_rows

# the message of the least solve's singular exit
SINGULAR = "singular flow system"


def assert_fresh(system, net, structure, counters) -> None:
    held = normalized_rows(system)
    fresh = normalized_rows(priority._counter_system(net, structure, counters))
    for name in ("w", "c", "floor"):
        assert held[name] == fresh[name], f"stale {name} after a lowering"


def check_counter_freshness(monkeypatch) -> dict:
    """Running count of the ``lowerings`` checked."""
    lower = priority._lower
    counts = {"lowerings": 0}

    def checked_lower(system, net, structure, counters, banks, assets):
        lower(system, net, structure, counters, banks, assets)
        assert_fresh(system, net, structure, counters)
        counts["lowerings"] += 1

    monkeypatch.setattr(priority, "_lower", checked_lower)
    return counts


def record_rounds(monkeypatch) -> list:
    """A list that collects one entry per lowering: the banks lowered, their
    assets, and the counters before and after it. Clear it between
    networks."""
    lower = priority._lower
    rounds: list = []

    def recorded_lower(system, net, structure, counters, banks, assets):
        before = dict(counters)
        lower(system, net, structure, counters, banks, assets)
        rounds.append(
            {
                "structure": structure,
                "lowered": list(banks),
                "assets": {v: as_fraction(a) for v, a in assets.items()},
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
            classes = structure[v]
            assert r >= bisect_right(classes.grid, state[v] * classes.den) - 1, (
                f"counter of {v} below the class of the maximal state"
            )
    return jumps


def hold_counters(monkeypatch) -> list:
    """A list that collects the counters dict of each descent, as it stands.
    Clear it between networks."""
    build = priority._counter_system
    held: list = []

    def kept(net, structure, counters):
        held.append(counters)
        return build(net, structure, counters)

    monkeypatch.setattr(priority, "_counter_system", kept)
    return held


def record_least_exits(monkeypatch) -> dict:
    """Running counts of least block solves of two or more banks by exit:
    ``unique`` (every member promoted off its floor, so the flow equalities
    of the whole block have just this solution), ``open`` (a member left at
    its floor) and ``singular`` (raised the ``SINGULAR`` invariant error). On
    a singular exit the flow equalities at the final ``t`` must have no
    solution with the first member pinned at its floor."""
    least = priority._solve_block_least
    counts = {"unique": 0, "open": 0, "singular": 0}

    def recorded_least(system, block, t):
        if len(block) == 1:
            return least(system, block, t)
        try:
            assets = least(system, block, t)
        except errors.InternalInvariantError as error:
            assert SINGULAR in str(error)
            counts["singular"] += 1
            solvable = has_pinned_flow_solution(system, sorted(block), t)
            assert not solvable, "consistent singular least solve"
            raise
        floor = system.floor
        left = any(as_fraction(t[v]) == as_fraction(floor[v]) for v in block)
        counts["open" if left else "unique"] += 1
        return assets

    monkeypatch.setattr(priority, "_solve_block_least", recorded_least)
    return counts


def reference_blocks(system) -> list[list[str]]:
    """The SCC blocks of ``system``, inputs first, by a second route: Tarjan
    on the map from each bank ``u`` to the banks ``v`` whose assets its
    ``t_u`` feeds gives dependents first, so its order is reversed, and each
    block is sorted."""
    feeds = {v: [] for v in system.order}
    for v, row in system.w.items():
        for u in row:
            feeds[u].append(v)
    return [sorted(block) for block in reversed(strongly_connected(system.order, feeds))]


def check_block_order(monkeypatch) -> dict:
    """Wrap ``priority._solve_counters`` so that every round checks the
    blocks it solves, in the order it solves them: they partition the
    banks, and every input of a member's row lies in the member's block or
    in an earlier one. The round's ``(t, a)`` must equal, pair for pair, a
    loop of the least block solve over ``reference_blocks``. Returns the
    running counts of ``rounds``, of ``blocks`` solved, of blocks of two or
    more banks (``cycles``), and of rounds whose order differs from the
    reference's (``reordered``)."""
    solve, least = priority._solve_counters, priority._solve_block_least
    counts = {"rounds": 0, "blocks": 0, "cycles": 0, "reordered": 0}
    blocks: list = []

    def recorded_least(system, block, t):
        blocks.append(list(block))
        return least(system, block, t)

    def checked_solve(system):
        blocks.clear()
        t, a = solve(system)
        position = {v: i for i, block in enumerate(blocks) for v in block}
        assert sorted(position) == sorted(system.order)
        assert sum(map(len, blocks)) == len(system.order)
        for v, row in system.w.items():
            for u in row:
                assert position[u] <= position[v], f"{v} solved before its input {u}"
        reference = reference_blocks(system)
        ref_t, ref_a = {}, {}
        for block in reference:
            ref_a.update(least(system, block, ref_t))
        assert t == ref_t and a == ref_a
        counts["rounds"] += 1
        counts["blocks"] += len(blocks)
        counts["cycles"] += sum(len(block) > 1 for block in blocks)
        counts["reordered"] += [sorted(block) for block in blocks] != reference
        return t, a

    monkeypatch.setattr(priority, "_solve_block_least", recorded_least)
    monkeypatch.setattr(priority, "_solve_counters", checked_solve)
    return counts
