"""Exact rational linear algebra: one sparse solver for every exact system
of the engine, and the Perron direction of a circulation built on it.

Every response system of the engine has the shape ``I - M`` (or its
transpose) for a slope matrix ``M`` over the reachable part of the active
graph: one unit diagonal per bank plus one entry per active edge, so a few
nonzeros per row. ``solve_linear_system`` takes exactly those nonzeros as
sparse rows and eliminates in a Markowitz-style pivot order (Markowitz 1957)
to keep fill-in, and so the number of ``Fraction`` operations, small.
Exact arithmetic fixes the solution of a nonsingular system, so the pivot
order changes the cost, never the result. ``unit_left_nullspace`` pins one
coordinate of the Perron vector and hands the rest to the same solver.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from heapq import heapify, heappop, heappush

from .errors import DegenerateMatrixError
from .rationals import ONE, ZERO

SparseRow = Sequence[tuple[int, Fraction]]


def solve_linear_system(
    rows: Sequence[SparseRow], rhs: Sequence[Fraction]
) -> list[Fraction] | None:
    """Solve ``A x = b`` exactly; None exactly when A is singular.

    ``rows[i]`` lists the nonzero entries of row ``i`` of the square matrix
    ``A`` as ``(column, value)`` pairs; repeated columns are summed. Each
    step pivots on the live column with the fewest live entries and, within
    it, on the row with the fewest nonzeros (ties go to the lowest index).
    """
    n = len(rows)
    if n == 0 or len(rhs) != n:
        raise ValueError("need a square system and a matching right-hand side")
    work: list[dict[int, Fraction]] = []
    col_rows: list[set[int]] = [set() for _ in range(n)]
    for i, row in enumerate(rows):
        entries: dict[int, Fraction] = {}
        for col, value in row:
            if not 0 <= col < n:
                raise ValueError(f"column {col} outside a {n}x{n} system")
            entries[col] = entries[col] + value if col in entries else value
        entries = {col: value for col, value in entries.items() if value}
        for col in entries:
            col_rows[col].add(i)
        work.append(entries)
    b = list(rhs)

    # Heap of (live entries, column); an entry is stale once its column is
    # eliminated or its count has changed, and a fresh one is pushed then.
    heap = [(len(rows_of), c) for c, rows_of in enumerate(col_rows)]
    heapify(heap)
    eliminated = [False] * n
    pivots: list[tuple[int, int]] = []
    for _ in range(n):
        while True:
            count, col = heappop(heap)
            if not eliminated[col] and count == len(col_rows[col]):
                break
        if not count:
            return None
        candidates = col_rows[col]
        if count == 1:
            (prow,) = candidates
        else:
            prow = min(candidates, key=lambda r: (len(work[r]), r))
        eliminated[col] = True
        base = work[prow]
        for c in base:
            col_rows[c].discard(prow)
        pivot = base[col]
        others = [(c, value) for c, value in base.items() if c != col]
        b_pivot = b[prow]
        for r in candidates:
            row = work[r]
            factor = -row.pop(col) / pivot
            for c, value in others:
                if c not in row:
                    row[c] = factor * value  # fill-in, nonzero
                    col_rows[c].add(r)
                    continue
                new = row[c] + factor * value
                if new:
                    row[c] = new
                else:
                    del row[c]
                    col_rows[c].discard(r)
            if b_pivot:
                b[r] += factor * b_pivot
        candidates.clear()
        for c, _ in others:
            heappush(heap, (len(col_rows[c]), c))
        pivots.append((prow, col))

    solution = [ZERO] * n
    for prow, col in reversed(pivots):
        base = work[prow]
        acc = b[prow]
        for c, value in base.items():
            if c != col and solution[c]:
                acc -= value * solution[c]
        solution[col] = acc / base[col]
    return solution


def unit_left_nullspace(rows: Sequence[SparseRow]) -> list[Fraction]:
    """The unique (up to scale) non-negative ``d`` with ``d = d M``, scaled so
    its largest entry is 1, for the square ``M`` given as sparse rows like
    ``solve_linear_system``'s. The caller guarantees M is the slope matrix of
    a non-singleton sink component: row-stochastic and irreducible, so by
    Perron-Frobenius the solutions form one positive line, and ``d_0 = 1``
    pins a point on it. Any other M raises ``DegenerateMatrixError``.
    """
    n = len(rows)
    if n == 0:
        raise ValueError("need a square matrix")
    # Column equations d_j - sum_i M_ij d_i = 0, with d_0 = 1 in place of
    # equation 0; the dropped equation and the sign are checked afterwards.
    equations = [[(j, ONE)] for j in range(n)]
    for i, row in enumerate(rows):
        for j, value in row:
            if not 0 <= j < n:
                raise ValueError(f"column {j} outside a {n}x{n} matrix")
            equations[j].append((i, -value))
    dropped, equations[0] = equations[0], [(0, ONE)]
    vector = solve_linear_system(equations, [ONE] + [ZERO] * (n - 1))
    if (
        vector is None
        or sum((x * vector[i] for i, x in dropped), ZERO)
        or any(x < 0 for x in vector)
    ):
        raise DegenerateMatrixError("d = d M has no single non-negative line")
    top = max(vector)
    return [x / top for x in vector]
