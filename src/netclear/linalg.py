"""Exact rational linear algebra: a sparse solver for the response systems
and one-dimensional nullspace extraction.

Every response system of the engine has the shape ``I - M`` (or its
transpose) for a slope matrix ``M`` over the reachable part of the active
graph: one unit diagonal per bank plus one entry per active edge, so a few
nonzeros per row. ``solve_linear_system`` takes exactly those nonzeros as
sparse rows and eliminates in a Markowitz-style pivot order (Markowitz 1957)
to keep fill-in, and so the number of ``Fraction`` operations, small.
Exact arithmetic fixes the solution of a nonsingular system, so the pivot
order changes the cost, never the result.
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


def _rref(rows: list[list[Fraction]]) -> list[int]:
    """In-place reduced row echelon form; returns the pivot column list."""
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for col in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if rows[i][col] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pivot = rows[r][col]
        rows[r] = [x / pivot for x in rows[r]]
        for i in range(n_rows):
            if i != r and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == n_rows:
            break
    return pivots


def unit_left_nullspace(matrix) -> list[Fraction]:
    """The unique (up to scale) non-negative ``d`` with ``d = d M``, scaled so
    its largest entry is 1. The caller guarantees M is the slope matrix of a
    non-singleton sink component: row-stochastic and irreducible, so the
    nullspace of ``(M^T - I)`` is one-dimensional by Perron-Frobenius.
    """
    n = len(matrix)
    if n == 0 or any(len(row) != n for row in matrix):
        raise ValueError("need a square matrix")
    # rows of (M^T - I)
    a = [[matrix[j][i] - (ONE if i == j else ZERO) for j in range(n)] for i in range(n)]
    pivots = _rref(a)
    free = [c for c in range(n) if c not in pivots]
    if len(free) != 1:
        raise DegenerateMatrixError(
            f"left nullspace has dimension {len(free)}, expected 1"
        )
    free_col = free[0]
    vector = [ZERO] * n
    vector[free_col] = ONE
    for row, col in zip(a, pivots):
        vector[col] = -row[free_col]
    if any(x < 0 for x in vector):
        if all(x <= 0 for x in vector):
            vector = [-x for x in vector]
        else:
            raise DegenerateMatrixError("nullspace vector changes sign")
    top = max(vector)
    if top == 0:
        raise DegenerateMatrixError("nullspace vector is zero")
    return [x / top for x in vector]
