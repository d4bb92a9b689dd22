"""Exact rational linear algebra: one sparse solver for every exact system
of the engine, and the Perron direction of a circulation built on it.

Every response system of the engine has the shape ``I - M^T`` for a slope
matrix ``M`` over the reachable part of the active graph: one unit diagonal
per bank plus one entry per active edge, so a few nonzeros per row.
``solve_linear_system`` takes exactly those nonzeros as sparse rows and
eliminates in a Markowitz-style pivot order (Markowitz 1957) to keep
fill-in small. Exact arithmetic fixes the solution of a nonsingular system,
so the pivot order changes the cost, never the result.

The elimination runs on Python integers, fraction-free in the manner of
Bareiss (1968). Each row, with its right-hand side, is scaled by the lcm of
its denominators. Eliminating pivot ``P`` of row ``p`` from row ``r``, whose
entry is ``a``, sets ``row_r <- (P/g) row_r - (a/g) row_p`` for
``g = gcd(P, a)``, and a row scaled by ``P/g != 1`` is divided by the gcd
of its entries and right-hand side (its content), which keeps the integers
short; a row that has cancelled to zero, right-hand side included, has
content 0 and is left as it is. Every row is thus always a nonzero integer
multiple of the row a rational elimination ``row_r - (a/P) row_p`` would
hold, so the two have the same zero pattern at every step: the same
Markowitz counts, the same pivots and the same answer to "is it singular".
Back-substitution runs over one common denominator, and the solution leaves
the solver as it was computed: integer numerators over that one positive
denominator. No ``Fraction`` is built per coordinate; a caller that keeps
the values builds them, and one that only scales and compares them (the
minimal-state steps) stays on integers.

``unit_left_nullspace`` reads the same rows as the columns of ``A = I - M``
(or of ``M - I``: its answer does not depend on the sign of ``A``) and pins
one coordinate of the Perron vector before handing them to the same solver.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd

from .errors import DegenerateMatrixError

SparseRow = Sequence[tuple[int, Fraction]]


def solve_linear_system(
    rows: Sequence[SparseRow], rhs: Sequence[Fraction]
) -> tuple[list[int], int] | None:
    """Solve ``A x = b`` exactly; None exactly when A is singular.

    ``rows[i]`` lists the nonzero entries of row ``i`` of the square matrix
    ``A`` as ``(column, value)`` pairs; repeated columns are summed. Values
    and ``rhs`` are ``Fraction`` or ``int``. The solution is returned as
    ``(numerators, den)``: ``x[i] == Fraction(numerators[i], den)`` with
    ``int`` numerators and one ``int`` common denominator ``den > 0``, not
    necessarily in lowest terms. Each step pivots on the live column with
    the fewest live entries and, within it, on the row with the fewest
    nonzeros (ties go to the lowest index).
    """
    n = len(rows)
    if n == 0 or len(rhs) != n:
        raise ValueError("need a square system and a matching right-hand side")
    work: list[dict[int, int]] = []
    b: list[int] = []
    col_rows: list[set[int]] = [set() for _ in range(n)]
    for i, row in enumerate(rows):
        # One pass per row: den stays the lcm of the denominators seen so
        # far, and the entries already scaled are raised when it grows.
        b_num, den = rhs[i].as_integer_ratio()
        ints: dict[int, int] = {}
        for col, value in row:
            num, d = value.as_integer_ratio()
            if den % d:
                factor = d // gcd(den, d)
                den *= factor
                b_num *= factor
                for c in ints:
                    ints[c] *= factor
            num *= den // d
            if col in ints:
                ints[col] += num
            else:
                ints[col] = num
        if ints and (min(ints) < 0 or max(ints) >= n):
            col = next(c for c in ints if not 0 <= c < n)
            raise ValueError(f"column {col} outside a {n}x{n} system")
        if 0 in ints.values():
            ints = {c: value for c, value in ints.items() if value}
        for col in ints:
            col_rows[col].add(i)
        work.append(ints)
        b.append(b_num)

    # Heap of (live entries, column); an entry is stale once its column is
    # eliminated or its count has changed, and a fresh one is pushed then.
    heap = [(len(rows_of), c) for c, rows_of in enumerate(col_rows)]
    heapify(heap)
    eliminated = [False] * n
    pivots: list[tuple[int, int, list[tuple[int, int]], int]] = []
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
            a = row.pop(col)
            g = gcd(pivot, a)
            keep, take = pivot // g, a // g
            if keep != 1:
                for c in row:
                    row[c] *= keep
            for c, value in others:
                if c not in row:
                    row[c] = -take * value  # fill-in, nonzero
                    col_rows[c].add(r)
                    continue
                new = row[c] - take * value
                if new:
                    row[c] = new
                else:
                    del row[c]
                    col_rows[c].discard(r)
            b_r = keep * b[r] - take * b_pivot
            if keep != 1:
                # content is 0 when the row and b_r both cancelled to 0
                content = gcd(b_r, *row.values())
                if content > 1:
                    for c in row:
                        row[c] //= content
                    b_r //= content
            b[r] = b_r
        candidates.clear()
        for c, _ in others:
            heappush(heap, (len(col_rows[c]), c))
        pivots.append((col, pivot, others, b_pivot))

    # The coordinates solved so far are numerators / den, for one den.
    numerators = [0] * n
    den = 1
    solved: list[int] = []
    for col, pivot, others, b_pivot in reversed(pivots):
        acc = b_pivot * den
        for c, value in others:
            acc -= value * numerators[c]
        g = gcd(acc, pivot)
        scale, acc = pivot // g, acc // g
        if scale != 1:
            den *= scale
            for c in solved:
                numerators[c] *= scale
        numerators[col] = acc
        if acc:
            solved.append(col)
    if den < 0:
        return [-x for x in numerators], -den
    return numerators, den


def unit_left_nullspace(columns: Sequence[SparseRow]) -> list[Fraction]:
    """The non-negative ``d`` with ``d A = 0``, largest entry 1, for
    ``A = I - M`` given by its sparse columns as ``(row, value)`` pairs (the
    sparse rows of ``I - M^T``). ``d A = 0`` exactly when ``d (-A) = 0``, so
    the columns of ``M - I`` give the same ``d``. The caller guarantees M is
    the slope matrix of a non-singleton sink component: row-stochastic and
    irreducible, so by Perron-Frobenius ``d = d M`` has one positive line of
    solutions, and ``d_0 = 1`` pins a point on it. Any other M raises
    ``DegenerateMatrixError``.
    """
    n = len(columns)
    if n == 0:
        raise ValueError("need a square matrix")
    if any(not 0 <= i < n for i, _ in columns[0]):
        raise ValueError(f"column 0 has a row outside a {n}x{n} matrix")
    # Column equations sum_i d_i A_ij = 0, with d_0 = 1 in place of equation
    # 0; the dropped equation and the sign are checked afterwards.
    # The numerators share the solver's positive denominator, so they carry
    # the signs and the ratios of d.
    solution = solve_linear_system([[(0, 1)], *columns[1:]], [1] + [0] * (n - 1))
    vector = None if solution is None else solution[0]
    if vector is None or sum(x * vector[i] for i, x in columns[0]) or min(vector) < 0:
        raise DegenerateMatrixError("d = d M has no single non-negative line")
    top = max(vector)
    return [Fraction(x, top) for x in vector]
