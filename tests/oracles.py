"""Reference implementations the test suites check the engine against.

None of this runs in the product:

- ``dense_solve_linear_system``: plain dense Gaussian elimination, the oracle
  for the sparse ``netclear.linalg.solve_linear_system``;
- ``sparse_rows``: converts a dense matrix to the solver's sparse rows;
- ``identity_minus_columns``: converts a dense ``M`` to the sparse columns of
  ``I - M`` that ``unit_left_nullspace`` takes;
- ``dense_unit_left_nullspace``: the Perron direction by dense reduced row
  echelon form, the oracle for the sparse ``unit_left_nullspace``;
- an exact two-phase simplex (``simplex_solve``) with Bland's rule, and
  ``build_counter_lp``, the literal LP form of the counter-descent
  feasibility test that the block solver is cross-checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from netclear.errors import DegenerateMatrixError
from netclear.model import FinancialNetwork
from netclear.priority import BankClasses, _counter_system
from netclear.rationals import ONE, ZERO


def sparse_rows(matrix) -> list[list[tuple[int, Fraction]]]:
    """The nonzero entries of each row of a dense matrix, as ``(column,
    value)`` pairs."""
    return [[(j, x) for j, x in enumerate(row) if x] for row in matrix]


def identity_minus_columns(matrix) -> list[list[tuple[int, Fraction]]]:
    """The nonzero entries of each column of ``I - M`` for a dense square
    ``M``, as ``(row, value)`` pairs: the input of ``unit_left_nullspace``."""
    n = len(matrix)
    return sparse_rows(
        [[(ONE if i == j else ZERO) - matrix[i][j] for i in range(n)] for j in range(n)]
    )


def dense_solve_linear_system(matrix, rhs) -> list[Fraction] | None:
    """Solve ``A x = b`` exactly by dense Gaussian elimination; None when A is
    singular.

    Pivoting swaps in the first row with an exactly nonzero pivot entry —
    there is no numerical benefit to magnitude-based pivoting here.
    """
    n = len(matrix)
    if n == 0 or any(len(row) != n for row in matrix) or len(rhs) != n:
        raise ValueError("need a square matrix and a matching right-hand side")
    rows = [list(row) + [b] for row, b in zip(matrix, rhs)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot_row is None:
            return None
        if pivot_row != col:
            rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
        pivot = rows[col][col]
        base = rows[col]
        for r in range(col + 1, n):
            factor = rows[r][col]
            if factor == 0:
                continue
            factor /= pivot
            row = rows[r]
            for c in range(col, n + 1):
                if base[c]:
                    row[c] -= factor * base[c]
    solution = [ZERO] * n
    for r in range(n - 1, -1, -1):
        acc = rows[r][n]
        row = rows[r]
        for c in range(r + 1, n):
            if row[c] and solution[c]:
                acc -= row[c] * solution[c]
        solution[r] = acc / row[r]
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


def dense_unit_left_nullspace(matrix) -> list[Fraction]:
    """The non-negative ``d`` with ``d = d M`` for a dense ``M`` whose left
    nullspace of ``M - I`` is one-dimensional, largest entry 1, by reduced
    row echelon form. Unlike the engine's sparse version it accepts a
    nullspace vector with zero entries."""
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


# --- linear programming ------------------------------------------------------

LESS_EQUAL = "<="
EQUAL = "="
GREATER_EQUAL = ">="

NON_NEGATIVE = "nonneg"
FREE = "free"


@dataclass(frozen=True)
class Constraint:
    coeffs: tuple[Fraction, ...]
    relation: str
    rhs: Fraction


@dataclass(frozen=True)
class LinearProgram:
    objective: tuple[Fraction, ...]
    constraints: tuple[Constraint, ...]
    maximize: bool = False
    bounds: tuple[str, ...] | None = None  # per-variable; default all non-negative

    def n_vars(self) -> int:
        return len(self.objective)


@dataclass(frozen=True)
class SimplexResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    objective: Fraction | None
    solution: list[Fraction] | None


def simplex_solve(lp: LinearProgram) -> SimplexResult:
    """Exact two-phase simplex with Bland's anti-cycling rule."""
    n = lp.n_vars()
    bounds = lp.bounds or (NON_NEGATIVE,) * n
    if len(bounds) != n:
        raise ValueError("one bound marker per variable required")

    # Map each variable to standard-form columns (free vars split as x+ - x-).
    col_of: list[tuple[int, int | None]] = []
    cols = 0
    for marker in bounds:
        if marker == NON_NEGATIVE:
            col_of.append((cols, None))
            cols += 1
        elif marker == FREE:
            col_of.append((cols, cols + 1))
            cols += 2
        else:
            raise ValueError(f"unknown bound marker {marker!r}")

    def expand(coeffs) -> list[Fraction]:
        row = [ZERO] * cols
        for value, (pos, neg) in zip(coeffs, col_of):
            if value == 0:
                continue
            row[pos] += value
            if neg is not None:
                row[neg] -= value
        return row

    objective = expand(lp.objective)
    if lp.maximize:
        objective = [-c for c in objective]

    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    slack_cols: list[int | None] = []
    n_slacks = sum(1 for c in lp.constraints if c.relation != EQUAL)
    slack_base = cols
    slack_seen = 0
    for constraint in lp.constraints:
        if len(constraint.coeffs) != n:
            raise ValueError("constraint arity mismatch")
        row = expand(constraint.coeffs)
        row.extend([ZERO] * n_slacks)
        if constraint.relation == LESS_EQUAL:
            row[slack_base + slack_seen] = ONE
            slack_cols.append(slack_base + slack_seen)
            slack_seen += 1
        elif constraint.relation == GREATER_EQUAL:
            row[slack_base + slack_seen] = -ONE
            slack_cols.append(slack_base + slack_seen)
            slack_seen += 1
        elif constraint.relation == EQUAL:
            slack_cols.append(None)
        else:
            raise ValueError(f"unknown relation {constraint.relation!r}")
        rows.append(row)
        rhs.append(constraint.rhs)
    total_cols = cols + n_slacks
    objective.extend([ZERO] * n_slacks)

    # Ensure rhs >= 0, then add one artificial per row for a trivial basis.
    for i, row in enumerate(rows):
        if rhs[i] < 0:
            rows[i] = [-x for x in row]
            rhs[i] = -rhs[i]
    m = len(rows)
    for i, row in enumerate(rows):
        row.extend(ONE if j == i else ZERO for j in range(m))
    art_base = total_cols
    basis = [art_base + i for i in range(m)]
    width = total_cols + m

    tableau = [rows[i] + [rhs[i]] for i in range(m)]

    def pivot(row_idx: int, col_idx: int) -> None:
        pivot_value = tableau[row_idx][col_idx]
        tableau[row_idx] = [x / pivot_value for x in tableau[row_idx]]
        base = tableau[row_idx]
        for i in range(m):
            if i != row_idx and tableau[i][col_idx] != 0:
                factor = tableau[i][col_idx]
                tableau[i] = [a - factor * b for a, b in zip(tableau[i], base)]
        basis[row_idx] = col_idx

    def run_phase(costs: list[Fraction], allowed: int) -> str:
        """Bland's rule on reduced costs; returns 'optimal' or 'unbounded'."""
        while True:
            duals = [costs[basis[i]] for i in range(m)]
            entering = None
            for j in range(allowed):
                if j in basis:
                    continue
                reduced = costs[j] - sum(
                    duals[i] * tableau[i][j] for i in range(m) if tableau[i][j]
                )
                if reduced < 0:
                    entering = j
                    break
            if entering is None:
                return "optimal"
            leaving = None
            best = None
            for i in range(m):
                coeff = tableau[i][entering]
                if coeff > 0:
                    ratio = tableau[i][width] / coeff
                    if best is None or ratio < best or (
                        ratio == best and basis[i] < basis[leaving]
                    ):
                        best = ratio
                        leaving = i
            if leaving is None:
                return "unbounded"
            pivot(leaving, entering)

    # Phase 1: minimize the artificial sum.
    phase1 = [ZERO] * width
    for j in range(art_base, width):
        phase1[j] = ONE
    run_phase(phase1, width)
    infeasibility = sum(
        tableau[i][width] for i in range(m) if basis[i] >= art_base
    )
    if infeasibility != 0:
        return SimplexResult("infeasible", None, None)
    # Drive remaining artificials out of the basis where possible.
    for i in range(m):
        if basis[i] >= art_base:
            entering = next(
                (j for j in range(total_cols) if tableau[i][j] != 0), None
            )
            if entering is not None:
                pivot(i, entering)

    phase2 = objective + [ZERO] * m
    status = run_phase(phase2, total_cols)
    if status == "unbounded":
        return SimplexResult("unbounded", None, None)

    values = [ZERO] * width
    for i in range(m):
        values[basis[i]] = tableau[i][width]
    solution = []
    for pos, neg in col_of:
        solution.append(values[pos] - (values[neg] if neg is not None else ZERO))
    objective_value = sum(
        (c * x for c, x in zip(lp.objective, solution)), ZERO
    )
    return SimplexResult("optimal", objective_value, solution)


def build_counter_lp(
    net: FinancialNetwork, structure: dict[str, BankClasses], counters: dict[str, int]
) -> tuple[LinearProgram, tuple[str, ...]]:
    """Literal LP form of the feasibility test at fixed counters, used to
    cross-check the block solver: variables are t_v = a_v + d_v, the
    objective is the total offset sum."""
    system = _counter_system(net, structure, counters)
    order = system.order
    idx = {v: i for i, v in enumerate(order)}
    n = len(order)
    constraints = []
    objective = [ZERO] * n
    for v in order:
        row = [ZERO] * n
        row[idx[v]] = ONE
        for u, coeff in system.w[v].items():
            row[idx[u]] -= coeff
        # d_v = t_v - a_v = t_v - (W t)_v - c_v >= 0
        constraints.append(Constraint(tuple(row), GREATER_EQUAL, system.c[v]))
        for j, coeff in enumerate(row):
            objective[j] += coeff
        floor_row = [ZERO] * n
        floor_row[idx[v]] = ONE
        constraints.append(Constraint(tuple(floor_row), GREATER_EQUAL, system.floor[v]))
    return (
        LinearProgram(
            objective=tuple(objective), constraints=tuple(constraints), maximize=False
        ),
        order,
    )
