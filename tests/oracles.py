"""Reference implementations the test suites check the engine against.

None of this runs in the product:

- ``dense_solve_linear_system``: plain dense Gaussian elimination, the oracle
  for the sparse ``netclear.linalg.solve_linear_system``;
- ``sparse_rows``: converts a dense matrix to the solver's sparse rows;
- ``identity_minus_columns``: converts a dense ``M`` to the sparse columns of
  ``I - M`` that ``unit_left_nullspace`` takes;
- ``dense_unit_left_nullspace``: the Perron direction by dense reduced row
  echelon form, scaled to largest entry 1, the oracle, up to that scale, for
  the sparse ``unit_left_nullspace``;
- ``fraction_border_scale`` and ``fraction_advance``: the step's line search
  and move in plain ``Fraction`` arithmetic, the oracles for the
  integer-rate ``minimal.border_scale`` and ``minimal.advance``;
- ``next_border_delta``: a payment function's distance to its next border,
  for tests that step between borders;
- ``fraction_value_at``, ``fraction_inflow``, ``fraction_phi`` and
  ``fraction_check_payment_axioms``: payment evaluation, a bank's inflow, the
  asset-axiom map and the payment-axiom check in plain ``Fraction``
  arithmetic, the oracles for the integer-sum ``PaymentFunction.value_at``,
  ``clearing.phi`` and ``axioms.check_payment_axioms``;
- ``fraction_original_inflow``: a defaulting bank's inflow in the original
  network, summed over its claims, the oracle for the splitter ledger that
  ``minimal.original_solvent`` reads;
- ``localcontext_decimal_str``: the display decimal computed in a fresh
  ``decimal.localcontext``, the oracle for ``rationals.decimal_str``;
- ``fraction_priority_structure``, ``fraction_counter_rows`` and
  ``fraction_assets``: the class decomposition, the counter system's rows and
  its affine asset map in plain ``Fraction`` arithmetic, the oracles for the
  integer ``priority.priority_structure``, ``priority._refresh_rows`` and
  ``priority._assets``; ``as_fraction`` and ``normalized_rows`` read the
  integer ``(numerator, denominator)`` pairs of the counter system as
  ``Fraction``s; ``has_pinned_flow_solution`` decides whether a block's flow
  equalities have a solution with one member pinned at its floor;
- an exact two-phase simplex (``simplex_solve``) with Bland's rule, and
  ``build_counter_lp``, the literal LP form of the counter-descent
  feasibility test that the block solver is cross-checked against;
- ``to_priority_proportional``: the explicit priority-proportional network
  behind the pp route, the oracle of the paper's equivalence;
- ``fraction_lower_segment``: the slope just below ``a`` and the border its
  segment starts at, by a scan of the ``Fraction`` borders, the oracle for
  ``PaymentFunction.lower_segment``;
- ``flood_maximum``: the flood maximum from the injection driver's least
  state, a reference for the pp maximum that runs no pp descent;
- ``nonunique_banks``: the banks whose minimal and maximal clearing assets
  differ;
- ``reduced_assets``: the haircut branch of the asset axiom for one bank;
- ``apply_flood_sequence``: a walk up the clearing states by partial floods
  of chosen sink SCCs, which no command runs, for the lattice tests;
- ``exists_creditor_positive``: whether a claims trade has a
  creditor-positive return, with the optimizer's reason when it has none;
- ``reference_parser``: the CLI grammar written out call by call, the oracle
  for ``cli._build_parser``, which builds it from the ``cli._COMMANDS``
  table.
"""

from __future__ import annotations

import argparse

from bisect import bisect_right
from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction

from netclear import errors, graphs, lattice, minimal
from netclear.clearing import ClearingState, is_clearing_state
from netclear.errors import DegenerateMatrixError, Violation
from netclear.lattice import compute_max_clearing_flood, require_no_default_cost
from netclear.graphs import active_graph
from netclear.minimal import compute_min_clearing, flood_closure, run_min_clearing
from netclear.model import Bank, Claim, FinancialNetwork, PaymentFunction, assemble
from netclear.axioms import BankClasses
from netclear.priority import _counter_system, _flow_rows
from netclear.rationals import ONE, ZERO, parse_exact
from netclear.trade import optimal_creditor_positive_return


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


def fraction_border_scale(g, rates, limit=None) -> Fraction | None:
    """The least ``(g.borders[u] - g.assets[u]) / rates[u]`` over the banks
    with a border in ``g`` that move toward it: with a positive rate on a
    graph of right slopes, whose borders lie above, and a negative one on a
    ``left`` graph, whose borders lie below; and ``limit``. None when there
    is neither."""
    ratios = [
        Fraction(g.borders[u] - g.assets[u]) / rate
        for u, rate in rates.items()
        if (rate < 0 if g.left else rate > 0) and u in g.borders
    ]
    if limit is not None:
        ratios.append(Fraction(limit))
    return min(ratios, default=None)


def fraction_advance(g, rates, scale) -> tuple[dict[str, Fraction], list[str]]:
    """The assets after moving each bank ``u`` of ``g.assets`` by
    ``scale * rates[u]``, and the moved banks that land on their border in
    ``g``, in the order of ``rates``. ``g`` is not changed."""
    moved = dict(g.assets)
    for u, rate in rates.items():
        moved[u] = Fraction(moved[u] + scale * rate)
    landed = [
        u
        for u, rate in rates.items()
        if rate and u in g.borders and moved[u] == g.borders[u]
    ]
    return moved, landed


def next_border_delta(fn: PaymentFunction, a: Fraction) -> Fraction | None:
    """Distance from ``a`` to the next border of ``fn`` strictly above it;
    None at or past the last border."""
    pos = bisect_right(fn.borders, a)
    if pos >= len(fn.borders):
        return None
    return fn.borders[pos] - a


def fraction_value_at(fn: PaymentFunction, a: Fraction) -> Fraction:
    """``fn`` at assets ``a``: the value at the segment's lower border plus
    slope times the distance, one ``Fraction`` operation at a time. That
    value is read off ``fn``'s window in O(1): zero below it, the segment's
    own value inside it and the final value above it."""
    if a <= fn.borders[0]:
        return ZERO
    idx = bisect_right(fn.borders, a) - 1
    i = idx - fn._lo
    if i < 0:
        return ZERO
    if i >= len(fn._window):
        return fn.final_value
    _, _, vn, vd = fn._window[i]
    return Fraction(vn, vd) + fn.slopes[idx] * (a - fn.borders[idx])


def fraction_slope_at(fn: PaymentFunction, a: Fraction) -> Fraction:
    """``fn``'s slope at assets ``a``, its segment found by bisecting the
    ``Fraction`` borders: the first slope before the first border, zero at
    and past the last."""
    idx = max(bisect_right(fn.borders, a) - 1, 0)
    if idx >= len(fn.slopes):
        return ZERO
    return fn.slopes[idx]


def fraction_active_segment(fn: PaymentFunction, a: Fraction):
    """``(slope, next border strictly above a)`` on the segment of ``a``,
    found by bisecting the ``Fraction`` borders, when that slope is
    positive; else None."""
    pos = bisect_right(fn.borders, a)
    idx = max(pos - 1, 0)
    if idx >= len(fn.slopes) or fn.slopes[idx] <= 0:
        return None
    return fn.slopes[idx], fn.borders[pos]


def fraction_lower_segment(fn: PaymentFunction, a: Fraction):
    """``(slope, border)`` of the segment just below ``a``: the last border
    strictly below ``a``, found by a scan of the ``Fraction`` borders, and
    the slope that starts there, when that slope is positive; None when no
    border lies below ``a`` or the last one does."""
    below = [j for j, border in enumerate(fn.borders) if border < a]
    if not below or below[-1] == len(fn.slopes) or fn.slopes[below[-1]] <= 0:
        return None
    return fn.slopes[below[-1]], fn.borders[below[-1]]


def fraction_inflow(net: FinancialNetwork, state, v: str) -> Fraction:
    """Payments ``v`` receives at ``state``, accumulated with ``+=``."""
    total = ZERO
    for claim in net.in_claims(v):
        total += fraction_value_at(claim.payment, state[claim.debtor])
    return total


def fraction_original_inflow(adj, state, u: str) -> Fraction:
    """Payments the defaulting bank ``u`` receives in ``adj``'s original
    network at the working ``state``, accumulated claim by claim with ``+=``:
    a rewired debtor, whose claim on ``u``'s splitter is gone from the
    working network, pays its full liability, any other debtor its payment
    at its working assets."""
    splitter = adj.auxiliary_map[u][0]
    total = ZERO
    for claim in adj.original.in_claims(u):
        if not adj.network.has_claim(claim.debtor, splitter):
            total += claim.liability
        else:
            total += fraction_value_at(claim.payment, state[claim.debtor])
    return total


def fraction_phi(net: FinancialNetwork, state) -> dict[str, Fraction]:
    """The asset-axiom map with the solvency test and the haircut in
    ``Fraction`` arithmetic: full incoming assets when they cover the total
    out-liability, ``alpha * ext + beta * inflow`` otherwise."""
    result = {}
    for v, bank in net.banks.items():
        ext = bank.external_assets
        inflow = fraction_inflow(net, state, v)
        unreduced = ext + inflow
        if unreduced >= net.total_out(v):
            result[v] = unreduced
        else:
            result[v] = bank.alpha * ext + bank.beta * inflow
    return result


def _fraction_merged_slopes(claims):
    first = claims[0].payment.borders
    if all(claim.payment.borders is first for claim in claims) and all(
        a < b for a, b in zip(first, first[1:])
    ):
        return first, [claim.payment.slopes for claim in claims]
    grid = tuple(sorted({x for claim in claims for x in claim.payment.borders}))
    rows = []
    for claim in claims:
        fn = claim.payment
        if fn.borders == grid:
            rows.append(fn.slopes)
            continue
        borders, own = fn.borders, fn.slopes
        row = []
        i = 0
        for x in grid[:-1]:
            while i < len(own) and borders[i + 1] <= x:
                i += 1
            row.append(own[i] if i < len(own) else ZERO)
        rows.append(tuple(row))
    return grid, rows


def fraction_check_payment_axioms(net: FinancialNetwork, violations: list) -> None:
    """The payment-axiom check with every border list walked per claim and
    every slope sum accumulated by ``sum(..., ZERO)``; appends the same
    violations, in the same order, as ``axioms.check_payment_axioms``."""
    for v in net.bank_ids():
        out = net.out_claims(v)
        if not out:
            continue
        total = net.total_out(v)
        unordered = False
        for claim in out:
            fn = claim.payment
            if fn.borders[0] != 0 or any(
                fn.borders[i] >= fn.borders[i + 1] for i in range(len(fn.borders) - 1)
            ):
                violations.append(
                    Violation(
                        errors.BORDER_MISMATCH,
                        "borders must strictly increase from 0",
                        bank=v,
                        claim=claim.pair,
                    )
                )
                unordered = True
                continue
            if fn.borders[-1] != total:
                violations.append(
                    Violation(
                        errors.BORDER_MISMATCH,
                        f"borders must end at the total out-liability {total}",
                        bank=v,
                        claim=claim.pair,
                    )
                )
                continue
            if fn.final_value != claim.liability:
                violations.append(
                    Violation(
                        errors.LIABILITY_MISMATCH,
                        f"payment at L+ is {fn.final_value}, liability is {claim.liability}",
                        bank=v,
                        claim=claim.pair,
                    )
                )
        if total == 0 or unordered:
            continue
        grid, slopes = _fraction_merged_slopes(out)
        for j in range(len(grid) - 1):
            slope_sum = sum((claim_slopes[j] for claim_slopes in slopes), ZERO)
            if slope_sum != 1:
                violations.append(
                    Violation(
                        errors.SLOPE_SUM_VIOLATION,
                        f"slopes sum to {slope_sum} on [{grid[j]}, {grid[j + 1]})",
                        bank=v,
                    )
                )


def localcontext_decimal_str(value: Fraction, digits: int = 12) -> str:
    """Round-half-even decimal projection at ``digits`` significant digits,
    divided in a fresh local decimal context."""
    with localcontext() as ctx:
        ctx.prec = digits
        ctx.rounding = ROUND_HALF_EVEN
        return str(Decimal(value.numerator) / Decimal(value.denominator))


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


def fraction_priority_structure(net: FinancialNetwork) -> dict:
    """Each bank's merged grid and class pieces, ``{v: (grid, pieces)}``, with
    every piece liability a ``Fraction`` product of slope and width."""
    structure = {}
    for v in net.bank_ids():
        out = net.out_claims(v)
        if not out or net.total_out(v) == 0:
            structure[v] = ((ZERO,), ())
            continue
        grid, slopes = _fraction_merged_slopes(out)
        pieces = []
        for j in range(len(grid) - 1):
            width = grid[j + 1] - grid[j]
            pieces.append(
                tuple(
                    (claim.creditor, row[j] * width)
                    for claim, row in zip(out, slopes)
                    if row[j] > 0
                )
            )
        structure[v] = (tuple(grid), tuple(pieces))
    return structure


def fraction_counter_rows(net: FinancialNetwork, structure: dict, counters) -> dict:
    """The counter system's rows at ``counters`` for a ``{v: (grid, pieces)}``
    structure, in the form ``normalized_rows`` gives: a bank's debtors pay
    their classes below their counters in full and their counter class in
    proportion, and a bank below its top class scales what it receives by
    beta and its external assets by alpha; with beta = 0 its row is empty."""
    sources: dict[str, dict[str, list]] = {v: {} for v in net.bank_ids()}
    for u in net.bank_ids():
        for j, pieces in enumerate(structure[u][1]):
            for creditor, liability in pieces:
                sources[creditor].setdefault(u, []).append((j, liability))
    rows: dict[str, dict] = {"w": {}, "c": {}, "floor": {}}
    for v in net.bank_ids():
        bank = net.bank(v)
        grid, pieces = structure[v]
        r = counters[v]
        solvent = r == len(pieces)
        rows["floor"][v] = grid[r]
        row = {}
        paid = ZERO
        for u, own in sources[v].items():
            ru = counters[u]
            debtor_grid = structure[u][0]
            for j, liability in own:
                if j < ru:
                    paid += liability
                    continue
                if j == ru:
                    share = liability / (debtor_grid[ru + 1] - debtor_grid[ru])
                    row[u] = share
                    paid -= share * debtor_grid[ru]
                break
        if solvent:
            rows["w"][v] = row
            rows["c"][v] = bank.external_assets + paid
        else:
            rows["w"][v] = {u: bank.beta * share for u, share in row.items() if bank.beta}
            rows["c"][v] = bank.alpha * bank.external_assets + bank.beta * paid
    return rows


def fraction_assets(row: dict, constant: Fraction, t) -> Fraction:
    """The affine asset map ``c_v + sum_u w_vu t_u``, accumulated with
    ``+=``."""
    acc = constant
    for u, coeff in row.items():
        acc += coeff * t[u]
    return acc


def as_fraction(value):
    """A counter-system pair ``(numerator, denominator)`` as a ``Fraction``."""
    return Fraction(*value)


def normalized_rows(system) -> dict:
    """The rows of a ``priority._CounterSystem`` as ``Fraction``s:
    ``{"w": {v: {u: w_vu}}, "c": {v: c_v}, "floor": {v: floor_v}}``."""
    return {
        "w": {v: {u: as_fraction(x) for u, x in row.items()} for v, row in system.w.items()},
        "c": {v: as_fraction(x) for v, x in system.c.items()},
        "floor": {v: as_fraction(x) for v, x in system.floor.items()},
    }


def has_pinned_flow_solution(system, members, t) -> bool:
    """Whether the flow equalities ``(I - W_BB) x = g`` on the block
    ``members``, as ``priority._flow_rows`` builds them at ``t``, have a
    solution with the first member pinned at its floor; decided in
    ``Fraction``s by the reduced row echelon form of the augmented rows,
    which has a pivot in the right-hand side column exactly when there is
    none."""
    rows, rhs = _flow_rows(system, members, t)
    n = len(members)
    augmented = []
    for row, b in zip(rows, rhs):
        dense = [ZERO] * n + [Fraction(b)]
        for j, x in row:
            dense[j] += x
        augmented.append(dense)
    augmented.append([ONE] + [ZERO] * (n - 1) + [as_fraction(system.floor[members[0]])])
    return n not in _rref(augmented)


def build_counter_lp(
    net: FinancialNetwork, structure: dict[str, BankClasses], counters: dict[str, int]
) -> tuple[LinearProgram, tuple[str, ...]]:
    """Literal LP form of the feasibility test at fixed counters, used to
    cross-check the block solver: variables are t_v = a_v + d_v, the
    objective is the total offset sum."""
    system = _counter_system(net, structure, counters)
    order = system.order
    rows = normalized_rows(system)
    idx = {v: i for i, v in enumerate(order)}
    n = len(order)
    constraints = []
    objective = [ZERO] * n
    for v in order:
        row = [ZERO] * n
        row[idx[v]] = ONE
        for u, coeff in rows["w"][v].items():
            row[idx[u]] -= coeff
        # d_v = t_v - a_v = t_v - (W t)_v - c_v >= 0
        constraints.append(Constraint(tuple(row), GREATER_EQUAL, rows["c"][v]))
        for j, coeff in enumerate(row):
            objective[j] += coeff
        floor_row = [ZERO] * n
        floor_row[idx[v]] = ONE
        constraints.append(Constraint(tuple(floor_row), GREATER_EQUAL, rows["floor"][v]))
    return (
        LinearProgram(
            objective=tuple(objective), constraints=tuple(constraints), maximize=False
        ),
        order,
    )


@dataclass(frozen=True)
class TransformCertificate:
    relays: dict[str, tuple[str, str, int]]  # relay id -> (debtor, creditor, class)
    piece_edges: dict[tuple[str, str], tuple[str, ...]]  # claim -> relays per class


def to_priority_proportional(
    net: FinancialNetwork,
) -> tuple[FinancialNetwork, TransformCertificate]:
    """Equivalent network in which every bank pays by priority classes.

    Each original claim is split into per-class pieces whose liabilities sum
    to the original liability. A piece travels through a fresh relay bank with
    a single pass-through edge of the piece's liability and slope 1, so no
    parallel edges arise. The relay reaches that liability exactly when its
    debtor reaches the piece's class border, so payments are unchanged.
    Pieces with zero liability are dropped.
    """
    structure = fraction_priority_structure(net)
    taken = set(net.bank_ids())
    banks: list[Bank] = [net.bank(v) for v in net.bank_ids()]
    claims: list[Claim] = []
    relays: dict[str, tuple[str, str, int]] = {}
    piece_edges: dict[tuple[str, str], dict[int, str]] = {
        claim.pair: {} for claim in net.claims
    }

    for v in net.bank_ids():
        grid, pieces = structure[v]
        k = len(pieces)
        for j in range(k):
            for creditor, liability in pieces[j]:
                relay_id = f"{v}~{creditor}~{j + 1}"
                while relay_id in taken:
                    relay_id += "_"
                taken.add(relay_id)
                relays[relay_id] = (v, creditor, j + 1)
                piece_edges[(v, creditor)][j + 1] = relay_id
                slopes = [ZERO] * k
                slopes[j] = liability / (grid[j + 1] - grid[j])
                claims.append(
                    Claim(v, relay_id, liability, PaymentFunction(grid, tuple(slopes)))
                )
                passthrough = PaymentFunction((ZERO, liability), (ONE,))
                claims.append(Claim(relay_id, creditor, liability, passthrough))
                banks.append(Bank(relay_id, ZERO, ONE, ONE))

    certificate = TransformCertificate(
        relays=relays,
        piece_edges={
            pair: tuple(by_class[j] for j in sorted(by_class))
            for pair, by_class in piece_edges.items()
        },
    )
    return assemble(banks, claims), certificate


def flood_maximum(net: FinancialNetwork) -> dict[str, Fraction]:
    """The maximal clearing state by flooding to saturation from the least
    state of ``run_min_clearing``: no step of it runs the pp descent."""
    g = active_graph(net, run_min_clearing(net).state.as_dict())
    flood_closure(g)
    return g.assets


def nonunique_banks(net: FinancialNetwork) -> frozenset[str]:
    """Banks whose minimal and maximal clearing assets differ."""
    require_no_default_cost(net, "claims trading")
    low = compute_min_clearing(net)
    high = compute_max_clearing_flood(net)
    return frozenset(v for v in net.bank_ids() if low[v] != high[v])


def reduced_assets(net: FinancialNetwork, state, v: str) -> Fraction:
    """Assets of ``v`` under its default haircuts: ``alpha`` times its external
    assets plus ``beta`` times its incoming payments at ``state``."""
    bank = net.bank(v)
    return bank.alpha * bank.external_assets + bank.beta * fraction_inflow(net, state, v)


class NotAClearingStateError(Exception):
    """The start state of ``apply_flood_sequence`` is not a clearing state."""


class NotASinkComponentError(Exception):
    """A bank ``apply_flood_sequence`` is to flood lies in no non-singleton
    sink SCC."""


def apply_flood_sequence(net: FinancialNetwork, start, steps) -> ClearingState:
    """Apply partial flood steps to the clearing state ``start`` of a network
    without default cost.

    ``steps`` is an iterable of ``(bank_id, fraction)``: the SCC currently
    containing the bank is flooded by ``fraction`` of its maximal feasible
    scale. Every intermediate state is again a clearing state, exactly. The
    walk holds one active graph and builds and steps it through the
    ``graphs`` and ``minimal`` modules, so that the ``graph_checks`` helpers,
    which rebind those functions, see it too."""
    require_no_default_cost(net, "apply_flood_sequence")
    check = is_clearing_state(net, start)
    if not check.ok:
        raise NotAClearingStateError(f"start state is not a clearing state: {check.violations}")
    g = graphs.active_graph(net, dict(start))
    for bank_id, fraction in steps:
        fraction = parse_exact(fraction)
        if not (0 <= fraction <= 1):
            raise ValueError("flood fractions must lie in [0, 1]")
        step = lattice._own_sink_flood(g, bank_id)
        if step is None:
            raise NotASinkComponentError(
                f"component of {bank_id!r} is not a non-singleton sink SCC"
            )
        minimal.advance(g, step.rates, fraction * step.scale)
    return ClearingState(g.assets)


def exists_creditor_positive(net: FinancialNetwork, claim_pair, buyer) -> tuple[bool, str]:
    """Whether some return strictly improves the seller while keeping the
    buyer whole; when none does, the diagnostic is the optimizer's reason."""
    try:
        optimal_creditor_positive_return(net, claim_pair, buyer)
    except errors.NoCreditorPositiveTradeError as exc:
        return False, exc.reason
    return True, "a higher return raises the seller and leaves the buyer whole"


def reference_parser() -> argparse.ArgumentParser:
    """The CLI's argparse parser with every command and option spelled out."""
    parser = argparse.ArgumentParser(
        prog="netclear",
        description="Exact clearing-state computations on financial networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a network file")
    p.add_argument("file")

    p = sub.add_parser("min-clear", help="compute the minimal clearing state")
    p.add_argument("file")

    p = sub.add_parser("max-clear", help="compute the maximal clearing state")
    p.add_argument("file")
    p.add_argument(
        "--method",
        choices=("flood", "pp"),
        default="pp",
        help="flood: the pp maximum, certified by flooding (no default costs); "
        "pp: priority-proportional descent (default, allows default costs)",
    )

    p = sub.add_parser("range", help="find a clearing state inside target intervals")
    p.add_argument("file")
    p.add_argument("--targets", required=True, help="targets JSON file")

    p = sub.add_parser("trade", help="evaluate or optimize a claims trade")
    p.add_argument("file")
    p.add_argument("--claim", nargs=2, metavar=("DEBTOR", "CREDITOR"), required=True)
    p.add_argument("--buyer", required=True)
    p.add_argument(
        "--return",
        dest="rho",
        default=None,
        help="evaluate this return; omit to compute the optimal one",
    )

    p = sub.add_parser("oracle", help="run a fixed-point iteration oracle")
    p.add_argument("file")
    p.add_argument("--direction", choices=("bottom", "top"), required=True)
    p.add_argument("--steps", type=int, required=True)
    return parser
