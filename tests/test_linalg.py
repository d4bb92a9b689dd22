"""Exact sparse elimination, nullspace extraction, and the simplex oracle."""

import random
from fractions import Fraction as F
from itertools import combinations

import pytest

from netclear.errors import DegenerateMatrixError
from netclear.linalg import solve_linear_system, unit_left_nullspace

from oracles import (
    EQUAL,
    GREATER_EQUAL,
    LESS_EQUAL,
    Constraint,
    LinearProgram,
    dense_solve_linear_system,
    dense_unit_left_nullspace,
    identity_minus_columns,
    simplex_solve,
    sparse_rows,
)


def mat_vec(matrix, x):
    return [sum((row[j] * x[j] for j in range(len(x))), F(0)) for row in matrix]


def solve_fractions(rows, rhs):
    """The solver's answer as ``Fraction``s, after checking its contract:
    None, or one ``int`` numerator per row over one positive ``int``
    denominator."""
    result = solve_linear_system(rows, rhs)
    if result is None:
        return None
    numerators, den = result
    assert type(den) is int and den > 0
    assert len(numerators) == len(rows)
    assert all(type(x) is int for x in numerators)
    return [F(x, den) for x in numerators]


class TestSolveLinearSystem:
    def test_identity(self):
        eye = [[F(1), F(0)], [F(0), F(1)]]
        assert solve_fractions(sparse_rows(eye), [F(3), F(-2)]) == [F(3), F(-2)]

    def test_path_slopes(self):
        # response system of a slope-1 path u -> v -> w: (I - M^T) s = e_u
        a = [
            [F(1), F(0), F(0)],
            [F(-1), F(1), F(0)],
            [F(0), F(-1), F(1)],
        ]
        assert solve_fractions(sparse_rows(a), [F(1), F(0), F(0)]) == [F(1), F(1), F(1)]

    def test_singular(self):
        ones = [[F(1), F(1)], [F(1), F(1)]]
        assert solve_fractions(sparse_rows(ones), [F(1), F(0)]) is None

    def test_resubstitution_on_random_systems(self):
        rng = random.Random(4242)
        solved = 0
        for _ in range(200):
            n = rng.randint(1, 5)
            matrix = [
                [F(rng.randint(-6, 6), rng.choice((1, 2, 3))) for _ in range(n)]
                for _ in range(n)
            ]
            rhs = [F(rng.randint(-10, 10)) for _ in range(n)]
            x = solve_fractions(sparse_rows(matrix), rhs)
            if x is None:
                continue
            assert mat_vec(matrix, x) == rhs
            solved += 1
        assert solved > 150


def random_substochastic(rng, n, density=0.4):
    """Sparse non-negative matrix whose row sums stay at or below 1."""
    matrix = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        targets = [j for j in range(n) if j != i and rng.random() < density]
        if not targets:
            continue
        weights = {j: F(rng.randint(1, 5)) for j in targets}
        mass = F(rng.randint(1, 4), 4)  # 1/4 .. 1 of the row paid on
        total = sum(weights.values())
        for j, weight in weights.items():
            matrix[i][j] = mass * weight / total
    return matrix


class TestSparseAgainstDenseOracle:
    """The sparse Markowitz solver agrees exactly with dense elimination."""

    @staticmethod
    def agree(matrix, rhs, rows=None):
        """The solver's answer on ``rows`` (default: the sparse rows of
        ``matrix``) keeps its contract and equals the dense oracle's on
        ``matrix``."""
        expected = dense_solve_linear_system(matrix, rhs)
        assert solve_fractions(sparse_rows(matrix) if rows is None else rows, rhs) == expected
        return expected

    def test_random_square_systems_with_singular_ones(self):
        rng = random.Random(90210)
        singular = solved = 0
        for _ in range(300):
            n = rng.randint(1, 7)
            matrix = [
                [
                    F(rng.randint(-4, 4), rng.choice((1, 2, 5)))
                    if rng.random() < 0.5
                    else F(0)
                    for _ in range(n)
                ]
                for _ in range(n)
            ]
            if n > 1 and rng.random() < 0.3:
                # force singularity: one row becomes a combination of two others
                a, b, c = (rng.randrange(n) for _ in range(3))
                k = F(rng.randint(-3, 3), 2)
                matrix[a] = [x + k * y for x, y in zip(matrix[b], matrix[c])]
                if a in (b, c):
                    matrix[a] = [F(0)] * n
            rhs = [F(rng.randint(-9, 9)) for _ in range(n)]
            if self.agree(matrix, rhs) is None:
                singular += 1
            else:
                solved += 1
        assert singular > 40 and solved > 100

    def test_consistent_singular_systems(self):
        """Singular systems that have solutions: a row that cancels
        completely, right-hand side included, still means None."""
        for rows in (
            [[(0, F(2)), (1, F(2))], [(0, F(3)), (1, F(3))]],
            [[(0, F(-1)), (1, F(-1))], [(0, F(1)), (1, F(1))]],
            [[(0, F(3, 2)), (1, F(-5, 7))], [(0, F(-9, 4)), (1, F(15, 14))]],
        ):
            matrix = [[F(0), F(0)] for _ in rows]
            for i, row in enumerate(rows):
                for j, x in row:
                    matrix[i][j] = x
            for x in ([F(0), F(0)], [F(1), F(0)], [F(2, 3), F(-5)]):
                assert self.agree(matrix, mat_vec(matrix, x), rows) is None
        rng = random.Random(65537)
        for _ in range(300):
            n = rng.randint(2, 7)
            matrix = [
                [F(rng.randint(-4, 4), rng.choice((1, 2, 5))) if rng.random() < 0.6 else F(0)
                 for _ in range(n)]
                for _ in range(n)
            ]
            a, b, c = rng.sample(range(n), 3) if n > 2 else (0, 1, 1)
            k = F(rng.choice((-6, -3, -2, -1, 2, 3, 5)), rng.choice((1, 2, 3, 7)))
            if rng.random() < 0.5:
                matrix[a] = [k * y for y in matrix[b]]  # proportional rows
            else:
                matrix[a] = [k * y + z for y, z in zip(matrix[b], matrix[c])]
            if rng.random() < 0.3:
                rhs = [F(0)] * n
            else:
                x = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
                rhs = mat_vec(matrix, x)
            assert self.agree(matrix, rhs) is None

    def test_zero_leading_pivots(self):
        rng = random.Random(31337)
        for _ in range(150):
            n = rng.randint(2, 6)
            perm = list(range(n))
            while perm[0] == 0:
                rng.shuffle(perm)
            # a permuted triangular matrix: the natural first pivot is zero
            matrix = [[F(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    if i == j or rng.random() < 0.5:
                        matrix[perm[i]][j] = F(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3))
            rhs = [F(rng.randint(-5, 5)) for _ in range(n)]
            assert matrix[0][0] == 0
            assert self.agree(matrix, rhs) is not None

    def test_response_systems_of_substochastic_matrices(self):
        rng = random.Random(1957)
        for _ in range(150):
            n = rng.randint(1, 12)
            m = random_substochastic(rng, n)
            # (I - M^T) s = e_v, the response system of an increase step
            system = [
                [(F(1) if i == j else F(0)) - m[j][i] for j in range(n)]
                for i in range(n)
            ]
            rhs = [F(0)] * n
            rhs[rng.randrange(n)] = F(1)
            expected = self.agree(system, rhs)
            strictly_sub = all(sum(row) < 1 for row in m)
            if strictly_sub:
                assert expected is not None
                assert all(x >= 0 for x in expected)

    def test_wide_entries(self):
        """Numerators and denominators of 100-300 bits."""
        rng = random.Random(2718)

        def wide():
            bits = rng.randint(100, 300)
            return F(rng.choice((-1, 1)) * rng.getrandbits(bits), rng.getrandbits(bits) + 1)

        solved = 0
        for _ in range(60):
            n = rng.randint(1, 6)
            matrix = [[wide() if rng.random() < 0.6 else F(0) for _ in range(n)] for _ in range(n)]
            rhs = [wide() for _ in range(n)]
            solved += self.agree(matrix, rhs) is not None
        assert solved > 30

    def test_negative_pivots(self):
        """Every entry negative, and negated response systems: the pivots,
        and so the back-substitution scales, are negative."""
        rng = random.Random(1982)
        solved = 0
        for _ in range(150):
            n = rng.randint(1, 8)
            if rng.random() < 0.5:
                matrix = [
                    [F(-rng.randint(1, 9), rng.randint(1, 4)) if rng.random() < 0.5 else F(0)
                     for _ in range(n)]
                    for _ in range(n)
                ]
            else:
                m = random_substochastic(rng, n)
                matrix = [
                    [m[j][i] - (F(1) if i == j else F(0)) for j in range(n)] for i in range(n)
                ]
            rhs = [F(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(n)]
            solved += self.agree(matrix, rhs) is not None
        assert solved > 100

    def test_entries_cancel_mid_elimination(self):
        """A row that is a multiple of another on all but one or two
        columns: eliminating the other row's pivot cancels entries of it."""
        # the first pivot is row 0's column 0, and row 1 minus twice row 0
        # loses column 1
        matrix = [[F(1), F(2), F(3)], [F(2), F(4), F(5)], [F(0), F(1), F(1)]]
        assert self.agree(matrix, [F(1), F(1), F(1)]) == [F(-2), F(0), F(1)]
        rng = random.Random(8128)
        solved = 0
        for _ in range(200):
            n = rng.randint(2, 7)
            matrix = [
                [F(rng.randint(-5, 5), rng.choice((1, 2, 3))) if rng.random() < 0.6 else F(0)
                 for _ in range(n)]
                for _ in range(n)
            ]
            a, b = rng.sample(range(n), 2)
            k = F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2)))
            matrix[a] = [k * x for x in matrix[b]]
            for j in rng.sample(range(n), rng.randint(1, 2)):
                matrix[a][j] += F(rng.randint(1, 4), rng.choice((1, 5)))
            rhs = [F(rng.randint(-9, 9)) for _ in range(n)]
            solved += self.agree(matrix, rhs) is not None
        assert solved > 100

    def test_repeated_columns_summing_to_zero(self):
        """A pair ``(c, v), (c, -v)`` adds nothing: where column ``c`` has no
        other entry in the row it is dropped, not kept as a zero entry."""
        rng = random.Random(6174)
        solved = 0
        for _ in range(150):
            n = rng.randint(1, 7)
            matrix = [
                [F(rng.randint(-5, 5), rng.choice((1, 2, 7))) if rng.random() < 0.5 else F(0)
                 for _ in range(n)]
                for _ in range(n)
            ]
            rows = [list(row) for row in sparse_rows(matrix)]
            for row in rows:
                for _ in range(rng.randint(0, 2)):
                    c, v = rng.randrange(n), F(rng.randint(1, 9), rng.randint(1, 9))
                    at = rng.randint(0, len(row))
                    row[at:at] = [(c, v), (c, -v)]
            rhs = [F(rng.randint(-9, 9)) for _ in range(n)]
            solved += self.agree(matrix, rhs, rows) is not None
        assert solved > 60

    def test_plain_int_values(self):
        rng = random.Random(4096)
        solved = 0
        for _ in range(150):
            n = rng.randint(1, 7)
            ints = [[rng.randint(-6, 6) if rng.random() < 0.5 else 0 for _ in range(n)]
                    for _ in range(n)]
            rhs = [rng.randint(-9, 9) for _ in range(n)]
            rows = [[(j, x) for j, x in enumerate(row) if x] for row in ints]
            matrix = [[F(x) for x in row] for row in ints]
            solved += self.agree(matrix, rhs, rows) is not None
        assert solved > 60

    def test_denominator_only_in_the_right_hand_side(self):
        rng = random.Random(1729)
        solved = 0
        for _ in range(150):
            n = rng.randint(1, 7)
            matrix = [[F(rng.randint(-6, 6)) if rng.random() < 0.5 else F(0) for _ in range(n)]
                      for _ in range(n)]
            rhs = [F(rng.randint(-9, 9), rng.choice((1, 7, 11, 2**61 - 1))) for _ in range(n)]
            solved += self.agree(matrix, rhs) is not None
        assert solved > 60
        assert solve_fractions([[(0, 2)], [(1, F(3))]], [F(1, 7), 5]) == [F(1, 14), F(5, 3)]

    def test_repeated_columns_are_summed(self):
        rows = [[(0, F(1)), (1, F(2)), (0, F(1))], [(1, F(1))]]
        assert solve_fractions(rows, [F(4), F(1)]) == [F(1), F(1)]
        cancelled = [[(0, F(1)), (0, F(-1))], [(1, F(1))]]
        assert solve_fractions(cancelled, [F(0), F(1)]) is None

    def test_malformed_systems_rejected(self):
        with pytest.raises(ValueError):
            solve_linear_system([], [])
        with pytest.raises(ValueError):
            solve_linear_system([[(0, F(1))]], [F(1), F(2)])
        with pytest.raises(ValueError):
            solve_linear_system([[(1, F(1))]], [F(1)])


class TestSolutionContract:
    """Integer numerators over one positive common denominator."""

    def test_positive_denominator_after_negative_pivots(self):
        # The pinned flow rows of a closed block with Perron line (1, 4, 2),
        # negated as the response rows are: every pivot is negative, and the
        # last back-substitution step scales the common denominator by -1.
        rows = [[(0, -1)], [(1, -1), (0, F(4, 3)), (2, F(4, 3))], [(2, -1), (0, 2)]]
        numerators, den = solve_linear_system(rows, [-1, 0, 0])
        assert den > 0 and [F(x, den) for x in numerators] == [F(1), F(4), F(2)]
        numerators, den = solve_linear_system([[(0, F(-1, 2))]], [F(3, 4)])
        assert den > 0 and F(numerators[0], den) == F(-3, 2)
        # a negated slope-1 path: (M^T - I) s = -e_0
        numerators, den = solve_linear_system([[(0, -1)], [(0, 1), (1, -1)]], [-1, 0])
        assert den > 0 and numerators == [den, den]

    def test_int_input_gives_int_numerators(self):
        numerators, den = solve_linear_system([[(0, 2), (1, 1)], [(1, 3)]], [5, 3])
        assert type(den) is int and all(type(x) is int for x in numerators)
        assert solve_fractions([[(0, 2), (1, 1)], [(1, 3)]], [5, 3]) == [F(2), F(1)]
        assert solve_fractions([[(0, 2), (1, 1)], [(1, 3)]], [F(5), F(3)]) == [F(2), F(1)]

    def test_zero_solution(self):
        for rows in ([[(0, -2)], [(1, 3)]], [[(0, 1), (1, -1)], [(0, -1), (1, -1)]]):
            numerators, den = solve_linear_system(rows, [0, 0])
            assert numerators == [0, 0] and den > 0
            assert solve_fractions(rows, [F(0), F(0)]) == [F(0), F(0)]


def random_irreducible_stochastic(rng, n):
    """Row-stochastic matrix containing a full cycle, hence irreducible."""
    matrix = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        targets = {(i + 1) % n} | {
            j for j in range(n) if j != i and rng.random() < 0.4
        }
        weights = {j: F(rng.randint(1, 5)) for j in targets}
        total = sum(weights.values())
        for j, weight in weights.items():
            matrix[i][j] = weight / total
    return matrix


class TestUnitLeftNullspace:
    def test_two_cycle(self):
        m = [[F(0), F(1)], [F(1), F(0)]]
        assert unit_left_nullspace(identity_minus_columns(m)) == [F(1), F(1)]

    def test_three_cycle(self):
        m = [
            [F(0), F(1), F(0)],
            [F(0), F(0), F(1)],
            [F(1), F(0), F(0)],
        ]
        assert unit_left_nullspace(identity_minus_columns(m)) == [F(1), F(1), F(1)]

    def test_random_stochastic_matrices(self):
        rng = random.Random(271828)
        for _ in range(150):
            n = rng.randint(2, 6)
            m = random_irreducible_stochastic(rng, n)
            d = unit_left_nullspace(identity_minus_columns(m))
            assert max(d) == 1
            assert all(x > 0 for x in d)
            # d = d M exactly
            for j in range(n):
                assert d[j] == sum((d[i] * m[i][j] for i in range(n)), F(0))

    def test_degenerate_rejected(self):
        eye = [[F(1), F(0)], [F(0), F(1)]]
        with pytest.raises(DegenerateMatrixError):
            # nullspace of (I^T - I) is 2-dimensional
            unit_left_nullspace(identity_minus_columns(eye))

    def test_matches_dense_oracle(self):
        rng = random.Random(314159)
        for _ in range(150):
            m = random_irreducible_stochastic(rng, rng.randint(1, 9))
            expected = dense_unit_left_nullspace(m)
            assert unit_left_nullspace(identity_minus_columns(m)) == expected

    def test_substochastic_rejected(self):
        # Irreducible but with a row summing below 1: d = d M only for d = 0.
        # The pinned solve succeeds with d >= 0, so only the check of the
        # dropped equation can reject it.
        rng = random.Random(161803)
        cases = [[[F(0), F(1, 2)], [F(1), F(0)]]]
        for _ in range(40):
            m = random_irreducible_stochastic(rng, rng.randint(2, 7))
            row = rng.randrange(len(m))
            m[row] = [x * F(rng.randint(1, 9), 10) for x in m[row]]
            cases.append(m)
        for m in cases:
            with pytest.raises(DegenerateMatrixError):
                dense_unit_left_nullspace(m)
            with pytest.raises(DegenerateMatrixError):
                unit_left_nullspace(identity_minus_columns(m))

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            unit_left_nullspace([])
        with pytest.raises(ValueError):
            unit_left_nullspace([[(1, F(1))], [(2, F(1))]])

    def test_dropped_column_indices_checked(self):
        # Column 0 never reaches the solver's own bounds check; a negative
        # row there would otherwise wrap around silently.
        two_cycle = identity_minus_columns([[F(0), F(1)], [F(1), F(0)]])
        for bad in ((2, F(-1)), (-1, F(-1))):
            with pytest.raises(ValueError):
                unit_left_nullspace([[(0, F(1)), bad], two_cycle[1]])


def brute_force_lp(lp):
    """Vertex enumeration oracle for small LPs with non-negative variables."""
    n = lp.n_vars()
    rows = []
    rhs = []
    for constraint in lp.constraints:
        rows.append(list(constraint.coeffs))
        rhs.append(constraint.rhs)
    # add variable bounds x_j >= 0 as rows
    for j in range(n):
        row = [F(0)] * n
        row[j] = F(1)
        rows.append(row)
        rhs.append(F(0))
    relations = [c.relation for c in lp.constraints] + [GREATER_EQUAL] * n

    def feasible(x):
        for row, relation, b in zip(rows, relations, rhs):
            lhs = sum((c * v for c, v in zip(row, x)), F(0))
            if relation == LESS_EQUAL and lhs > b:
                return False
            if relation == GREATER_EQUAL and lhs < b:
                return False
            if relation == EQUAL and lhs != b:
                return False
        return True

    best = None
    found_feasible = False
    for active in combinations(range(len(rows)), n):
        matrix = [rows[i] for i in active]
        target = [rhs[i] for i in active]
        x = solve_fractions(sparse_rows(matrix), target)
        if x is None or not feasible(x):
            continue
        found_feasible = True
        value = sum((c * v for c, v in zip(lp.objective, x)), F(0))
        if best is None or (value > best if lp.maximize else value < best):
            best = value
    return found_feasible, best


class TestSimplex:
    def test_minimize_nonnegative_variable(self):
        lp = LinearProgram(objective=(F(1),), constraints=(), maximize=False)
        result = simplex_solve(lp)
        assert result.status == "optimal" and result.objective == 0

    def test_maximize_bounded_variable(self):
        lp = LinearProgram(
            objective=(F(1),),
            constraints=(Constraint((F(1),), LESS_EQUAL, F(5)),),
            maximize=True,
        )
        result = simplex_solve(lp)
        assert result.status == "optimal"
        assert result.objective == 5
        assert result.solution == [F(5)]

    def test_infeasible(self):
        lp = LinearProgram(
            objective=(F(1),),
            constraints=(
                Constraint((F(1),), LESS_EQUAL, F(1)),
                Constraint((F(1),), GREATER_EQUAL, F(2)),
            ),
        )
        assert simplex_solve(lp).status == "infeasible"

    def test_unbounded(self):
        lp = LinearProgram(objective=(F(1),), constraints=(), maximize=True)
        assert simplex_solve(lp).status == "unbounded"

    def test_equality_constraints(self):
        lp = LinearProgram(
            objective=(F(1), F(2)),
            constraints=(Constraint((F(1), F(1)), EQUAL, F(4)),),
            maximize=True,
        )
        result = simplex_solve(lp)
        assert result.objective == 8
        assert result.solution == [F(0), F(4)]

    def test_solvent_chain_feasibility_instance(self):
        # two-bank chain, both solvent, counters at the top: offsets can be 0
        # variables: t_a, t_b, d_a, d_b with assets a_a = 2, a_b = 1 + t-free
        lp = LinearProgram(
            objective=(F(0), F(0), F(1), F(1)),
            constraints=(
                # t_a - d_a = assets of a = 2 (external only)
                Constraint((F(1), F(0), F(-1), F(0)), EQUAL, F(2)),
                # t_b - d_b = assets of b = 0 + full payment 1
                Constraint((F(0), F(1), F(0), F(-1)), EQUAL, F(1)),
                # floors: t_a >= L+(a) = 1, t_b >= 0
                Constraint((F(1), F(0), F(0), F(0)), GREATER_EQUAL, F(1)),
                Constraint((F(0), F(1), F(0), F(0)), GREATER_EQUAL, F(0)),
            ),
            maximize=False,
        )
        result = simplex_solve(lp)
        assert result.status == "optimal"
        assert result.objective == 0

    def test_against_vertex_enumeration(self):
        rng = random.Random(161803)
        compared = 0
        for _ in range(120):
            n = rng.randint(1, 4)
            m = rng.randint(0, 5)
            # a bounding box keeps every instance bounded; remaining rows are
            # biased toward satisfiable-at-zero constraints
            constraints = [
                Constraint(tuple(F(1) for _ in range(n)), LESS_EQUAL, F(rng.randint(4, 12)))
            ]
            for _ in range(m):
                coeffs = tuple(F(rng.randint(-4, 4)) for _ in range(n))
                relation = rng.choice((LESS_EQUAL, LESS_EQUAL, GREATER_EQUAL, EQUAL))
                rhs = F(rng.randint(0 if relation != LESS_EQUAL else -6, 10))
                constraints.append(Constraint(coeffs, relation, rhs))
            lp = LinearProgram(
                objective=tuple(F(rng.randint(-5, 5)) for _ in range(n)),
                constraints=tuple(constraints),
                maximize=rng.random() < 0.5,
            )
            result = simplex_solve(lp)
            feasible, best = brute_force_lp(lp)
            if result.status == "infeasible":
                assert not feasible
            elif result.status == "optimal":
                assert feasible
                # optimum must be feasible and match the best vertex when the
                # brute force saw a bounded optimum
                check = LinearProgram(lp.objective, lp.constraints, lp.maximize)
                for constraint in check.constraints:
                    lhs = sum(
                        (c * x for c, x in zip(constraint.coeffs, result.solution)),
                        F(0),
                    )
                    if constraint.relation == LESS_EQUAL:
                        assert lhs <= constraint.rhs
                    elif constraint.relation == GREATER_EQUAL:
                        assert lhs >= constraint.rhs
                    else:
                        assert lhs == constraint.rhs
                assert all(x >= 0 for x in result.solution)
                if best is not None:
                    assert result.objective == best
                compared += 1
        assert compared > 30
