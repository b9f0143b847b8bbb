import math
import random
from decimal import Decimal
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from bellquasi import exactla
from bellquasi.exactla import (
    RatMatrix,
    left_null_space,
    null_space,
    pseudoinverse,
    rank,
    solve_consistent,
)
from bellquasi.quasi import build_matrix
from bellquasi.reference import REFERENCE_HOMOGENEOUS, REFERENCE_LEFT_NULL, REFERENCE_PSEUDOINVERSE


def spans_equal(vectors_a, vectors_b) -> bool:
    rows_a = [list(v) for v in vectors_a]
    rows_b = [list(v) for v in vectors_b]
    if not rows_a or not rows_b:
        return rows_a == rows_b
    ra = rank(RatMatrix.from_rows(rows_a))
    rb = rank(RatMatrix.from_rows(rows_b))
    rab = rank(RatMatrix.from_rows(rows_a + rows_b))
    return ra == rb == rab


def random_matrix(rng, max_dim=6, max_num=10, max_den=10) -> RatMatrix:
    rows = rng.randint(1, max_dim)
    cols = rng.randint(1, max_dim)
    return RatMatrix.from_rows(
        [
            [F(rng.randint(-max_num, max_num), rng.randint(1, max_den)) for _ in range(cols)]
            for _ in range(rows)
        ]
    )


class TestRank:
    def test_fixed_constraint_matrix(self):
        assert rank(build_matrix()) == 7

    def test_identity(self):
        assert rank(RatMatrix.from_rows(oracles.identity(8))) == 8

    def test_zero(self):
        assert rank(RatMatrix(3, 3, (0,) * 9)) == 0

    def test_transpose_invariant(self):
        rng = random.Random(7)
        for _ in range(50):
            m = random_matrix(rng)
            assert rank(m) == rank(m.transpose())


class TestNullSpace:
    def test_fixed_matrix_kernel(self):
        basis = null_space(build_matrix())
        assert len(basis) == 1
        assert spans_equal(basis, [REFERENCE_HOMOGENEOUS])

    def test_full_column_rank(self):
        assert null_space(RatMatrix.from_rows(oracles.identity(4))) == []

    def test_one_equation_kernel_canonicalization(self):
        # first nonzero entry must come out positive with content 1
        basis = null_space(RatMatrix.from_rows([[1, 1]]))
        assert basis == [(F(1), F(-1))]

    def test_rank_nullity(self):
        rng = random.Random(11)
        for _ in range(50):
            m = random_matrix(rng)
            assert rank(m) + len(null_space(m)) == m.cols

    def test_kernel_vectors_annihilated(self):
        rng = random.Random(13)
        for _ in range(30):
            m = random_matrix(rng)
            for v in null_space(m):
                assert all(x == 0 for x in oracles.mat_vec(m, v))


class TestLeftNullSpace:
    def test_fixed_matrix_complement(self):
        basis = left_null_space(build_matrix())
        assert len(basis) == 3
        assert spans_equal(basis, list(REFERENCE_LEFT_NULL))

    def test_full_row_rank(self):
        assert left_null_space(RatMatrix.from_rows(oracles.identity(5))) == []

    def test_single_column(self):
        basis = left_null_space(RatMatrix.from_rows([[1], [1]]))
        assert basis == [(F(1), F(-1))]

    def test_orthogonal_to_columns(self):
        m = build_matrix()
        for v in left_null_space(m):
            assert all(x == 0 for x in oracles.mat_vec(m.transpose(), v))


def penrose_identities_hold(m: RatMatrix) -> bool:
    a, p = m.row_lists(), pseudoinverse(m).row_lists()
    mp = oracles._matmul(a, p)
    pm = oracles._matmul(p, a)
    return (
        oracles._matmul(mp, a) == a
        and oracles._matmul(pm, p) == p
        and oracles._transpose(mp) == mp
        and oracles._transpose(pm) == pm
    )


class TestPseudoinverse:
    def test_fixed_matrix_all_entries(self):
        pinv = pseudoinverse(build_matrix())
        assert pinv.rows == 8 and pinv.cols == 10
        for i in range(8):
            for j in range(10):
                assert pinv.entry(i, j) == REFERENCE_PSEUDOINVERSE[i][j]

    def test_fixed_matrix_spot_entries(self):
        pinv = pseudoinverse(build_matrix())
        assert list(pinv.row(0)) == [
            F(1, 4), F(-1, 8), F(-1, 8), F(1, 4), F(-1, 8),
            F(-1, 8), F(1, 4), F(-1, 8), F(-1, 8), F(1, 8),
        ]
        assert pinv.entry(1, 1) == F(13, 40)
        assert pinv.entry(7, 9) == F(7, 8)

    def test_invertible_matrix(self):
        m = RatMatrix.from_rows([[1, 1], [0, 1]])
        assert pseudoinverse(m) == RatMatrix.from_rows([[1, -1], [0, 1]])

    def test_zero_matrix(self):
        for rows, cols in [(2, 3), (0, 3), (3, 0), (0, 0)]:
            zeros = (0,) * (rows * cols)
            assert pseudoinverse(RatMatrix(rows, cols, zeros)) == RatMatrix(cols, rows, zeros)

    def test_penrose_identities_random(self):
        rng = random.Random(17)
        for _ in range(60):
            assert penrose_identities_hold(random_matrix(rng, max_dim=5))

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 4),
        st.integers(1, 4),
        st.data(),
    )
    def test_penrose_identities_hypothesis(self, rows, cols, data):
        entries = data.draw(
            st.lists(
                st.lists(
                    st.fractions(min_value=-10, max_value=10, max_denominator=10),
                    min_size=cols,
                    max_size=cols,
                ),
                min_size=rows,
                max_size=rows,
            )
        )
        assert penrose_identities_hold(RatMatrix.from_rows(entries))


class TestSolveConsistent:
    def test_identity_system(self):
        x = solve_consistent(RatMatrix.from_rows(oracles.identity(2)), (F(3), F(1, 2)))
        assert list(x) == [F(3), F(1, 2)]

    def test_perturbed_rhs_is_inconsistent(self):
        # nudge the first entry of a valid rhs off the column space
        m = build_matrix()
        p = (F(1, 4),) * 9 + (F(1),)
        assert solve_consistent(m, p) is not None
        bad = (p[0] + F(1, 10),) + p[1:]
        assert any(oracles.dot(v, bad) != 0 for v in left_null_space(m))
        assert solve_consistent(m, bad) is None

    def test_underdetermined_residual_zero(self):
        m = RatMatrix.from_rows([[1, 1]])
        b = (F(1),)
        x = solve_consistent(m, b)
        assert x[0] + x[1] == 1
        assert oracles.mat_vec(m, x) == b

    def test_matches_pseudoinverse_solution_up_to_kernel(self):
        m = build_matrix()
        kernel = null_space(m)[0]
        rng = random.Random(23)
        for _ in range(20):
            # rhs guaranteed consistent: image of a random non-negative vector
            x = [F(rng.randint(0, 9), 1) for _ in range(8)]
            total = sum(x) or F(1)
            x = [v / total for v in x]
            p = oracles.mat_vec(m, x)
            sol = solve_consistent(m, p)
            assert oracles.mat_vec(m, sol) == p
            # removing the kernel component must recover the min-norm solution
            pinv_sol = oracles.mat_vec(pseudoinverse(m), p)
            assert oracles.remove_component(sol, kernel) == pinv_sol


class TestIntegerRowsMatchFractionReference:
    def test_rref_null_space_pseudoinverse(self, monkeypatch):
        # integer rows inside, Fractions out: every value equals the all-Fraction elimination's
        negative_pivots = []
        step = exactla._pivot

        def watched(rows, r, c):
            negative_pivots.append(rows[r][c] < 0)
            return step(rows, r, c)

        monkeypatch.setattr(exactla, "_pivot", watched)
        rng = random.Random(131)
        seen = {"negative pivot": 0, "zero row": 0, "swap": 0}
        for _ in range(300):
            a = oracles.random_rational_matrix(rng)
            m, ncols = RatMatrix.from_rows(a), len(a[0])
            negative_pivots.clear()
            rows, pivots = exactla._rref_rows(exactla._integer_rows(a))
            reduced = [[F(v, row[c]) for v in row] for row, c in zip(rows, pivots)]
            reduced += [[F(0)] * ncols] * (len(a) - len(pivots))
            ref_rows, ref_pivots = oracles.reference_rref(a)
            assert (reduced, pivots) == (ref_rows, ref_pivots), a
            assert all(type(v) is int for row in rows for v in row)
            seen["negative pivot"] += any(negative_pivots)
            seen["zero row"] += any(all(v == 0 for v in row) for row in a)
            seen["swap"] += a[0][0] == 0 and any(row[0] != 0 for row in a)
            assert [list(v) for v in null_space(m)] == oracles.reference_null_space(a, ncols), a
            assert pseudoinverse(m) == RatMatrix.from_rows(oracles.reference_pseudoinverse(a, ncols)), a
        assert min(seen.values()) >= 30, seen


def is_positive_multiple(ints, fractions) -> bool:
    """Is the integer row ``t`` times the Fraction row, for some t > 0?"""
    lead = next((j for j, v in enumerate(fractions) if v != 0), None)
    if lead is None:
        return not any(ints)
    t = F(ints[lead]) / fractions[lead]
    return t > 0 and all(a == t * v for a, v in zip(ints, fractions))


def small_integer_rows(ncols):
    """Rows of ``ncols`` integers in -3..3, mostly zeros, some with one nonzero entry."""
    dense = st.lists(st.sampled_from((0, 0, 0, 1, -1, 2, -2, 3, -3)), min_size=ncols, max_size=ncols)
    single = st.tuples(st.integers(0, ncols - 1), st.sampled_from((1, -1, 2, -2, 3, -3))).map(
        lambda t: [t[1] if j == t[0] else 0 for j in range(ncols)]
    )
    return st.lists(st.one_of(dense, single), min_size=1, max_size=6)


class TestSparsePivotStep:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 8).flatmap(small_integer_rows), st.integers(0, 10**6))
    @example([[1, 2, 0, -1], [3, 0, 1, 0], [0, 0, 2, 0], [-2, -4, 0, 2]], 0)  # pivot entry 1: copy
    @example([[-2, 1, 0], [3, 0, 1], [0, 1, 1], [1, 0, 0]], 0)  # pivot entry -2, made 2: scale
    def test_matches_fraction_step(self, rows, pick):
        # after the integer step every row is a positive multiple of the
        # Fraction step's row; updated rows are coprime, other rows untouched
        nonzero = [(i, j) for i, row in enumerate(rows) for j, v in enumerate(row) if v != 0]
        assume(nonzero)
        r, c = nonzero[pick % len(nonzero)]
        ints = [list(row) for row in rows]
        exactla._pivot(ints, r, c)
        ref = [[F(v) for v in row] for row in rows]
        oracles._fraction_pivot(ref, r, c)
        assert ints[r][c] > 0
        for i, (before, after) in enumerate(zip(rows, ints)):
            assert is_positive_multiple(after, ref[i]), (rows, r, c)
            if i != r and before[c] != 0:
                assert math.gcd(*after) == (1 if any(after) else 0), (rows, r, c)
            elif i != r:
                assert after == before


class TestFromRows:
    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            RatMatrix.from_rows([[F(1, 4), 0.25]])


class TestExactnessRule:
    # exact iff every value is an int (bool too) or a Fraction, wherever a
    # float or float subclass (numpy.float64) stands
    @pytest.mark.parametrize(
        "values, exact",
        [
            ((), True),
            ((0, 1, -7, True, False), True),
            ((F(1, 3), F(-2, 5), F(0)), True),
            ((0.5, F(1, 2), 1), False),
            ((F(1, 2), F(1, 3), 0.25), False),
            ((F(1, 2), np.float64(0.5)), False),
            ((np.float64(1.0),), False),
            ((F(1, 2), Decimal("0.5")), False),
        ],
    )
    def test_is_exact_and_tolerance(self, values, exact):
        assert exactla.is_exact(values) is exact
        assert exactla.is_exact(iter(values)) is exact
        assert exactla.tolerance(values, 1e-7) == (0 if exact else 1e-7)
        assert exactla.tolerance(values) == (0 if exact else exactla.DEFAULT_EPS)


class TestCheckDistribution:
    @pytest.mark.parametrize(
        "table",
        [(F(1, 4), F(3, 4)), (0.25, 0.75), (1, 0), (F(1, 2), 0.5)],
        ids=["exact", "float", "int", "mixed"],
    )
    def test_accepts_distribution(self, table):
        exactla.check_distribution(table, "table 0")

    # NaN fails both the sign and the sum comparison, so it needs its own test;
    # an infinite entry must not surface as a sign or sum error either
    @pytest.mark.parametrize(
        "table",
        [
            (math.nan, 1.0),
            (F(1, 2), math.nan, F(1, 2)),
            (math.inf, 1.0),
            (0.5, -math.inf),
            (math.inf, -math.inf),
            (np.float64("nan"), 1.0),
        ],
        ids=["nan", "nan-among-fractions", "inf", "minus-inf", "inf-minus-inf", "numpy-nan"],
    )
    def test_rejects_non_finite_entry_naming_the_table(self, table):
        with pytest.raises(ValueError, match=r"^non-finite entry in pair table AB$"):
            exactla.check_distribution(table, "pair table AB")

    def test_huge_exact_entries_are_compared_exactly(self):
        # the finiteness test compares, it never converts to float
        with pytest.raises(ValueError, match=r"^negative entry in table 3$"):
            exactla.check_distribution((10**400, 1 - 10**400), "table 3")
        with pytest.raises(ValueError, match=r"^table 3 does not sum to 1$"):
            exactla.check_distribution((F(10**400, 3), F(1, 3)), "table 3")
