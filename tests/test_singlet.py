import math
import random
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bellquasi import marginal_general
from bellquasi.exactla import is_exact
from bellquasi.marginal_general import build_constraint_system
from bellquasi.quasi import bell_problem, check_consistency
from bellquasi.singlet import (
    NORM_TOL,
    BellMarginals,
    CorrelationTriple,
    Direction,
    PairTable,
    correlation,
    correlations,
    pair_table,
    tables_from_correlations,
)
from oracles import bell_marginals

Z = Direction(0, 0, 1)
X = Direction(1, 0, 0)


def assert_distribution(table, tol):
    """Non-negative and summing to 1: exactly for an exact table, and within
    ``tol``, finite, with the sum rounded once, for a float one."""
    if is_exact(table):
        assert min(table) >= 0 and sum(table) == 1, table
    else:
        assert all(-tol <= v < math.inf for v in table) and abs(math.fsum(table) - 1) <= tol, table


class TestDirection:
    def test_normalizes(self):
        d = Direction(3, 4, 0)
        assert d.x == pytest.approx(0.6) and d.y == pytest.approx(0.8)
        assert d.x**2 + d.y**2 + d.z**2 == pytest.approx(1.0, abs=1e-12)

    def test_rejects_near_zero(self):
        with pytest.raises(ValueError):
            Direction(1e-10, 0, 0)

    def test_rejects_an_overflowing_norm(self):
        # x*x overflows to inf above about 1.34e154; dividing by that norm
        # would turn the axis into (0, 0, 0), whose correlations all read 0
        with pytest.raises(ValueError, match="overflows"):
            Direction(1e155, 0, 0)
        with pytest.raises(ValueError, match="overflows"):
            Direction(0, -1e200, 1)
        d = Direction(1e154, 0, 0)
        assert (d.x, d.y, d.z) == (1.0, 0.0, 0.0)

    def test_from_degrees_is_planar_unit(self):
        d = Direction.from_degrees(60)
        assert d.x == pytest.approx(0.5)
        assert d.y == pytest.approx(math.sqrt(3) / 2)
        assert d.z == 0.0

    def test_from_string_rejects_malformed(self):
        with pytest.raises(ValueError):
            Direction.from_string("1,2")


class TestCorrelation:
    def test_equal_axes_anticorrelated(self):
        assert correlation(Z, Z) == -1.0

    def test_perpendicular_axes_uncorrelated(self):
        assert correlation(Z, X) == pytest.approx(0.0, abs=1e-15)

    def test_sixty_degrees(self):
        d = Direction.from_degrees(60)
        e = Direction.from_degrees(0)
        assert correlation(e, d) == pytest.approx(-0.5, abs=1e-12)
        assert oracles.product_expectation(e, d) == pytest.approx(-0.5, abs=1e-12)

    def test_symmetric_and_bounded(self):
        rng = random.Random(3)
        for _ in range(300):
            u = oracles.random_direction(rng)
            v = oracles.random_direction(rng)
            c = correlation(u, v)
            assert c == correlation(v, u)
            assert -1 <= c <= 1

    def test_matches_quantum_expectation(self):
        rng = random.Random(5)
        for _ in range(200):
            u = oracles.random_direction(rng)
            v = oracles.random_direction(rng)
            assert correlation(u, v) == pytest.approx(
                oracles.product_expectation(u, v), abs=1e-12
            )


class TestPairTable:
    def test_perfect_anticorrelation(self):
        t = pair_table(-1)
        assert t.as_tuple() == (0, F(1, 2), F(1, 2), 0)

    def test_independence(self):
        t = pair_table(0)
        assert t.as_tuple() == (F(1, 4),) * 4

    def test_flip_sign_convention(self):
        # flipped table negates the correlation: entry (+,+) = (1 + 1/2)/4
        t = pair_table(F(-1, 2), flip=True)
        assert t.pp == F(3, 8)
        assert t.entry(1, 1) == F(3, 8)
        assert t.entry(1, -1) == F(1, 8)

    def test_flip_matches_projector_computation(self):
        beta = Direction.from_degrees(0)
        gamma = Direction.from_degrees(60)  # measurable corr -1/2
        t = pair_table(correlation(beta, gamma), flip=True)
        for b in (1, -1):
            for c in (1, -1):
                assert t.entry(b, c) == pytest.approx(
                    oracles.flipped_joint_probability(beta, b, gamma, c), abs=1e-12
                )

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            pair_table(1.1)
        with pytest.raises(ValueError):
            pair_table(F(3, 2))

    def test_agrees_with_quantum_oracle(self):
        rng = random.Random(9)
        for _ in range(200):
            u = oracles.random_direction(rng)
            v = oracles.random_direction(rng)
            t = pair_table(correlation(u, v))
            for a in (1, -1):
                for b in (1, -1):
                    assert t.entry(a, b) == pytest.approx(
                        oracles.joint_probability(u, a, v, b), abs=1e-12
                    )


class TestBellMarginals:
    def test_coincident_axes(self):
        marg = bell_marginals(Z, Z, Z)
        corr = correlations(Z, Z, Z)
        assert corr.as_tuple() == (-1.0, -1.0, -1.0)
        assert marg.pab.pp == 0.0
        assert marg.pbc.pp == 0.5

    def test_coplanar_0_60_120(self):
        a, b, c = (Direction.from_degrees(t) for t in (0, 60, 120))
        corr = correlations(a, b, c)
        assert corr.ab == pytest.approx(-0.5, abs=1e-12)
        assert corr.ac == pytest.approx(0.5, abs=1e-12)
        assert corr.bc == pytest.approx(-0.5, abs=1e-12)
        for (u, v, x, y) in (
            (a, b, corr.ab, 1),
            (a, c, corr.ac, 1),
            (b, c, corr.bc, 1),
        ):
            assert oracles.product_expectation(u, v) == pytest.approx(x, abs=1e-12)

    def test_orthogonal_and_reversed(self):
        alpha, beta, gamma = Direction(1, 0, 0), Direction(0, 1, 0), Direction(-1, 0, 0)
        corr = correlations(alpha, beta, gamma)
        assert corr.ab == pytest.approx(0.0, abs=1e-15)
        assert corr.ac == 1.0
        assert corr.bc == pytest.approx(0.0, abs=1e-15)

    def test_p_vector_layout(self):
        marg = tables_from_correlations(CorrelationTriple(F(-1, 2), F(1, 2), F(-1, 2)))
        assert marg.p_vector == (
            F(3, 8), F(1, 8), F(1, 8),
            F(3, 8), F(1, 8), F(1, 8),
            F(1, 8), F(3, 8), F(3, 8),
            F(1),
        )

    def test_rejects_bad_p_vector(self):
        table = PairTable(F(1, 4), F(1, 4), F(1, 4), F(1, 4))
        with pytest.raises(ValueError):
            BellMarginals(pab=table, pac=table, pbc=table, p_vector=(F(1, 4),) * 10)

    @settings(max_examples=100, deadline=None)
    @given(
        st.tuples(*[st.fractions(min_value=-1, max_value=1, max_denominator=10**6)] * 3)
        | st.tuples(*[st.sampled_from((1.0, -1.0, 1 + 1e-13, -1 - 1e-13)) | st.floats(-1, 1)] * 3)
    )
    def test_tables_of_a_checked_triple_are_distributions(self, triple):
        # why BellMarginals need not check its tables again
        marg = tables_from_correlations(CorrelationTriple(*triple))
        for table in (marg.pab, marg.pac, marg.pbc):
            assert_distribution(table.as_tuple(), NORM_TOL)

    def test_table_invariants_random_triples(self):
        rng = random.Random(31)
        for _ in range(500):
            marg = bell_marginals(*oracles.random_direction_triple(rng))
            for table in (marg.pab, marg.pac, marg.pbc):
                assert all(e >= -1e-12 for e in table.as_tuple())
                assert sum(table.as_tuple()) == pytest.approx(1.0, abs=1e-12)
                assert table.pp == table.mm
                assert table.pm == table.mp

    def test_consistency_sides_equal_half(self):
        rng = random.Random(37)
        for _ in range(500):
            p = bell_marginals(*oracles.random_direction_triple(rng)).p_vector
            for lhs, rhs in (
                (p[0] + p[1], p[6] + p[8]),
                (p[3] + p[4], p[6] + p[7]),
                (p[0] + p[2], p[3] + p[5]),
            ):
                assert lhs == pytest.approx(0.5, abs=1e-12)
                assert rhs == pytest.approx(0.5, abs=1e-12)
            assert check_consistency(p).ok

    @settings(max_examples=100, deadline=None)
    @given(
        st.fractions(min_value=-1, max_value=1, max_denominator=1000),
        st.fractions(min_value=-1, max_value=1, max_denominator=1000),
        st.fractions(min_value=-1, max_value=1, max_denominator=1000),
    )
    def test_exact_correlations_give_exact_consistent_tables(self, u, v, w):
        marg = tables_from_correlations(CorrelationTriple(u, v, w))
        assert all(isinstance(x, F) for x in marg.p_vector)
        report = check_consistency(marg.p_vector)
        assert report.ok
        assert report.residuals == (0, 0, 0)


class TestRhs:
    """``CorrelationTriple.rhs``: the (1 +- corr)/4 entries with BC's sign
    flipped, in a tuple that keeps its integers when the triple is exact
    (read back by ``exactla``), and a plain tuple of floats otherwise."""

    def test_exact_rhs_on_the_sweep_mix(self):
        seen = Counter()
        for corr in oracles.sweep_triples(3101) + oracles.sweep_triples(3102):
            p = corr.rhs
            assert p == oracles.fraction_rhs(corr) and all(type(v) is F for v in p), corr
            assert p is corr.rhs and tables_from_correlations(corr).p_vector is p
            assert type(p[0:3]) is tuple and type(p[6:9] + p[6:7]) is tuple
            margin = min(1 + corr.ab - abs(corr.ac - corr.bc), 1 - corr.ab - abs(corr.ac + corr.bc))
            seen["margin 0"] += margin == 0
            seen["margin 1e-10"] += abs(margin) == F(1, 10**10)
        assert seen["margin 0"] == 6 and seen["margin 1e-10"] == 4, seen

    def test_float_rhs_is_a_plain_tuple_that_is_checked(self, monkeypatch):
        checks = []
        check = marginal_general.check_distribution
        monkeypatch.setattr(marginal_general, "check_distribution", lambda *a: checks.append(a) or check(*a))
        rng = random.Random(3103)
        for _ in range(50):
            corr = correlations(*oracles.random_direction_triple(rng))
            p = corr.rhs
            assert type(p) is tuple and all(type(v) is float for v in p) and not is_exact(p)
            assert p == pytest.approx(oracles.fraction_rhs(corr), abs=1e-15)
            checks.clear()
            prob = bell_problem(corr)
            assert [table for table, _ in checks] == [p[0:3] + p[0:1], p[3:6] + p[3:4], p[6:9] + p[6:7]]
            assert build_constraint_system(prob)[1] == tuple(v for _, t in prob.constraints for v in t[:-1]) + (1,)
