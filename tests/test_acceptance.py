"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single "ACCEPTANCE n (<name>): PASS/FAIL" line; run with
``pytest tests/test_acceptance.py -v -s`` to see them.  Random inputs are
seeded, so the suite is deterministic.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

import pytest

import oracles
from bellquasi.bellcheck import bell_pair
from bellquasi.exactla import (
    left_null_space,
    null_space,
    pseudoinverse,
    rank,
    solve_consistent,
)
from bellquasi.marginal_general import (
    Feasibility,
    MarginalProblem,
    build_constraint_system,
    solve_problem,
)
from bellquasi.quasi import (
    HOMOGENEOUS,
    bell_problem,
    build_matrix,
    check_consistency,
    classify,
    solve_family,
)
from bellquasi.reference import (
    REFERENCE_HOMOGENEOUS,
    REFERENCE_LEFT_NULL,
    REFERENCE_PSEUDOINVERSE,
)
from bellquasi.singlet import (
    CorrelationTriple,
    correlation,
    correlations,
    pair_table,
    tables_from_correlations,
)
from oracles import bell_marginals
from test_exactla import random_matrix, spans_equal


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"\nACCEPTANCE {number} ({name}): PASS")


@pytest.fixture(scope="session")
def rationalized_triples():
    """The 10,000 exact-rational triples of criterion 3 (``oracles.criterion_3_triples``)."""
    return oracles.criterion_3_triples()


def test_criterion_1_reference_matrix_regression():
    with criterion(1, "reference-matrix regression"):
        start = time.perf_counter()
        m = build_matrix()
        assert rank(m) == 7
        assert spans_equal(null_space(m), [REFERENCE_HOMOGENEOUS])
        assert spans_equal(left_null_space(m), list(REFERENCE_LEFT_NULL))
        pinv = pseudoinverse(m)
        mismatches = sum(
            1
            for i in range(8)
            for j in range(10)
            if pinv.entry(i, j) != REFERENCE_PSEUDOINVERSE[i][j]
        )
        assert mismatches == 0
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"regression took {elapsed:.3f}s"


def test_criterion_2_singlet_consistency_property():
    with criterion(2, "singlet consistency on 10,000 random triples"):
        start = time.perf_counter()
        rng = random.Random(424242)
        worst = 0.0
        for _ in range(10_000):
            p = bell_marginals(*oracles.random_direction_triple(rng)).p_vector
            report = check_consistency(p)
            assert report.ok
            worst = max(worst, max(abs(r) for r in report.residuals))
            for side in (
                p[0] + p[1], p[6] + p[8],
                p[3] + p[4], p[6] + p[7],
                p[0] + p[2], p[3] + p[5],
            ):
                assert abs(side - 0.5) < 1e-12
        assert worst < 1e-12, f"worst residual {worst}"
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"consistency sweep took {elapsed:.3f}s"


def test_criterion_3_three_decider_equivalence(rationalized_triples):
    with criterion(3, "equivalence of Bell pair, interval, and exact LP on 10,000 triples"):
        start = time.perf_counter()
        agreements = 0
        boundary_cases = 0
        for corr in rationalized_triples:
            verdict = bell_pair(corr)
            if abs(verdict.margin) < F(1, 10**9):
                boundary_cases += 1
            family = solve_family(tables_from_correlations(corr).p_vector)
            interval_ok = family is not None and family.t_lo <= family.t_hi
            lp_ok = solve_problem(bell_problem(corr)).status is Feasibility.PROPER
            if verdict.satisfied == interval_ok == lp_ok:
                agreements += 1
        assert boundary_cases >= 50, f"only {boundary_cases} boundary cases"
        assert agreements == 10_000, f"{10_000 - agreements} disagreements"
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"equivalence sweep took {elapsed:.3f}s"


def test_criterion_4_canonical_violation():
    with criterion(4, "coplanar 0/60/120 violation"):
        corr = correlations(*(oracles.Direction.from_degrees(t) for t in (0, 60, 120)))
        assert corr.ab == pytest.approx(-0.5, abs=1e-12)
        assert corr.ac == pytest.approx(+0.5, abs=1e-12)
        assert corr.bc == pytest.approx(-0.5, abs=1e-12)
        # independent quantum check of all three correlations
        a, b, g = (oracles.Direction.from_degrees(t) for t in (0, 60, 120))
        assert oracles.product_expectation(a, b) == pytest.approx(corr.ab, abs=1e-12)
        assert oracles.product_expectation(a, g) == pytest.approx(corr.ac, abs=1e-12)
        assert oracles.product_expectation(b, g) == pytest.approx(corr.bc, abs=1e-12)

        verdict = bell_pair(corr)
        assert verdict.margin == pytest.approx(-0.5, abs=1e-12)

        exact = CorrelationTriple(F(-1, 2), F(1, 2), F(-1, 2))
        p = tables_from_correlations(exact).p_vector
        assert check_consistency(p).ok  # quasiprobability family exists
        assert classify(p).tag is Feasibility.QUASI_ONLY
        family = solve_family(p)
        assert family.t_lo > family.t_hi  # empty feasibility interval
        # independent exact solve agrees with the pseudoinverse solution
        m = build_matrix()
        sol = solve_consistent(m, p)
        assert oracles.remove_component(sol, HOMOGENEOUS) == family.x0
        # 10^5-point sweep: some component is negative at every t
        x0_float = [float(x) for x in family.x0]
        assert oracles.family_grid_infeasible(x0_float, points=100_001, span=1.0)


def test_criterion_5_c_zero_converse(rationalized_triples):
    with criterion(5, "minimum-norm solution non-negative whenever Bell holds"):
        checked = 0
        for corr in rationalized_triples:
            if not bell_pair(corr).satisfied:
                continue
            checked += 1
            x0 = solve_family(tables_from_correlations(corr).p_vector).x0
            assert min(x0) >= F(-1, 10**10), f"x0 negative at {corr}"
        assert checked > 1000  # the satisfying side is well represented


def test_criterion_6_quantum_oracle_agreement():
    with criterion(6, "pair tables match the 4x4 projector computation"):
        rng = random.Random(777)
        for _ in range(1000):
            u = oracles.random_direction(rng)
            v = oracles.random_direction(rng)
            table = pair_table(correlation(u, v))
            flipped = pair_table(correlation(u, v), flip=True)
            for a in (1, -1):
                for b in (1, -1):
                    assert table.entry(a, b) == pytest.approx(
                        oracles.joint_probability(u, a, v, b), abs=1e-12
                    )
                    assert flipped.entry(a, b) == pytest.approx(
                        oracles.flipped_joint_probability(u, a, v, b), abs=1e-12
                    )


def test_criterion_7_single_observable_problems_always_proper():
    with criterion(7, "500 single-observable problems solved Proper with product witness"):
        rng = random.Random(31337)
        for _ in range(500):
            cards = [rng.randint(2, 3) for _ in range(rng.randint(1, 4))]
            tables = [oracles.random_rational_distribution(rng, c) for c in cards]
            prob = MarginalProblem(
                observables=tuple((f"O{i}", c) for i, c in enumerate(cards)),
                constraints=tuple(((f"O{i}",), t) for i, t in enumerate(tables)),
            )
            result = solve_problem(prob)
            assert result.status is Feasibility.PROPER
            # product-distribution witness validates exactly
            witness = oracles.product_distribution(tables)
            mat, rhs = build_constraint_system(prob)
            assert all(x >= 0 for x in witness)
            assert oracles.mat_vec(mat, witness) == tuple(rhs)


def test_criterion_8_penrose_identity_suite():
    with criterion(8, "four Penrose identities exact on 200 random matrices"):
        rng = random.Random(2718281)
        for _ in range(200):
            m = random_matrix(rng, max_dim=6, max_num=10, max_den=10)
            a, p = ([list(x.row(i)) for i in range(x.rows)] for x in (m, pseudoinverse(m)))
            mp = oracles._matmul(a, p)
            pm = oracles._matmul(p, a)
            assert oracles._matmul(mp, a) == a
            assert oracles._matmul(pm, p) == p
            assert oracles._transpose(mp) == mp
            assert oracles._transpose(pm) == pm
