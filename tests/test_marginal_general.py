import itertools
import random
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bellquasi import marginal_general
from bellquasi.cli import load_problem_document
from bellquasi.exactla import rank
from bellquasi.marginal_general import (
    Feasibility,
    JOINT_SIZE_CAP,
    MarginalProblem,
    build_constraint_system,
    lp_feasible,
    product_distribution,
    rationalize,
    solve_problem,
)
from bellquasi.quasi import bell_problem, build_matrix, solve_family
from bellquasi.singlet import CorrelationTriple, tables_from_correlations


def joint_marginal(prob: MarginalProblem, joint, subset):
    """Marginal of a flat joint table over the named subset (row-major)."""
    cards = prob.cardinalities()
    positions = [prob.index_of(n) for n in subset]
    outcomes = list(itertools.product(*(range(c) for c in cards)))
    grid = list(itertools.product(*(range(cards[p]) for p in positions)))
    out = []
    for combo in grid:
        out.append(
            sum(
                joint[k]
                for k, o in enumerate(outcomes)
                if all(o[p] == combo[j] for j, p in enumerate(positions))
            )
        )
    return tuple(out)


def random_problem(rng: random.Random) -> MarginalProblem:
    n_obs = rng.randint(2, 3)
    observables = tuple((f"O{i}", rng.randint(2, 3)) for i in range(n_obs))
    cards = dict(observables)
    names = [n for n, _ in observables]
    constraints = []
    for _ in range(rng.randint(1, 3)):
        size = rng.randint(1, min(2, n_obs))
        subset = tuple(rng.sample(names, size))
        cells = 1
        for n in subset:
            cells *= cards[n]
        constraints.append((subset, oracles.random_rational_distribution(rng, cells)))
    return MarginalProblem(observables=observables, constraints=tuple(constraints))


class TestProductDistribution:
    def test_two_binary_tables(self):
        joint = product_distribution([(0.3, 0.7), (0.6, 0.4)])
        assert joint == pytest.approx((0.18, 0.12, 0.42, 0.28))

    def test_three_fair_coins(self):
        joint = product_distribution([(F(1, 2), F(1, 2))] * 3)
        assert joint == (F(1, 8),) * 8

    def test_degenerate_marginal(self):
        joint = product_distribution([(F(1), F(0)), (F(1, 2), F(1, 2))])
        assert joint == (F(1, 2), F(1, 2), F(0), F(0))

    def test_rejects_non_distribution(self):
        with pytest.raises(ValueError):
            product_distribution([(F(1, 2), F(1, 3))])

    def test_round_trip_exact(self):
        rng = random.Random(101)
        for _ in range(100):
            cards = [rng.randint(2, 4) for _ in range(rng.randint(1, 4))]
            tables = [oracles.random_rational_distribution(rng, c) for c in cards]
            observables = tuple((f"O{i}", c) for i, c in enumerate(cards))
            prob = MarginalProblem(
                observables=observables,
                constraints=tuple(((f"O{i}",), t) for i, t in enumerate(tables)),
            )
            joint = product_distribution(tables)
            for i, t in enumerate(tables):
                assert joint_marginal(prob, joint, (f"O{i}",)) == t

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(1, 9), min_size=2, max_size=4))
    def test_total_mass_one(self, weights):
        total = sum(weights)
        table = tuple(F(w, total) for w in weights)
        assert sum(product_distribution([table, table])) == 1


class TestBuildConstraintSystem:
    def test_reproduces_fixed_bell_matrix(self):
        corr = CorrelationTriple(F(1, 5), F(-2, 5), F(3, 5))
        mat, rhs = build_constraint_system(bell_problem(corr))
        assert mat == build_matrix()
        assert tuple(rhs) == tables_from_correlations(corr).p_vector

    def test_toy_two_observables_dropped(self):
        prob = MarginalProblem(
            observables=(("A", 2), ("B", 2)),
            constraints=((("A",), (F(3, 5), F(2, 5))), (("B",), (F(1, 2), F(1, 2)))),
        )
        mat, rhs = build_constraint_system(prob)
        assert (mat.rows, mat.cols) == (3, 4)
        assert [int(x) for x in mat.row(0)] == [1, 1, 0, 0]  # first-observable "+" row
        assert [int(x) for x in mat.row(1)] == [1, 0, 1, 0]  # second-observable "+" row
        assert [int(x) for x in mat.row(2)] == [1, 1, 1, 1]
        assert tuple(rhs) == (F(3, 5), F(1, 2), F(1))

    def test_toy_two_observables_retained(self):
        prob = MarginalProblem(
            observables=(("A", 2), ("B", 2)),
            constraints=((("A",), (F(3, 5), F(2, 5))), (("B",), (F(1, 2), F(1, 2)))),
        )
        mat, rhs = build_constraint_system(prob, drop_redundant=False)
        assert (mat.rows, mat.cols) == (5, 4)
        assert [int(x) for x in mat.row(1)] == [0, 0, 1, 1]  # the redundant "-" row
        assert tuple(rhs) == (F(3, 5), F(2, 5), F(1, 2), F(1, 2), F(1))

    def test_single_observable(self):
        prob = MarginalProblem(
            observables=(("A", 2),),
            constraints=((("A",), (F(1, 4), F(3, 4))),),
        )
        mat, _ = build_constraint_system(prob, drop_redundant=False)
        assert (mat.rows, mat.cols) == (3, 2)  # two entry rows + normalization

    def test_size_cap(self):
        observables = tuple((f"O{i}", 2) for i in range(21))  # 2^21 outcomes
        with pytest.raises(ValueError):
            MarginalProblem(observables=observables, constraints=())
        assert 2**21 > JOINT_SIZE_CAP


class TestLpFeasible:
    def test_uniform_bell_is_proper(self):
        mat, rhs = build_constraint_system(bell_problem(CorrelationTriple(0, 0, 0)))
        result = lp_feasible(mat, rhs)
        assert result.status is Feasibility.PROPER
        assert result.homogeneous_dim == 1
        # witness is exact and satisfies every constraint
        assert all(x >= 0 for x in result.witness)
        assert tuple(mat.apply(result.witness)) == tuple(rhs)
        # the uniform table is a member of the solution set
        assert tuple(mat.apply([F(1, 8)] * 8)) == tuple(rhs)

    def test_canonical_violation_is_quasi_only(self):
        corr = CorrelationTriple(F(-1, 2), F(1, 2), F(-1, 2))
        mat, rhs = build_constraint_system(bell_problem(corr))
        result = lp_feasible(mat, rhs)
        assert result.status is Feasibility.QUASI_ONLY
        assert result.witness is None
        # corroborated by brute-force sweep of the one-parameter family
        fam = solve_family(tables_from_correlations(corr).p_vector)
        assert oracles.family_grid_infeasible([float(x) for x in fam.x0], points=20001)

    def test_contradictory_marginals_inconsistent(self):
        prob = MarginalProblem(
            observables=(("A", 2), ("B", 2)),
            constraints=(
                (("A",), (F(3, 10), F(7, 10))),
                (("A", "B"), (F(1, 4), F(1, 4), F(1, 4), F(1, 4))),
            ),
        )
        result = solve_problem(prob)
        assert result.status is Feasibility.INCONSISTENT
        assert result.witness is None
        mat, _ = build_constraint_system(prob)
        assert result.homogeneous_dim == mat.cols - rank(mat)

    def test_inconsistent_system_never_enters_simplex(self, monkeypatch):
        def no_simplex(mat, rhs):
            raise AssertionError("simplex entered on an inconsistent system")

        monkeypatch.setattr(marginal_general, "_phase_one_simplex", no_simplex)
        prob = load_problem_document(str(Path(__file__).resolve().parent.parent / "problems" / "contradictory.json"))
        mat, rhs = build_constraint_system(prob)
        result = lp_feasible(mat, rhs)
        assert result.status is Feasibility.INCONSISTENT
        assert result.homogeneous_dim == mat.cols - rank(mat)

    def test_witness_validity_random_problems(self):
        rng = random.Random(103)
        proper = 0
        for _ in range(100):
            prob = random_problem(rng)
            mat, rhs = build_constraint_system(prob)
            result = lp_feasible(mat, rhs)
            if result.status is Feasibility.PROPER:
                proper += 1
                assert all(x >= 0 for x in result.witness)
                assert tuple(mat.apply(result.witness)) == tuple(rhs)
                for subset, table in prob.constraints:
                    assert joint_marginal(prob, result.witness, subset) == tuple(table)
        assert proper > 20

    def test_agrees_with_family_interval_on_bell_instances(self):
        rng = random.Random(107)
        for _ in range(200):
            corr = oracles.random_rational_correlations(rng, denominator=1000)
            fam = solve_family(tables_from_correlations(corr).p_vector)
            interval_ok = fam.t_lo <= fam.t_hi
            mat, rhs = build_constraint_system(bell_problem(corr))
            assert (lp_feasible(mat, rhs).status is Feasibility.PROPER) == interval_ok


class TestSolveProblem:
    def test_single_observable_marginals_always_proper(self):
        rng = random.Random(109)
        for _ in range(100):
            cards = [rng.randint(2, 3) for _ in range(rng.randint(1, 4))]
            tables = [oracles.random_rational_distribution(rng, c) for c in cards]
            prob = MarginalProblem(
                observables=tuple((f"O{i}", c) for i, c in enumerate(cards)),
                constraints=tuple(((f"O{i}",), t) for i, t in enumerate(tables)),
            )
            result = solve_problem(prob)
            assert result.status is Feasibility.PROPER
            # the product distribution is an independent witness
            product = product_distribution(tables)
            mat, rhs = build_constraint_system(prob)
            assert tuple(mat.apply(list(product))) == tuple(rhs)

    def test_bell_violation_document_level(self):
        corr = CorrelationTriple(F(-1, 2), F(1, 2), F(-1, 2))
        assert solve_problem(bell_problem(corr)).status is Feasibility.QUASI_ONLY

    def test_bell_boundary_is_proper(self):
        corr = CorrelationTriple(0, 1, 0)
        assert solve_problem(bell_problem(corr)).status is Feasibility.PROPER

    def test_float_tables_are_rationalized(self):
        third = 1 / 3
        prob = MarginalProblem(
            observables=(("A", 3),),
            constraints=((("A",), (third, third, third)),),
        )
        result = solve_problem(prob)
        assert result.status is Feasibility.PROPER
        assert sum(result.witness) == 1  # exactly, after rationalization

    def test_float_tables_are_stored_exact(self):
        prob = MarginalProblem(
            observables=(("A", 3), ("B", 2)),
            constraints=((("A",), (0.1234567, 0.2345678, 0.6419755)), (("B",), (0.5, 0.5))),
        )
        for _, table in prob.constraints:
            assert all(type(v) is F for v in table)
            assert sum(table) == 1
        assert prob.constraints[1][1] == (F(1, 2), F(1, 2))

    def test_redundant_rows_never_change_the_answer(self):
        rng = random.Random(113)
        for _ in range(200):
            prob = random_problem(rng)
            dropped = solve_problem(prob, drop_redundant=True)
            retained = solve_problem(prob, drop_redundant=False)
            assert dropped.status is retained.status


class TestRationalize:
    def test_exact_passthrough(self):
        assert rationalize(F(3, 7)) == F(3, 7)
        assert rationalize(2) == F(2)

    def test_float_denominator_bound(self):
        r = rationalize(1 / 3)
        assert r.denominator <= 10**6
        assert abs(r - F(1, 3)) < F(1, 10**9)
