import itertools
import math
import random
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bellquasi import exactla, marginal_general
from bellquasi.cli import load_problem_document
from bellquasi.exactla import RatMatrix, _pivot, rank
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

    def test_error_names_the_table_by_position(self):
        with pytest.raises(ValueError, match=r"^table 1 does not sum to 1$"):
            product_distribution([(F(1, 2), F(1, 2)), (F(1, 3000),) * 2000])

    @pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf], ids=repr)
    def test_rejects_non_finite_entry(self, entry):
        with pytest.raises(ValueError, match=r"^non-finite entry in table 1$"):
            product_distribution([(0.5, 0.5), (entry, 1.0)])

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
        assert all(type(x) is int for x in mat.entries) and all(type(x) is F for x in rhs)

    def test_toy_two_observables_retained(self):
        prob = MarginalProblem(
            observables=(("A", 2), ("B", 2)),
            constraints=((("A",), (F(3, 5), F(2, 5))), (("B",), (F(1, 2), F(1, 2)))),
        )
        rows, rhs = oracles.full_constraint_system(prob)
        assert (len(rows), len(rows[0])) == (5, 4)
        assert rows[1] == [0, 0, 1, 1]  # the redundant "-" row
        assert tuple(rhs) == (F(3, 5), F(2, 5), F(1, 2), F(1, 2), F(1))
        # the builder keeps every row but each table's last
        mat, kept = build_constraint_system(prob)
        assert [list(mat.row(i)) for i in range(mat.rows)] == [rows[0], rows[2], rows[4]]
        assert kept == (rhs[0], rhs[2], rhs[4])

    def test_single_observable(self):
        prob = MarginalProblem(
            observables=(("A", 2),),
            constraints=((("A",), (F(1, 4), F(3, 4))),),
        )
        rows, _ = oracles.full_constraint_system(prob)
        assert (len(rows), len(rows[0])) == (3, 2)  # two entry rows + normalization
        mat, _ = build_constraint_system(prob)
        assert (mat.rows, mat.cols) == (2, 2)

    @pytest.mark.parametrize("cardinality", [2.7, "3", 3.0, F(3), None], ids=repr)
    def test_non_integer_cardinality_rejected(self, cardinality):
        with pytest.raises(ValueError, match="observable 0: cardinality must be an integer"):
            MarginalProblem(observables=(("A", cardinality),), constraints=())

    @pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf], ids=repr)
    def test_non_finite_table_entry_rejected(self, entry):
        with pytest.raises(ValueError, match=r"^non-finite entry in table of constraint 1$"):
            MarginalProblem(
                observables=(("A", 2), ("B", 2)),
                constraints=((("A",), (0.5, 0.5)), (("B",), (1.0, entry))),
            )

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
        assert oracles.mat_vec(mat, result.witness) == tuple(rhs)
        # the uniform table is a member of the solution set
        assert oracles.mat_vec(mat, [F(1, 8)] * 8) == tuple(rhs)

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

    def test_nonnegative_rref_solution_needs_no_pivot(self, monkeypatch):
        # the RREF that decides rank and consistency is the simplex's start:
        # a non-negative basic solution there is a witness without any pivot
        pivots = []

        def counted_pivot(rows, r, c):
            pivots.append((r, c))
            return _pivot(rows, r, c)

        prob = load_problem_document(str(Path(__file__).resolve().parent.parent / "problems" / "bell_uniform.json"))
        mat, rhs = build_constraint_system(prob)
        monkeypatch.setattr(marginal_general, "_pivot", counted_pivot)
        result = lp_feasible(mat, rhs)
        assert result.status is Feasibility.PROPER
        assert pivots == []
        assert all(x >= 0 for x in result.witness)
        assert oracles.mat_vec(mat, result.witness) == tuple(rhs)

    @pytest.mark.parametrize(
        "mat, rhs",
        [
            (RatMatrix(0, 2, ()), ()),
            (RatMatrix.from_rows([[0, 0]]), (F(0),)),
        ],
        ids=["no-rows", "zero-row"],
    )
    def test_rank_zero_system_is_proper(self, mat, rhs):
        result = lp_feasible(mat, rhs)
        assert result == marginal_general.FeasibilityResult(Feasibility.PROPER, (F(0), F(0)), 2)

    def test_inconsistent_system_never_enters_simplex(self, monkeypatch):
        def no_simplex(*args):
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
                assert oracles.mat_vec(mat, result.witness) == tuple(rhs)
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

    def test_agrees_with_brute_force_oracle_on_small_systems(self):
        rng = random.Random(109)
        seen = Counter()
        for _ in range(400):
            a, b = oracles.random_lp_system(rng)
            result = lp_feasible(RatMatrix.from_rows(a), [F(v) for v in b])
            assert (result.status.value, result.homogeneous_dim) == oracles.lp_oracle(a, b), (a, b)
            seen[result.status] += 1
            if result.status is Feasibility.PROPER:
                x = result.witness
                assert all(v >= 0 for v in x)
                assert [sum(u * v for u, v in zip(row, x)) for row in a] == b
        assert min(seen[status] for status in Feasibility) >= 20, seen

    def test_integer_rows_match_fraction_reference(self, monkeypatch):
        # same status, witness, homogeneous dimension and simplex pivot count
        # as the all-Fraction elimination and simplex in the oracles
        steps = []

        def counted_pivot(rows, r, c):
            steps.append((r, c))
            return _pivot(rows, r, c)

        monkeypatch.setattr(marginal_general, "_pivot", counted_pivot)
        rng = random.Random(127)
        systems = [oracles.random_lp_system(rng) for _ in range(400)]
        for _ in range(100):
            mat, rhs = build_constraint_system(random_problem(rng))
            systems.append(([list(mat.row(i)) for i in range(mat.rows)], list(rhs)))
        # rational coefficients, whose rows have different denominators than
        # the rhs: rhs = a x for a small rational x, sometimes bumped
        for _ in range(300):
            a = oracles.random_rational_matrix(rng)
            x = [F(rng.randint(-2, 3), rng.randint(1, 4)) for _ in a[0]]
            b = [sum(u * v for u, v in zip(row, x)) for row in a]
            if rng.random() < 0.3:
                b[rng.randrange(len(b))] += F(1, rng.randint(1, 5))
            systems.append((a, b))
        for _ in range(60):  # Bell systems with table denominators near 10**6
            mat, rhs = build_constraint_system(bell_problem(oracles.random_rational_correlations(rng)))
            systems.append(([list(mat.row(i)) for i in range(mat.rows)], list(rhs)))
        seen = Counter()
        for a, b in systems:
            steps.clear()
            result = lp_feasible(RatMatrix.from_rows(a), [F(v) for v in b])
            status, witness, hom_dim, ref_steps = oracles.reference_lp_feasible(a, b)
            assert result == marginal_general.FeasibilityResult(Feasibility(status), witness, hom_dim), (a, b)
            assert len(steps) == ref_steps, (a, b)
            seen[status] += 1
            seen["pivoted"] += ref_steps > 0
        assert min(seen.values()) >= 20, seen

    def test_rhs_denominators_stay_out_of_the_coefficients(self, monkeypatch):
        # the rhs is scaled once per LP, so the tables' denominators (near
        # 10**6) never multiply the 0/1 coefficients of a Bell system: not
        # in the matrix's one (cached) elimination, not in any simplex step
        largest = []

        def recorded(step, stage):
            def recording_step(rows, r, c):
                step(rows, r, c)
                largest.append((stage, max(abs(v) for row in rows for v in row[:-1])))

            return recording_step

        monkeypatch.setattr(exactla, "_pivot", recorded(exactla._pivot, "elimination"))
        monkeypatch.setattr(marginal_general, "_pivot", recorded(marginal_general._pivot, "simplex"))
        marginal_general._eliminated.cache_clear()
        rng = random.Random(139)
        seen = Counter()
        for _ in range(200):
            steps = len(largest)
            status = solve_problem(bell_problem(oracles.random_rational_correlations(rng))).status
            seen[status] += 1
            seen["simplex"] += any(stage == "simplex" for stage, _ in largest[steps:])
        assert {stage for stage, _ in largest} == {"elimination", "simplex"}
        assert max(v for _, v in largest) <= 2
        assert min(seen.values()) >= 20, seen


def four_cycle_problem(rng: random.Random, status: Feasibility) -> MarginalProblem:
    """Ternary 4-cycle (pair tables on X0X1, X1X2, X2X3, X3X0), its status
    fixed by construction.  Proper: the pair marginals of a mixture of six
    assignments.  Inconsistent: the same with mass moved inside one table,
    so that it disagrees with its neighbour on one observable.  QuasiOnly:
    weight p >= 0.96 on X(i+1) = Xi in each table, but on X0 = X3 + 1 in the
    closing one.  No assignment meets all four relations, so a distribution
    gives them a mean probability of at most 3/4, while every single
    marginal is uniform."""
    n, k = 4, 3
    if status is Feasibility.QUASI_ONLY:
        p = 1 - F(2, 3) * F(rng.randint(0, 60), 1000)
        on, off = p / k, (1 - p) / (k * (k - 1))
        tables = [[on if b == (a + (i == n - 1)) % k else off for a in range(k) for b in range(k)] for i in range(n)]
    else:
        weights = Counter()
        for _ in range(6):
            weights[tuple(rng.randrange(k) for _ in range(n))] += rng.randint(1, 97)
        total = sum(weights.values())
        tables = [[F(0)] * (k * k) for _ in range(n)]
        for outcome, w in weights.items():
            for i in range(n):
                tables[i][outcome[i] * k + outcome[(i + 1) % n]] += F(w, total)
        if status is Feasibility.INCONSISTENT:
            table = tables[rng.randrange(n)]
            src = max(range(k * k), key=lambda c: table[c])
            dst = (src + k) % (k * k)  # the same X(i+1) outcome, the next Xi outcome
            moved = table[src] / 2
            table[src] -= moved
            table[dst] += moved
    names = [f"X{i}" for i in range(n)]
    return MarginalProblem(
        observables=tuple((name, k) for name in names),
        constraints=tuple(((names[i], names[(i + 1) % n]), tuple(t)) for i, t in enumerate(tables)),
    )


class TestEliminationCache:
    def test_reused_elimination_matches_cold_calls_and_reference(self, monkeypatch):
        # lp_feasible eliminates each matrix once and then only transforms
        # each rhs: back-to-back calls on two fixed matrices, the verdicts
        # interleaved, must match a cold-cache call and the all-Fraction
        # reference in status, witness, homogeneous dimension and pivots
        steps = []

        def counted_pivot(rows, r, c):
            steps.append((r, c))
            return _pivot(rows, r, c)

        monkeypatch.setattr(marginal_general, "_pivot", counted_pivot)
        rng = random.Random(149)
        bell = build_matrix()
        systems = []
        for i in range(51):
            # Bell: random singlet correlations (mostly QuasiOnly), correlations
            # of size at most 1/3 (Proper), and a table entry bumped (Inconsistent)
            if i % 3 == 1:
                corr = CorrelationTriple(*(F(rng.randint(-99, 99), 297) for _ in range(3)))
            else:
                corr = oracles.random_rational_correlations(rng)
            rhs = list(tables_from_correlations(corr).p_vector)
            if i % 3 == 2:
                rhs[rng.randrange(len(rhs))] += F(1, rng.randint(2, 9))
            systems.append((bell, rhs))
            mat, rhs = build_constraint_system(four_cycle_problem(rng, list(Feasibility)[i % 3]))
            systems.append((mat, list(rhs)))
        cycle = systems[1][0]
        assert all(mat == (bell, cycle)[i % 2] for i, (mat, _) in enumerate(systems))

        def solve_all(cold):
            results = []
            marginal_general._eliminated.cache_clear()
            for mat, rhs in systems:
                if cold:
                    marginal_general._eliminated.cache_clear()
                steps.clear()
                results.append((lp_feasible(mat, rhs), len(steps)))
            return results

        warm = solve_all(cold=False)
        assert marginal_general._eliminated.cache_info().misses == 2
        assert solve_all(cold=True) == warm
        seen = Counter()
        for (mat, rhs), (result, pivots) in zip(systems, warm):
            a = [list(mat.row(i)) for i in range(mat.rows)]
            status, witness, hom_dim, ref_steps = oracles.reference_lp_feasible(a, rhs)
            assert result == marginal_general.FeasibilityResult(Feasibility(status), witness, hom_dim)
            assert pivots == ref_steps
            seen[mat.cols, status] += 1
            seen[mat.cols, "pivoted"] += pivots > 0
        assert len(seen) == 8 and min(seen.values()) >= 10, seen


def counting_pivots(monkeypatch) -> list:
    """Record every simplex pivot of ``lp_feasible`` in the returned list."""
    steps = []

    def counted_pivot(rows, r, c):
        steps.append((r, c))
        return _pivot(rows, r, c)

    monkeypatch.setattr(marginal_general, "_pivot", counted_pivot)
    return steps


class TestForcingRows:
    def test_no_zero_rhs_matches_reference_without_presolve(self, monkeypatch):
        # a forcing row needs a zero rhs entry: without one, lp_feasible
        # pivots on the full RREF of [A | b], and its witness and pivot count
        # are those of the reference simplex with no forcing rule at all
        steps = counting_pivots(monkeypatch)
        rng = random.Random(151)
        systems = [oracles.random_lp_system(rng) for _ in range(400)]
        for k in range(60):
            corr = oracles.random_rational_correlations(rng)
            if k % 2:  # correlations of size at most 1/3: Proper, no zero cell
                corr = CorrelationTriple(*(F(rng.randint(-99, 99), 297) for _ in range(3)))
            mat, rhs = build_constraint_system(bell_problem(corr))
            systems.append(([list(mat.row(i)) for i in range(mat.rows)], list(rhs)))
        seen = Counter()
        for a, b in systems:
            if not all(b):
                continue
            steps.clear()
            result = lp_feasible(RatMatrix.from_rows(a), [F(v) for v in b])
            status, witness, hom_dim, ref_steps = oracles.reference_lp_feasible(a, b, presolve=False)
            assert result == marginal_general.FeasibilityResult(Feasibility(status), witness, hom_dim), (a, b)
            assert len(steps) == ref_steps, (a, b)
            seen[status] += 1
            seen["pivoted"] += ref_steps > 0
        assert min(seen.values()) >= 20, seen

    def test_nonlocality_without_inequalities_needs_no_pivot(self, monkeypatch):
        # GHZ-Mermin: X and Y of three parties, parity even on XXX and odd on
        # XYY, YXY and YYX; every joint outcome hits a zero cell.  Hardy: half
        # a Popescu-Rohrlich box plus half the deterministic box 0000 on the
        # four pairs (Ax, By); only the all-0 outcome avoids every zero cell,
        # and it cannot give the tables.  Both are decided before any simplex
        # pivot.
        steps = counting_pivots(monkeypatch)
        ghz = MarginalProblem(
            observables=tuple((party + s, 2) for party in "ABC" for s in "XY"),
            constraints=tuple(
                (("A" + a, "B" + b, "C" + c), tuple(F(parity == sum(o) % 2, 4) for o in itertools.product(range(2), repeat=3)))
                for (a, b, c), parity in (("XXX", 0), ("XYY", 1), ("YXY", 1), ("YYX", 1))
            ),
        )
        hardy = MarginalProblem(
            observables=tuple((party + s, 2) for party in "AB" for s in "01"),
            constraints=tuple(
                ((f"A{x}", f"B{y}"), tuple(F((a ^ b) == x * y, 4) + F(a == b == 0, 2) for a in range(2) for b in range(2)))
                for x in range(2)
                for y in range(2)
            ),
        )
        for prob, cols in ((ghz, 64), (hardy, 16)):
            mat, rhs = build_constraint_system(prob)
            assert mat.cols == cols
            steps.clear()
            result = lp_feasible(mat, rhs)
            assert result.status is Feasibility.QUASI_ONLY and result.witness is None
            assert steps == []
            a = [list(mat.row(i)) for i in range(mat.rows)]
            assert result.homogeneous_dim == oracles.reference_lp_feasible(a, list(rhs))[2]
            assert oracles.reference_lp_feasible(a, list(rhs), presolve=False)[0] == "QuasiOnly"


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
            assert oracles.mat_vec(mat, product) == tuple(rhs)

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

    def test_uniform_ternary_six_cycle_is_proper(self):
        # 729 joint outcomes: the largest bundled problem
        prob = load_problem_document(str(Path(__file__).resolve().parent.parent / "problems" / "uniform_ternary_6cycle.json"))
        assert prob.joint_size() == 3**6
        result = solve_problem(prob)
        assert result.status is Feasibility.PROPER
        assert all(type(v) is F and v >= 0 for v in result.witness)
        for subset, table in prob.constraints:
            assert table == (F(1, 9),) * 9
            assert joint_marginal(prob, result.witness, subset) == table

    def test_redundant_rows_never_change_the_answer(self):
        rng = random.Random(113)
        for _ in range(200):
            prob = random_problem(rng)
            rows, rhs = oracles.full_constraint_system(prob)
            retained = lp_feasible(RatMatrix.from_rows(rows), rhs)
            assert solve_problem(prob) == retained


class TestRationalize:
    def test_exact_passthrough(self):
        assert rationalize(F(3, 7)) == F(3, 7)
        assert rationalize(2) == F(2)

    def test_float_denominator_bound(self):
        r = rationalize(1 / 3)
        assert r.denominator <= 10**6
        assert abs(r - F(1, 3)) < F(1, 10**9)
