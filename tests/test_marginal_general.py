import importlib.util
import itertools
import json
import math
import random
import sys
from collections import Counter
from fractions import Fraction as F
from pathlib import Path
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bellquasi import exactla, marginal_general
from bellquasi.cli import load_problem_document
from bellquasi.exactla import RatMatrix, _pivot, rank
from bellquasi.marginal_general import (
    DENSE_SIZE_CAP,
    Feasibility,
    JOINT_SIZE_CAP,
    MarginalProblem,
    build_constraint_system,
    lp_feasible,
    rationalize,
    solve_problem,
)
from bellquasi.quasi import bell_problem, build_matrix, solve_family
from bellquasi.singlet import CorrelationTriple, tables_from_correlations

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
BENCH = Path(__file__).resolve().parent.parent / "bench"


def joint_marginal(prob: MarginalProblem, joint, subset):
    """Marginal of a flat joint table over the named subset (row-major)."""
    cards = prob.cardinalities()
    names = [name for name, _ in prob.observables]
    positions = [names.index(n) for n in subset]
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
        joint = oracles.product_distribution([(0.3, 0.7), (0.6, 0.4)])
        assert joint == pytest.approx((0.18, 0.12, 0.42, 0.28))

    def test_three_fair_coins(self):
        joint = oracles.product_distribution([(F(1, 2), F(1, 2))] * 3)
        assert joint == (F(1, 8),) * 8

    def test_degenerate_marginal(self):
        joint = oracles.product_distribution([(F(1), F(0)), (F(1, 2), F(1, 2))])
        assert joint == (F(1, 2), F(1, 2), F(0), F(0))

    def test_rejects_non_distribution(self):
        with pytest.raises(ValueError):
            oracles.product_distribution([(F(1, 2), F(1, 3))])

    def test_error_names_the_table_by_position(self):
        with pytest.raises(ValueError, match=r"^table 1 does not sum to 1$"):
            oracles.product_distribution([(F(1, 2), F(1, 2)), (F(1, 3000),) * 2000])

    @pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf], ids=repr)
    def test_rejects_non_finite_entry(self, entry):
        with pytest.raises(ValueError, match=r"^non-finite entry in table 1$"):
            oracles.product_distribution([(0.5, 0.5), (entry, 1.0)])

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
            joint = oracles.product_distribution(tables)
            for i, t in enumerate(tables):
                assert joint_marginal(prob, joint, (f"O{i}",)) == t

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(1, 9), min_size=2, max_size=4))
    def test_total_mass_one(self, weights):
        total = sum(weights)
        table = tuple(F(w, total) for w in weights)
        assert sum(oracles.product_distribution([table, table])) == 1


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

    def test_dense_size_cap(self):
        # rows x joint outcomes, checked after the tables: two uniform
        # tables over 1,000 x 1,000 outcomes (1,999 rows, about 2e9 entries)
        # are refused; the largest slow-panel document, 100 x 100 outcomes
        # (1.99e6 entries), and the uniform binary 12-cycle and ternary
        # 7-cycle are admitted.  None is solved.
        def two_tables(k):
            uniform = (F(1, k),) * k
            return MarginalProblem(observables=(("A", k), ("B", k)), constraints=((("A",), uniform), (("B",), uniform)))

        def cycle(n, k):
            names = [f"O{i}" for i in range(n)]
            pairs = tuple(((names[i], names[(i + 1) % n]), (F(1, k * k),) * (k * k)) for i in range(n))
            return MarginalProblem(observables=tuple((name, k) for name in names), constraints=pairs)

        with pytest.raises(ValueError, match=r"^constraint matrix of 1999 x 1000000 entries exceeds cap 10000000$"):
            two_tables(1000)
        with pytest.raises(ValueError, match=r"^negative entry in table of constraint 1$"):
            uniform, negative = (F(1, 1000),) * 1000, (2,) + (0,) * 998 + (-1,)
            MarginalProblem(observables=(("A", 1000), ("B", 1000)), constraints=((("A",), uniform), (("B",), negative)))
        assert two_tables(100).joint_size() * 199 == 1_990_000 <= DENSE_SIZE_CAP
        for n, k in ((12, 2), (7, 3)):
            assert cycle(n, k).joint_size() == k**n

    def test_elimination_size_cap(self):
        # the cap counts [A | I], rows x (joint outcomes + rows): one binary
        # table 3,160 times gives 3,161 x 3,163 entries, admitted, and 3,161
        # times 3,162 x 3,164, refused, though A alone has only 6,324 entries
        def copies(c):
            return MarginalProblem(observables=(("A", 2),), constraints=((("A",), (F(1, 2), F(1, 2))),) * c)

        assert 3161 * 3163 <= DENSE_SIZE_CAP < 3162 * 3164
        assert len(copies(3160).constraints) == 3160
        with pytest.raises(ValueError, match=r"^constraint matrix of 3162 x \(2 \+ 3162\) entries exceeds cap 10000000$"):
            copies(3161)


def shaped_problem(rng: random.Random, names, cards, shape) -> MarginalProblem:
    """Observables ``names`` of cardinalities ``cards``, one random exact
    table over the observables at each position tuple of ``shape``."""
    constraints = []
    for positions in shape:
        size = math.prod(cards[p] for p in positions)
        constraints.append((tuple(names[p] for p in positions), oracles.random_rational_distribution(rng, size)))
    return MarginalProblem(observables=tuple(zip(names, cards)), constraints=tuple(constraints))


def elimination_keys(systems, results) -> list:
    """The ``_eliminated`` keys that ``lp_feasible`` looks up, in call order:
    (mat, ()) for every LP, then (mat, the rows whose rhs is 0) for every LP
    that is not Inconsistent."""
    keys = []
    for (mat, rhs), result in zip(systems, results):
        keys.append((mat, ()))
        if result.status is not Feasibility.INCONSISTENT:
            keys.append((mat, tuple(i for i, v in enumerate(rhs) if v == 0)))
    return keys


def random_shape(rng: random.Random):
    cards = tuple(rng.randint(2, 3) for _ in range(rng.randint(1, 4)))
    shape = tuple(tuple(rng.sample(range(len(cards)), rng.randint(1, min(3, len(cards))))) for _ in range(rng.randint(0, 4)))
    return cards, shape


class TestStoredTables:
    def test_exact_tables_are_stored_as_the_sum_repair_rule_gives(self):
        # an exact table skips the sum repair (it already sums to 1), and is
        # stored exactly as the repair rule would store it, every entry a Fraction
        panel = []
        for path in sorted(PROBLEMS.glob("*.json")):
            doc = json.loads(path.read_text())
            raw = [tuple(F(v) for v in m["table"]) for m in doc["marginals"]]
            panel.append((load_problem_document(str(path)), raw))
        rng = random.Random(167)
        for _ in range(300):
            cards, shape = random_shape(rng)
            names = [f"O{i}" for i in range(len(cards))]
            raw = []
            for positions in shape:
                table = oracles.random_rational_distribution(rng, math.prod(cards[p] for p in positions))
                kind = rng.randrange(3)  # Fractions, whole entries as ints, or floats
                if kind == 1:
                    table = tuple(v.numerator if v.denominator == 1 else v for v in table)
                elif kind == 2:
                    table = tuple(float(v) for v in table)
                raw.append(table)
            constraints = tuple((tuple(names[p] for p in positions), t) for positions, t in zip(shape, raw))
            panel.append((MarginalProblem(observables=tuple(zip(names, cards)), constraints=constraints), raw))
        kinds = Counter()
        for prob, raw in panel:
            assert len(prob.constraints) == len(raw)
            for (_, stored), table in zip(prob.constraints, raw):
                assert stored == oracles.reference_rationalized_table(table)
                assert all(type(v) is F for v in stored)
                kinds[frozenset(type(v).__name__ for v in table)] += 1
        assert {frozenset({"Fraction"}), frozenset({"int"}), frozenset({"float"})} <= set(kinds), kinds
        assert kinds[frozenset({"int", "Fraction"})] >= 50, kinds

    def test_unrepairable_float_table_is_refused_by_constraint(self):
        # the table passes the float check at DEFAULT_EPS, but the repaired
        # table would be about 5e-4 away from it: refused, naming the table
        table = oracles.unrepairable_float_table()
        assert math.fsum(table) == 1
        assert min(oracles.reference_rationalized_table(table)) < 0
        observables = (("B", 2), ("A", len(table)))
        with pytest.raises(ValueError, match=r"^table of constraint 1: cannot rationalize: sum repair made an entry negative$"):
            MarginalProblem(observables=observables, constraints=((("B",), (0.5, 0.5)), (("A",), table)))


    @pytest.mark.parametrize("table", [(1e308, 1e308), (0.0, 1e308, 1e308), (sys.float_info.max,) * 2], ids=repr)
    def test_float_table_summing_past_the_float_range_is_refused_by_constraint(self, table):
        # finite, non-negative entries whose sum is past the float range: refused as
        # a table that does not sum to 1, by name, not by an OverflowError from fsum
        with pytest.raises(ValueError, match=r"^table 0 does not sum to 1$"):
            marginal_general.check_distribution(table, "table 0")
        observables = (("B", 2), ("A", len(table)))
        with pytest.raises(ValueError, match=r"^table of constraint 1 does not sum to 1$"):
            MarginalProblem(observables=observables, constraints=((("B",), (0.5, 0.5)), (("A",), table)))


class TestConstraintMatrixCache:
    def test_matches_the_full_system_without_each_tables_last_row(self):
        rng = random.Random(173)
        for _ in range(300):
            prob = shaped_problem(rng, [f"O{i}" for i in range(4)], *random_shape(rng))
            rows, rhs = oracles.full_constraint_system(prob)
            keep, start = [], 0
            for _, table in prob.constraints:
                keep += range(start, start + len(table) - 1)
                start += len(table)
            keep.append(start)  # the normalization row
            mat, kept = build_constraint_system(prob)
            assert [list(mat.row(i)) for i in range(mat.rows)] == [rows[i] for i in keep]
            assert kept == tuple(rhs[i] for i in keep)
            assert all(type(x) is int for x in mat.entries) and all(type(x) is F for x in kept)

    def test_one_matrix_per_shape(self):
        rng = random.Random(179)
        cards, shape = (2, 3, 2), ((0, 1), (2,), (1, 2))
        mat, rhs = build_constraint_system(shaped_problem(rng, "ABC", cards, shape))
        # other names and other tables, one shape: the same matrix object
        same, other_rhs = build_constraint_system(shaped_problem(rng, ("X", "Y", "Z"), cards, shape))
        assert same is mat and other_rhs != rhs
        for other_cards, other_shape in (
            (cards, ((2,), (0, 1), (1, 2))),  # constraint order
            (cards, ((1, 0), (2,), (1, 2))),  # observable order within a constraint
            ((2, 3, 3), shape),  # one cardinality
        ):
            other, _ = build_constraint_system(shaped_problem(rng, "ABC", other_cards, other_shape))
            assert other is not mat and other != mat

    def test_cache_hits_and_misses(self):
        # problems of two shapes, interleaved: each shape's matrix is built
        # once and eliminated in full once, each zero pattern is eliminated
        # once, and every answer is the cold-cache one
        rng = random.Random(181)
        shapes = (((3, 3, 3, 3), ((0, 1), (1, 2), (2, 3), (3, 0))), ((2, 2, 2), ((1, 2), (0, 2), (0, 1))))
        problems = []
        for i in range(24):
            cards, shape = shapes[i % 2]
            problems.append(shaped_problem(rng, [f"{'PQ'[i % 2]}{j}" for j in range(len(cards))], cards, shape))
        problems += [four_cycle_problem(rng, status) for status in Feasibility]
        marginal_general._constraint_matrix.cache_clear()
        marginal_general._eliminated.cache_clear()
        warm = [solve_problem(prob) for prob in problems]
        built, eliminated = marginal_general._constraint_matrix.cache_info(), marginal_general._eliminated.cache_info()
        assert (built.hits, built.misses) == (len(problems) - 2, 2)
        keys = elimination_keys([build_constraint_system(prob) for prob in problems], warm)
        assert len({mat for mat, zero in keys if not zero}) == 2 and len(set(keys)) <= 16
        assert (eliminated.hits, eliminated.misses) == (len(keys) - len(set(keys)), len(set(keys)))
        cold = []
        for prob in problems:
            marginal_general._constraint_matrix.cache_clear()
            marginal_general._eliminated.cache_clear()
            cold.append(solve_problem(prob))
        assert cold == warm
        assert len({result.status for result in warm}) == 3

    def test_matrix_hash_is_its_fields_hash(self):
        # the kept hash is the fields' hash: an equal matrix built elsewhere
        # finds the cached elimination
        mat, rhs = build_constraint_system(bell_problem(CorrelationTriple(0, 0, 0)))
        copy = RatMatrix(mat.rows, mat.cols, tuple(list(mat.entries)))
        assert hash(mat) == hash(copy) == hash((mat.rows, mat.cols, mat.entries))
        marginal_general._eliminated.cache_clear()
        lp_feasible(mat, rhs)
        assert lp_feasible(copy, rhs) == lp_feasible(mat, rhs)
        assert marginal_general._eliminated.cache_info().misses == 1


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

    @pytest.mark.parametrize("entry", [0.5, 1.0])
    def test_float_rhs_is_refused(self, entry):
        # the rhs is read as integer ratios: a float would enter as its binary value
        with pytest.raises(TypeError):
            lp_feasible(RatMatrix.from_rows([[1, 1], [1, 0]]), (F(1), entry))

    def test_rank_row_with_content_above_one(self):
        # a rank row whose A part has gcd 2 (its I part does not) and a rhs
        # entry sharing it: the simplex reads the row up to a positive factor
        result = lp_feasible(RatMatrix.from_rows([[2, 4]]), (F(2),))
        assert result == marginal_general.FeasibilityResult(Feasibility.PROPER, (F(1), F(0)), 1)

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
        for k in range(120):  # zero cells that force columns, yet the live ones pivot
            mat, rhs = build_constraint_system(assignment_mixture_problem(rng, twist=k % 2 == 1))
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
            if ref_steps and any(v == 0 and (min(row) >= 0 or max(row) <= 0) for row, v in zip(a, b)):
                seen["forced, pivoted", status] += 1  # the restricted tableau and its extra elimination
        assert seen["forced, pivoted", "Proper"] + seen["forced, pivoted", "QuasiOnly"] >= 50, seen
        assert min(seen.values()) >= 20, seen

    def test_bench_cycle_panel_matches_fraction_reference(self, monkeypatch, tmp_path):
        # the benchmark's binary 8-cycle and ternary 5-cycle, and the ternary
        # 4-cycle, all three verdicts, loaded as documents, with the
        # reference's status, witness, dimension and pivot count: by the
        # weighted rule, then by Bland's, forced from the first pivot, where
        # they take up to 89 pivots
        spec = importlib.util.spec_from_file_location("bench_ncycle", BENCH / "ncycle.py")
        ncycle = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, ncycle)  # its dataclass looks the module up
        spec.loader.exec_module(ncycle)
        steps = counting_pivots(monkeypatch)
        pivots = {}
        for run in (2, 0):
            monkeypatch.setattr(marginal_general, "_DEGENERATE_RUN", run)
            for n, k in ((8, 2), (5, 3), (4, 3)):
                for verdict in ncycle.VERDICTS:
                    problem = ncycle.generate(random.Random(f"panel-{n}-{k}-{verdict}-0"), n, k, verdict)
                    path = str(tmp_path / f"{n}-{k}-{verdict}.json")
                    problem.write(path)
                    mat, rhs = build_constraint_system(load_problem_document(path))
                    steps.clear()
                    result = lp_feasible(mat, rhs)
                    a = [list(mat.row(i)) for i in range(mat.rows)]
                    status, witness, hom_dim, ref_steps = oracles.reference_lp_feasible(a, list(rhs), run=run)
                    assert status == verdict, problem.label
                    assert result == marginal_general.FeasibilityResult(Feasibility(status), witness, hom_dim), problem.label
                    assert len(steps) == ref_steps, problem.label
                    pivots.setdefault(run, []).append(ref_steps)
        assert max(pivots[0]) >= 80 and max(pivots[2]) >= 20, pivots

    def test_bench_cycle_clique_lps_match_fraction_reference(self, monkeypatch, tmp_path):
        # the clique LP that solve_problem builds (its cover's matrix and rhs) for the
        # benchmark's binary 8-cycle and ternary 5-cycle documents, all three verdicts,
        # with the reference's status, solution, dimension and pivot count: by the
        # weighted rule, then by Bland's, forced from the first pivot
        ncycle = oracles.bench_module("ncycle")
        steps = counting_pivots(monkeypatch)
        solved = []

        def recording(mat, rhs):
            steps.clear()
            solved.append((mat, rhs, lp_feasible(mat, rhs), len(steps)))
            return solved[-1][2]

        monkeypatch.setattr(marginal_general, "lp_feasible", recording)
        seen = Counter()
        for run in (2, 0):
            monkeypatch.setattr(marginal_general, "_DEGENERATE_RUN", run)
            for n, k in ((8, 2), (5, 3)):
                for verdict in ncycle.VERDICTS:
                    problem = ncycle.generate(random.Random(f"panel-{n}-{k}-{verdict}-0"), n, k, verdict)
                    path = str(tmp_path / f"{n}-{k}-{verdict}.json")
                    problem.write(path)
                    prob = load_problem_document(path)
                    solved.clear()
                    assert solve_problem(prob).status.value == verdict, problem.label
                    [(mat, rhs, result, pivots)] = solved
                    assert mat is marginal_general._cover(*prob._shape)[2], problem.label
                    a = [list(mat.row(i)) for i in range(mat.rows)]
                    status, witness, hom_dim, ref_steps = oracles.reference_lp_feasible(a, list(rhs), run=run)
                    assert status == verdict, problem.label
                    assert result == marginal_general.FeasibilityResult(Feasibility(status), witness, hom_dim), problem.label
                    assert pivots == ref_steps, problem.label
                    seen[run, "pivoted"] += ref_steps > 0
        assert seen[2, "pivoted"] >= 3 and seen[0, "pivoted"] >= 3, seen

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


def assignment_mixture_problem(rng: random.Random, twist: bool, n: Optional[int] = None) -> MarginalProblem:
    """Pair tables on the edges of a binary ``n``-cycle (by default a random
    5- or 6-cycle), the marginals of a mixture of 2-4 assignments, so that
    most cells are 0.  With ``twist`` each assignment comes with its
    complement, at the same weight, so every single marginal is uniform,
    and the closing table pairs X(n-1) with the complement of X0: still
    consistent, but often QuasiOnly."""
    n = rng.randint(5, 6) if n is None else n
    weights = Counter()
    for _ in range(rng.randint(2, 4)):
        s, w = tuple(rng.randrange(2) for _ in range(n)), rng.randint(1, 97)
        for c in (0, 1) if twist else (0,):
            weights[tuple(v ^ c for v in s)] += w
    total = sum(weights.values())
    tables = [[F(0)] * 4 for _ in range(n)]
    for s, w in weights.items():
        for i in range(n):
            tables[i][2 * s[i] + (s[(i + 1) % n] ^ (twist and i == n - 1))] += F(w, total)
    names = [f"X{i}" for i in range(n)]
    return MarginalProblem(
        observables=tuple((name, 2) for name in names),
        constraints=tuple(((names[i], names[(i + 1) % n]), tuple(t)) for i, t in enumerate(tables)),
    )


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


def cycle_problem(k: int, tables) -> MarginalProblem:
    """Pair tables over (Xi, Xi+1 mod n) of n = len(tables) observables of cardinality ``k``."""
    names = [f"X{i}" for i in range(len(tables))]
    return MarginalProblem(
        observables=tuple((name, k) for name in names),
        constraints=tuple(((names[i], names[(i + 1) % len(names)]), tuple(t)) for i, t in enumerate(tables)),
    )


def degenerate_cycle_problem(rng: random.Random) -> MarginalProblem:
    """A binary 3- to 9-cycle or a ternary 3- to 5-cycle whose tables are
    uniform on their support: mostly the whole grid, else the cells b = pi(a)
    of one or two permutations pi, so that most rhs entries are equal or 0.
    Most are Proper, some QuasiOnly (the permutations compose to no fixed
    point) or Inconsistent (two permutations that agree somewhere)."""
    k = rng.choice((2, 2, 3))
    perms = list(itertools.permutations(range(k)))
    tables = []
    for _ in range(rng.randint(3, 9 if k == 2 else 5)):
        kind = rng.choice((0, 0, 0, 1, 2))  # the whole grid, or that many permutations
        cells = {(a, p[a]) for p in rng.sample(perms, kind) for a in range(k)} or set(itertools.product(range(k), repeat=2))
        tables.append([F(int((a, b) in cells), len(cells)) for a in range(k) for b in range(k)])
    return cycle_problem(k, tables)


class TestPricing:
    """The simplex enters by the reduced cost per unit of the column's norm
    in the starting tableau, and by Bland's rule after
    ``_DEGENERATE_RUN`` * (row count) consecutive degenerate pivots."""

    def test_forced_fallback_is_blands_rule_on_the_lp_panel(self, monkeypatch):
        # with the threshold at 0, every LP pivots by Bland's rule from the
        # start, as the reference does at run=0: the bundled
        # documents but the 729-column 6-cycle, every verdict of twelve
        # bench n-cycle shapes, and three exact_sweep rounds
        monkeypatch.setattr(marginal_general, "_DEGENERATE_RUN", 0)
        steps = counting_pivots(monkeypatch)
        ncycle = oracles.bench_module("ncycle")
        problems = [load_problem_document(str(path)) for path in sorted(PROBLEMS.glob("*.json")) if "6cycle" not in path.name]
        for n, k in [(n, 2) for n in range(3, 9)] + [(3, 3), (4, 3), (5, 3), (3, 4), (4, 4), (3, 5)]:
            for verdict in ncycle.VERDICTS:
                problems.append(cycle_problem(k, ncycle.generate(random.Random(f"fallback-{n}-{k}-{verdict}"), n, k, verdict).tables))
        problems += [bell_problem(corr) for seed in range(3) for corr in oracles.sweep_triples(seed)]
        seen = Counter()
        for prob in problems:
            mat, rhs = build_constraint_system(prob)
            steps.clear()
            result = lp_feasible(mat, rhs)
            a = [list(mat.row(i)) for i in range(mat.rows)]
            status, witness, hom_dim, ref_steps = oracles.reference_lp_feasible(a, list(rhs), run=0)
            assert result == marginal_general.FeasibilityResult(Feasibility(status), witness, hom_dim), prob
            assert len(steps) == ref_steps, prob
            seen[status] += 1
            seen["pivoted"] += ref_steps > 0
        assert len(problems) >= 1500 and min(seen.values()) >= 10, seen

    def test_degenerate_panel_terminates_with_blands_verdicts(self, monkeypatch):
        # cycles of uniform and permutation tables: most pivots leave a row
        # whose rhs is 0.  The default threshold, one that falls back to
        # Bland's rule mid-run (half a pivot per row) and Bland's rule from
        # the start all end, with one status and homogeneous dimension; the
        # witnesses of the first two are non-negative and solve the system
        # exactly, and where the mid-run fallback changed the path (up to 256
        # columns) it is the reference's, to the pivot, Bland's for the rest
        rng = random.Random(3101)
        steps = counting_pivots(monkeypatch)
        seen = Counter()
        for _ in range(200):
            mat, rhs = build_constraint_system(degenerate_cycle_problem(rng))
            a = [list(mat.row(i)) for i in range(mat.rows)]
            runs = {}
            for threshold in (2, 0.5, 0):
                monkeypatch.setattr(marginal_general, "_DEGENERATE_RUN", threshold)
                steps.clear()
                result = lp_feasible(mat, rhs)
                runs[threshold] = result, len(steps)
                if result.witness is not None and threshold:
                    assert min(result.witness) >= 0  # and A x = b, A being 0/1:
                    assert tuple(sum(itertools.compress(result.witness, row)) for row in a) == rhs
            assert len({(result.status, result.homogeneous_dim) for result, _ in runs.values()}) == 1, runs
            if runs[0.5][1] != runs[2][1] and mat.cols <= 256:
                status, witness, hom_dim, ref_steps = oracles.reference_lp_feasible(a, list(rhs), run=0.5)
                assert runs[0.5] == (marginal_general.FeasibilityResult(Feasibility(status), witness, hom_dim), ref_steps)
                seen["mid-run fallback changed the path"] += 1
            seen[runs[0][0].status] += 1
            seen["pivoted"] += runs[2][1] > 0
            seen["zero rhs"] += 0 in rhs
        assert min(seen.values()) >= 5 and seen["pivoted"] >= 80, seen

    def test_wall_lps_take_few_pivots(self, monkeypatch):
        # on their dense LPs (solve_problem takes their clique LPs), Bland's
        # rule takes 479 pivots on the uniform binary 10-cycle and 811 on the
        # bundled uniform ternary 6-cycle; the weighted rule 25 and 57
        steps = counting_pivots(monkeypatch)
        uniform = cycle_problem(2, [[F(1, 4)] * 4] * 10)
        six = load_problem_document(str(PROBLEMS / "uniform_ternary_6cycle.json"))
        for prob, bound in ((uniform, 40), (six, 100)):
            steps.clear()
            assert lp_feasible(*build_constraint_system(prob)).status is Feasibility.PROPER
            assert 0 < len(steps) <= bound, len(steps)

    def test_column_norm_past_the_float_range_still_prices(self):
        # the squared norm of column 2 is 2 * 10**308, past the largest
        # float: its weight once became 0.0, its score 0, and phase one
        # stopped with QuasiOnly on a system that x = (0, 0, 1/M) solves
        m = 10**154
        result = lp_feasible(RatMatrix(2, 3, (1, 0, -m, 0, 1, -m)), (-1, -1))
        assert result == marginal_general.FeasibilityResult(Feasibility.PROPER, (0, 0, F(1, m)), 1)
        # an entry whose quotient is past the float range
        assert lp_feasible(RatMatrix(1, 2, (1, 10**200)), (1,)).status is Feasibility.PROPER

    def test_positive_cost_past_the_float_range_hands_over_to_blands_rule(self, monkeypatch):
        # the row [a, -1, -2 | -1], a = 2**1100, is the integer RREF row and the one
        # artificial row; its reduced costs are (a, -1, -2): only the positive one is past
        # the float range, and it hands the run to Bland's rule, which enters column 1 as the
        # reference does at run=0.  The weighted rule would enter column 2 (score -2 against
        # -1, both weights 1 as float) and give the witness (0, 0, 1/2)
        steps = counting_pivots(monkeypatch)
        a = [[2**1100, -1, -2]]
        result = lp_feasible(RatMatrix.from_rows(a), (F(-1),))
        status, witness, hom_dim, ref_steps = oracles.reference_lp_feasible(a, [-1], run=0)
        assert result == marginal_general.FeasibilityResult(Feasibility(status), witness, hom_dim)
        assert witness == (0, 1, 0) and steps == [(0, 1)] and ref_steps == 1

    @pytest.mark.parametrize("bits", [100, 400, 520, 1100])
    def test_big_entry_lps_match_blands_reference(self, monkeypatch, bits):
        # seeded 3 x 6 integer LPs, half of them with rhs a x for some
        # x >= 0: the reference's status and dimension, and an exact witness.
        # From 400 bits on, an LP that pivots at all has a reduced cost past
        # the float range at its first pricing, so it runs by Bland's rule
        # throughout: the reference's at run=0, witness and pivot count included
        rng = random.Random(f"big-{bits}")
        steps = counting_pivots(monkeypatch)
        seen = Counter()
        for k in range(200):
            a = [[rng.randint(-(2**bits), 2**bits) for _ in range(6)] for _ in range(3)]
            if k % 2:
                x = [rng.randint(0, 3) for _ in range(6)]
                b = [sum(u * v for u, v in zip(row, x)) for row in a]
            else:
                b = [rng.randint(-(2**bits), 2**bits) for _ in range(3)]
            steps.clear()
            result = lp_feasible(RatMatrix.from_rows(a), [F(v) for v in b])
            status, witness, hom_dim, ref_steps = oracles.reference_lp_feasible(a, b, run=0)
            assert (result.status, result.homogeneous_dim) == (Feasibility(status), hom_dim), (a, b)
            if result.witness is not None:
                assert min(result.witness) >= 0
                assert [sum(u * v for u, v in zip(row, result.witness)) for row in a] == b
            if bits >= 400:
                assert (result.witness, len(steps)) == (witness, ref_steps), (a, b)
            seen[status] += 1
            seen["pivoted"] += ref_steps > 0
        assert min(seen["Proper"], seen["QuasiOnly"], seen["pivoted"]) >= 20, seen


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
        # the two full eliminations stay cached (every LP touches its own
        # first), so beyond them only each new zero pattern misses
        keys = elimination_keys(systems, [result for result, _ in warm])
        patterns = {key for key in keys if key[1]}
        assert {key for key in keys if not key[1]} == {(bell, ()), (cycle, ())} and patterns
        assert marginal_general._eliminated.cache_info().misses == 2 + len(patterns)
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

    def test_inconsistent_lp_is_decided_from_the_full_elimination(self):
        # an Inconsistent LP exits on the (mat, ()) entry, even with zero
        # cells: no zero-pattern miss, and its answer is the reference one
        rng = random.Random(197)
        marginal_general._eliminated.cache_clear()
        for calls in range(1, 11):
            mat, rhs = build_constraint_system(four_cycle_problem(rng, Feasibility.INCONSISTENT))
            assert 0 in rhs
            result = lp_feasible(mat, rhs)
            status, witness, hom_dim, _ = oracles.reference_lp_feasible([list(mat.row(i)) for i in range(mat.rows)], list(rhs))
            assert result == marginal_general.FeasibilityResult(Feasibility(status), witness, hom_dim)
            assert result.status is Feasibility.INCONSISTENT
            info = marginal_general._eliminated.cache_info()
            assert (info.hits, info.misses, info.currsize) == (calls - 1, 1, 1)
        # a consistent LP with zero cells then looks up its zero pattern too
        mat, rhs = build_constraint_system(four_cycle_problem(rng, Feasibility.PROPER))
        assert 0 in rhs and lp_feasible(mat, rhs).status is Feasibility.PROPER
        info = marginal_general._eliminated.cache_info()
        assert (info.hits, info.misses, info.currsize) == (10, 2, 2)

    def test_forced_lps_reuse_their_elimination(self, monkeypatch):
        # the live columns depend only on which rows have rhs 0, so
        # [A_live | I] is eliminated once per zero pattern: a second pass
        # over the Hardy box and zero-cell 6-cycle mixtures of one shape,
        # more than eight zero patterns, eliminates nothing, finds every
        # elimination in the one cache, and gives the reference answers
        rng = random.Random(193)
        problems = [hardy_box_problem()] + [assignment_mixture_problem(rng, twist=k % 2 == 1, n=6) for k in range(12)]
        systems = [build_constraint_system(prob) for prob in problems]
        patterns = {(mat, zero) for mat, rhs in systems if (zero := tuple(i for i, v in enumerate(rhs) if v == 0))}
        assert len({mat for mat, _ in systems}) == 2 and len(patterns) > 8
        calls, reduced = [], exactla._reduced

        def counted(a):
            calls.append(len(a))
            return reduced(a)

        monkeypatch.setattr(exactla, "_reduced", counted)
        monkeypatch.setattr(marginal_general, "_reduced", counted)
        marginal_general._eliminated.cache_clear()
        first = [lp_feasible(mat, rhs) for mat, rhs in systems]
        hits, misses = marginal_general._eliminated.cache_info()[:2]
        assert all(result.status is not Feasibility.INCONSISTENT for result in first)
        assert len(calls) == misses == 2 + len(patterns)
        calls.clear()
        assert [lp_feasible(mat, rhs) for mat, rhs in systems] == first
        assert calls == [] and marginal_general._eliminated.cache_info()[:2] == (hits + 2 * len(systems), misses)
        seen = Counter()
        for (mat, rhs), result in zip(systems, first):
            a = [list(mat.row(i)) for i in range(mat.rows)]
            status, witness, hom_dim, _ = oracles.reference_lp_feasible(a, list(rhs))
            assert result == marginal_general.FeasibilityResult(Feasibility(status), witness, hom_dim)
            seen[status] += 1
        assert seen["Proper"] >= 5 and seen["QuasiOnly"] >= 3, seen


def ghz_mermin_problem() -> MarginalProblem:
    """X and Y of three parties, parity even on XXX and odd on XYY, YXY and
    YYX, each table uniform over its allowed outcomes."""
    return MarginalProblem(
        observables=tuple((party + s, 2) for party in "ABC" for s in "XY"),
        constraints=tuple(
            (("A" + a, "B" + b, "C" + c), tuple(F(parity == sum(o) % 2, 4) for o in itertools.product(range(2), repeat=3)))
            for (a, b, c), parity in (("XXX", 0), ("XYY", 1), ("YXY", 1), ("YYX", 1))
        ),
    )


def hardy_box_problem() -> MarginalProblem:
    """Half a Popescu-Rohrlich box plus half the deterministic box 0000 on
    the four pairs (Ax, By)."""
    return MarginalProblem(
        observables=tuple((party + s, 2) for party in "AB" for s in "01"),
        constraints=tuple(
            ((f"A{x}", f"B{y}"), tuple(F((a ^ b) == x * y, 4) + F(a == b == 0, 2) for a in range(2) for b in range(2)))
            for x in range(2)
            for y in range(2)
        ),
    )


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
        # GHZ-Mermin: every joint outcome hits a zero cell.  Hardy: only the
        # all-0 outcome avoids every zero cell, and it cannot give the
        # tables.  Both are decided before any simplex pivot.
        steps = counting_pivots(monkeypatch)
        for prob, cols in ((ghz_mermin_problem(), 64), (hardy_box_problem(), 16)):
            mat, rhs = build_constraint_system(prob)
            assert mat.cols == cols
            steps.clear()
            result = lp_feasible(mat, rhs)
            assert result.status is Feasibility.QUASI_ONLY and result.witness is None
            assert steps == []
            a = [list(mat.row(i)) for i in range(mat.rows)]
            assert result.homogeneous_dim == oracles.reference_lp_feasible(a, list(rhs))[2]
            assert oracles.reference_lp_feasible(a, list(rhs), presolve=False)[0] == "QuasiOnly"


class TestBundledNonlocality:
    @pytest.mark.parametrize("name, build", [("ghz_mermin", ghz_mermin_problem), ("hardy_box", hardy_box_problem)])
    def test_documents_are_the_inline_problems(self, name, build):
        # the bundled documents hold the problems built inline above, and are
        # exactly what their stdlib script writes
        spec = importlib.util.spec_from_file_location("nonlocality", PROBLEMS / "nonlocality.py")
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        path = PROBLEMS / f"{name}.json"
        assert path.read_text() == script.render(script.DOCUMENTS[path.name]())
        assert load_problem_document(str(path)) == build()


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
            product = oracles.product_distribution(tables)
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
        # the dense LP with each table's last row kept gives the same answer,
        # witness included; solve_problem gives its status and dimension (a
        # problem whose cover has few columns is solved on its clique LP)
        rng = random.Random(113)
        for _ in range(200):
            prob = random_problem(rng)
            rows, rhs = oracles.full_constraint_system(prob)
            retained = lp_feasible(RatMatrix.from_rows(rows), rhs)
            assert lp_feasible(*build_constraint_system(prob)) == retained
            result = solve_problem(prob)
            assert (result.status, result.homogeneous_dim) == (retained.status, retained.homogeneous_dim)


class TestProblemRhs:
    """A problem keeps its rhs: built once from its tables, or handed over by
    ``bell_problem`` as the exact triple's rhs with the integers it keeps
    (``exactla._Scaled``), which the LP then reads instead of scaling it again."""

    def test_bell_lp_on_the_kept_integers_equals_the_plain_tuple_lp(self, monkeypatch):
        # same status, witness, homogeneous dimension and simplex pivot count
        steps = counting_pivots(monkeypatch)
        seen, pivots = Counter(), 0
        rng = random.Random(3301)
        panel = [oracles.random_rational_correlations(rng) for _ in range(100)]
        for corr in oracles.sweep_triples(3302) + panel:
            prob = bell_problem(corr)
            steps.clear()
            result = solve_problem(prob)
            kept = len(steps)
            mat, rhs = build_constraint_system(prob)
            assert type(rhs) is exactla._Scaled and rhs is corr.rhs
            steps.clear()
            assert result == lp_feasible(mat, tuple(rhs)), corr
            assert kept == len(steps), corr
            seen[result.status] += 1
            pivots += kept
        assert seen[Feasibility.PROPER] >= 100 and seen[Feasibility.QUASI_ONLY] >= 100 and pivots >= 100, (seen, pivots)

    def test_kept_rhs_equals_the_one_built_from_the_tables(self):
        rng = random.Random(3303)
        problems = [bell_problem(corr) for corr in oracles.sweep_triples(3304)]
        problems += [bell_problem(CorrelationTriple(*(rng.uniform(-1, 1) for _ in range(3)))) for _ in range(50)]
        problems += [random_problem(rng) for _ in range(50)]
        for prob in problems:
            built = MarginalProblem._rhs.func(prob)  # what the cached property builds from the tables
            assert prob._rhs == built and all(type(v) is F for v in built)
            assert built == tuple(v for _, table in prob.constraints for v in table[:-1]) + (1,)
            assert build_constraint_system(prob)[1] is prob._rhs  # built once, kept
            assert prob._shape == MarginalProblem._shape.func(prob)  # bell_problem's fixed key is the built one
            # the problem keeps its rhs and shape key only: the matrix stays in the shape cache
            assert sorted(vars(prob)) == ["_rhs", "_shape", "constraints", "observables"]


    def test_kept_integers_are_those_of_the_plain_values(self, monkeypatch):
        # every stored exact table, dense rhs, clique rhs and LP witness keeps its
        # _over_lcm form, which must be what _over_lcm computes from its plain values:
        # a stale one would change the verdict silently
        solved = []

        def recording(mat, rhs):
            result = lp_feasible(mat, rhs)
            solved.append((rhs, result.witness))
            return result

        def kept(x, what):
            assert type(x) is exactla._Scaled, what
            d, ints = x.ints
            assert (d, list(ints)) == exactla._over_lcm(tuple(x)), what
            seen[what] += 1

        monkeypatch.setattr(marginal_general, "lp_feasible", recording)
        ncycle = oracles.bench_module("ncycle")
        problems = [load_problem_document(str(path)) for path in sorted(PROBLEMS.glob("*.json"))]
        for n, k in [(n, 2) for n in range(3, 9)] + [(3, 3), (4, 3), (5, 3), (3, 4), (4, 4), (3, 5)]:
            for verdict in ncycle.VERDICTS:
                problems.append(cycle_problem(k, ncycle.generate(random.Random(f"kept-{n}-{k}-{verdict}"), n, k, verdict).tables))
        rng = random.Random(3601)
        for i in range(300):  # Fraction, int-and-Fraction and float tables
            prob = hypergraph_problem(rng, ("chain", "star", "cycle", "disjoint", "triples")[i % 5])
            tables = [table for _, table in prob.constraints]
            if i % 3 == 1:
                tables = [tuple(v.numerator if v.denominator == 1 else v for v in t) for t in tables]
            elif i % 3 == 2:
                tables = [tuple(map(float, t)) for t in tables]
            problems.append(MarginalProblem(prob.observables, tuple((subset, t) for (subset, _), t in zip(prob.constraints, tables))))
        seen = Counter()
        for prob in problems:
            for _, table in prob.constraints:
                kept(table, "table")
            kept(build_constraint_system(prob)[1], "dense rhs")
            solved.clear()
            solve_problem(prob)
            [(rhs, witness)] = solved
            kept(rhs, "clique rhs" if marginal_general._cover(*prob._shape) else "dense rhs")
            if witness is not None:
                kept(witness, "witness")
        assert min(seen.values()) >= 100, seen


def reproduces(prob: MarginalProblem, witness) -> bool:
    """Is ``witness`` a non-negative joint table whose marginals are exactly
    every table of ``prob``?  One pass over its support."""
    cards = prob.cardinalities()
    index = {name: i for i, (name, _) in enumerate(prob.observables)}
    if len(witness) != math.prod(cards) or min(witness) < 0:
        return False
    sums = [[0] * len(table) for _, table in prob.constraints]
    for w, outcome in zip(witness, itertools.product(*map(range, cards))):
        if w:
            for (subset, _), cells in zip(prob.constraints, sums):
                k = 0
                for name in subset:
                    k = k * cards[index[name]] + outcome[index[name]]
                cells[k] += w
    return all(tuple(cells) == table for cells, (_, table) in zip(sums, prob.constraints))


def panel_problems() -> list:
    """The LP panel: the bundled documents, three ``exact_sweep`` rounds and
    108 bench n-cycles (binary n = 3-8, ternary n = 3-5, k = 4 n = 3-4,
    k = 5 n = 3; every verdict; seeds 0-2)."""
    ncycle = oracles.bench_module("ncycle")
    problems = [load_problem_document(str(path)) for path in sorted(PROBLEMS.glob("*.json"))]
    problems += [bell_problem(corr) for seed in range(3) for corr in oracles.sweep_triples(seed)]
    for n, k in [(n, 2) for n in range(3, 9)] + [(3, 3), (4, 3), (5, 3), (3, 4), (4, 4), (3, 5)]:
        for verdict in ncycle.VERDICTS:
            problems += [cycle_problem(k, ncycle.generate(random.Random(seed), n, k, verdict).tables) for seed in range(3)]
    return problems


def hypergraph_problem(rng: random.Random, kind: str) -> MarginalProblem:
    """Tables on a seeded hypergraph of ``kind`` (chain, star, cycle, disjoint
    pairs with a table of X0 alone, or a cycle of three-observable tables), at most 729
    joint outcomes: the marginals of a mixture of assignments, each with its
    shifts by 1, 2, ... mod k (uniform single marginals), then one table's
    observable relabelled v -> v + 1 (twisted: often QuasiOnly), or mass moved
    inside one table (often Inconsistent), or neither."""
    k = rng.choice((2, 3))
    n = rng.randint(3, 8 if k == 2 else 6)
    cards = [k] * n if rng.random() < 0.7 else [rng.choice((2, 3)) for _ in range(n)]
    while math.prod(cards) > 729:
        cards[cards.index(3)] = 2
    shape = {
        "chain": [(i, i + 1) for i in range(n - 1)],
        "star": [(0, i) for i in range(1, n)],
        "cycle": [(i, (i + 1) % n) for i in range(n)],
        "disjoint": [(0,)] + [tuple(range(i, min(i + 2, n))) for i in range(0, n, 2)],
        "triples": [(i, (i + 1) % n, (i + 2) % n) for i in range(0, n - 1, 2)],
    }[kind]
    weights = Counter()
    for _ in range(rng.randint(1, 4)):
        s, w = [rng.randrange(c) for c in cards], rng.randint(1, 97)
        for j in range(max(cards)):
            weights[tuple((v + j) % c for v, c in zip(s, cards))] += w
    total = sum(weights.values())
    tables = [[F(0)] * math.prod(cards[p] for p in positions) for positions in shape]
    change, t = rng.choice(("none", "twist", "move")), rng.randrange(len(shape))
    for outcome, w in weights.items():
        for i, positions in enumerate(shape):
            values = [outcome[p] for p in positions]
            if change == "twist" and i == t:
                values[-1] = (values[-1] + 1) % cards[positions[-1]]
            cell = 0
            for p, v in zip(positions, values):
                cell = cell * cards[p] + v
            tables[i][cell] += F(w, total)
    if change == "move":
        table = tables[t]
        src = max(range(len(table)), key=lambda c: table[c])
        dst = (src + len(table) // cards[shape[t][0]]) % len(table)  # the next value of the table's first observable
        moved = table[src] / 2
        table[src] -= moved
        table[dst] += moved
    names = [f"X{i}" for i in range(n)]
    return MarginalProblem(
        observables=tuple(zip(names, cards)),
        constraints=tuple((tuple(names[p] for p in positions), tuple(table)) for positions, table in zip(shape, tables)),
    )


class TestChordalCover:
    """``solve_problem`` decides a problem whose chordal cover has fewer than
    half as many clique outcomes as joint outcomes on the clique LP, and
    glues its witness; every other problem keeps the dense LP."""

    def test_one_clique_cover_is_the_dense_matrix(self):
        rng = random.Random(3501)
        shapes = [load_problem_document(str(path))._shape for path in sorted(PROBLEMS.glob("*.json"))]
        shapes += [random_shape(rng) for _ in range(300)]
        for cards, shape in shapes:
            one = marginal_general._clique_matrix(cards, shape, (tuple(range(len(cards))),), (tuple(range(len(shape))),), ())
            assert one == marginal_general._constraint_matrix(cards, shape), (cards, shape)

    def test_covers_of_the_bundled_and_bench_shapes(self):
        # the Bell triple, the bundled documents, criterion 3's sweep and
        # every ncycle_small shape keep the dense LP; the ncycle_large shapes
        # and the 6-cycle take n - 2 triangles
        ncycle = oracles.bench_module("ncycle")
        cycles = {(n, k): cycle_problem(k, ncycle.generate(random.Random(0), n, k, "Proper").tables) for n, k in ((4, 2), (6, 2), (4, 3), (8, 2), (5, 3))}
        dense = [load_problem_document(str(path)) for path in sorted(PROBLEMS.glob("*.json")) if "6cycle" not in path.name]
        for prob in dense + [cycles[4, 2], cycles[6, 2], cycles[4, 3]]:
            assert marginal_general._cover(*prob._shape) is None, prob._shape
        six = load_problem_document(str(PROBLEMS / "uniform_ternary_6cycle.json"))
        for prob, cols in ((cycles[8, 2], 48), (cycles[5, 3], 81), (six, 108)):
            cliques, held, mat, _, _ = marginal_general._cover(*prob._shape)
            n = len(prob.observables)
            assert len(cliques) == n - 2 and {len(c) for c in cliques} == {3}
            assert mat.cols == cols and sorted(t for tables in held for t in tables) == list(range(n))
        # least fill eliminates a star's leaves before its centre, wherever the centre sits
        for centre in (0, 6):
            shape = tuple((centre, leaf) for leaf in range(7) if leaf != centre)
            assert sorted(marginal_general._cover((2,) * 7, shape)[0]) == sorted(tuple(sorted(t)) for t in shape)
        # one cached lookup per problem of a shape already seen, none other
        marginal_general._cover.cache_clear()
        for corr in oracles.sweep_triples(3501)[:50]:
            solve_problem(bell_problem(corr))
        assert marginal_general._cover.cache_info()[:2] == (49, 1)

    def test_verdicts_and_dimensions_match_the_dense_lp_on_the_panel(self):
        seen = Counter()
        for prob in panel_problems():
            result, dense = solve_problem(prob), lp_feasible(*build_constraint_system(prob))
            assert (result.status, result.homogeneous_dim) == (dense.status, dense.homogeneous_dim), prob._shape
            assert (result.witness is None) == (dense.witness is None)
            if result.witness is not None:
                assert reproduces(prob, result.witness), prob._shape
            seen[marginal_general._cover(*prob._shape) is not None, result.status] += 1
        assert len(seen) == 6 and seen[True, Feasibility.PROPER] >= 10, seen

    @pytest.mark.parametrize("kind", ["chain", "star", "cycle", "disjoint", "triples"])
    def test_verdicts_and_dimensions_match_the_dense_lp_on_hypergraphs(self, kind):
        # and every glued witness is non-negative and gives every table exactly
        rng = random.Random(f"hypergraph-{kind}")
        seen = Counter()
        for _ in range(80):
            prob = hypergraph_problem(rng, kind)
            result, dense = solve_problem(prob), lp_feasible(*build_constraint_system(prob))
            assert (result.status, result.homogeneous_dim) == (dense.status, dense.homogeneous_dim), prob
            if result.witness is not None:
                assert all(type(v) is F for v in result.witness) and reproduces(prob, result.witness), prob
            seen[marginal_general._cover(*prob._shape) is not None, result.status] += 1
        clique = {status for on_cover, status in seen if on_cover}
        assert clique >= {Feasibility.PROPER, Feasibility.INCONSISTENT} and seen[True, Feasibility.PROPER] >= 5, seen
        if kind in ("cycle", "triples"):  # a twisted chain, star or forest is still Proper
            assert seen[True, Feasibility.QUASI_ONLY] >= 3, seen

    def test_dimension_formula_is_the_rank_on_the_panel_shapes(self):
        rng = random.Random(3502)
        shapes = {prob._shape for prob in panel_problems()}
        shapes |= {hypergraph_problem(rng, kind)._shape for kind in ("chain", "star", "cycle", "disjoint", "triples") for _ in range(6)}
        shapes |= {random_shape(rng) for _ in range(100)}
        for cards, shape in shapes:
            mat = marginal_general._constraint_matrix(cards, shape)
            assert marginal_general._homogeneous_dim(cards, shape) == mat.cols - rank(mat), (cards, shape)

    def test_glued_witness_is_zero_off_the_separator_support(self):
        # a chain whose middle observable never takes its last value: every
        # joint outcome with it is 0, and the witness still gives every table
        k = 3
        tables = [[F(int(b < k - 1), k * (k - 1)) for a in range(k) for b in range(k)]]
        tables.append([F(int(a < k - 1), k * (k - 1)) for a in range(k) for b in range(k)])
        names = ("A", "B", "C", "D")
        prob = MarginalProblem(
            observables=tuple((name, k) for name in names),
            constraints=((("A", "B"), tuple(tables[0])), (("B", "C"), tuple(tables[1])), (("C", "D"), tuple([F(1, k * k)] * k * k))),
        )
        assert marginal_general._cover(*prob._shape) is not None
        result = solve_problem(prob)
        assert result.status is Feasibility.PROPER and reproduces(prob, result.witness)
        for w, outcome in zip(result.witness, itertools.product(range(k), repeat=4)):
            assert w == 0 or outcome[1] < k - 1


class TestRationalize:
    def test_exact_passthrough(self):
        assert rationalize(F(3, 7)) == F(3, 7)
        assert rationalize(2) == F(2)

    def test_float_denominator_bound(self):
        r = rationalize(1 / 3)
        assert r.denominator <= 10**6
        assert abs(r - F(1, 3)) < F(1, 10**9)


IDENTITY = RatMatrix.from_rows([[1, 0], [0, 1]])


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(lambda: RatMatrix(2, 2, (1, 2, 3)), ValueError, r"^entry count 3 != rows\*cols = 4$", id="entry-count"),
        pytest.param(lambda: RatMatrix.from_rows([[1, 2], [3]]), ValueError, r"^ragged rows$", id="ragged-rows"),
        pytest.param(lambda: exactla.solve_consistent(IDENTITY, (F(1),)), ValueError, r"^rhs length 1 != rows 2$", id="solve-rhs"),
        pytest.param(lambda: lp_feasible(IDENTITY, (F(1),)), ValueError, r"^rhs length 1 != rows 2$", id="lp-rhs"),
        pytest.param(lambda: rationalize("1/2"), TypeError, r"^cannot rationalize str$", id="rationalize-str"),
        pytest.param(lambda: MarginalProblem((), ()), ValueError, r"^at least one observable required$", id="no-observables"),
        pytest.param(lambda: solve_family((F(1, 8),) * 8 + (F(1),)), ValueError, r"^p must have 10 entries, got 9$", id="short-p"),
    ],
)
def test_malformed_arguments_are_refused(call, error, message):
    # each refusal that no other test reaches, with its message
    with pytest.raises(error, match=message):
        call()
