import random
from fractions import Fraction as F

import pytest

import oracles
from bellquasi.bellcheck import bell_pair
from bellquasi.exactla import RatVector, left_null_space, null_space, solve_consistent
from bellquasi.marginal_general import Feasibility, build_constraint_system, lp_feasible
from bellquasi.quasi import (
    HOMOGENEOUS,
    bell_problem,
    build_matrix,
    check_consistency,
    classify,
    pseudoinverse_matrix,
    reconstruct_marginals,
    solve_family,
)
from bellquasi.singlet import CorrelationTriple, bell_marginals, tables_from_correlations

UNIFORM_P = tuple([F(1, 4)] * 9 + [F(1)])


def exact_singlet_p(u, v, w):
    return tables_from_correlations(CorrelationTriple(u, v, w)).p_vector


class TestBuildMatrix:
    def test_first_and_last_rows(self):
        m = build_matrix()
        assert m.rows == 10 and m.cols == 8
        assert [int(x) for x in m.row(0)] == [1, 0, 0, 0, 1, 0, 0, 0]
        assert [int(x) for x in m.row(9)] == [1] * 8

    def test_middle_blocks(self):
        m = build_matrix()
        assert [int(x) for x in m.row(3)] == [1, 0, 1, 0, 0, 0, 0, 0]
        assert [int(x) for x in m.row(6)] == [1, 1, 0, 0, 0, 0, 0, 0]

    def test_rank(self):
        from bellquasi.exactla import rank

        assert rank(build_matrix()) == 7

    def test_kernel_is_homogeneous_direction(self):
        assert build_matrix().apply(list(HOMOGENEOUS)).is_zero()
        assert len(null_space(build_matrix())) == 1


class TestCheckConsistency:
    def test_singlet_marginals_pass(self):
        rng = random.Random(41)
        for _ in range(200):
            p = bell_marginals(*oracles.random_direction_triple(rng)).p_vector
            report = check_consistency(p)
            assert report.ok
            assert max(abs(r) for r in report.residuals) < 1e-12

    def test_perturbed_first_entry_fails(self):
        p = list(UNIFORM_P)
        p[0] = p[0] + F(1, 10)
        report = check_consistency(tuple(p))
        assert not report.ok
        assert report.residuals[0] == F(1, 10)

    def test_uniform_passes(self):
        assert check_consistency(UNIFORM_P).ok

    def test_agrees_with_left_null_orthogonality(self):
        m = build_matrix()
        basis = left_null_space(m)
        rng = random.Random(43)
        for _ in range(200):
            p = [F(rng.randint(0, 8), 8) for _ in range(9)] + [F(1)]
            expected = all(v.dot(RatVector(tuple(p))) == 0 for v in basis)
            assert check_consistency(tuple(p)).ok is expected

    def test_requires_normalized_last_entry(self):
        with pytest.raises(ValueError):
            check_consistency(tuple([F(1, 4)] * 10))


class TestSolveFamily:
    def test_uniform_marginals(self):
        fam = solve_family(UNIFORM_P)
        assert fam.x0 == (F(1, 8),) * 8
        assert (fam.t_lo, fam.t_hi) == (F(-1, 8), F(1, 8))

    def test_uniform_x0_matches_independent_solve(self):
        # project the elimination solver's answer onto the kernel complement
        m = build_matrix()
        p = RatVector(UNIFORM_P)
        sol = solve_consistent(m, p)
        kernel = RatVector(tuple(F(h) for h in HOMOGENEOUS))
        coeff = sol.dot(kernel) / kernel.dot(kernel)
        assert tuple(sol - kernel.scaled(coeff)) == solve_family(UNIFORM_P).x0

    def test_coincident_axes_contains_deterministic_mixture(self):
        p = exact_singlet_p(-1, -1, -1)
        fam = solve_family(p)
        assert fam is not None
        # half (+,-,-), half (-,+,+): the anticorrelated point mixture
        mixture = (0, 0, 0, F(1, 2), F(1, 2), 0, 0, 0)
        t = (mixture[0] - fam.x0[0]) / HOMOGENEOUS[0]
        assert fam.member(t) == mixture
        assert fam.t_lo <= t <= fam.t_hi
        mat, rhs = build_constraint_system(bell_problem(CorrelationTriple(-1, -1, -1)))
        assert lp_feasible(mat, rhs).status is Feasibility.PROPER

    def test_inconsistent_p_returns_none(self):
        p = list(UNIFORM_P)
        p[0] = p[0] + F(1, 10)
        assert solve_family(tuple(p)) is None

    def test_marginals_invariant_along_family(self):
        m = build_matrix()
        rng = random.Random(47)
        for _ in range(50):
            p = exact_singlet_p(
                F(rng.randint(-8, 8), 8), F(rng.randint(-8, 8), 8), F(rng.randint(-8, 8), 8)
            )
            fam = solve_family(p)
            for t in (F(0), F(1, 3), F(-2, 7), fam.t_lo, fam.t_hi):
                assert tuple(m.apply(fam.member(t))) == p

    def test_minimum_norm_orthogonal_to_kernel(self):
        rng = random.Random(53)
        for _ in range(50):
            p = exact_singlet_p(
                F(rng.randint(-9, 9), 9), F(rng.randint(-9, 9), 9), F(rng.randint(-9, 9), 9)
            )
            x0 = solve_family(p).x0
            assert sum(x * h for x, h in zip(x0, HOMOGENEOUS)) == 0

    def test_float_mode_close_to_exact(self):
        corr = CorrelationTriple(-0.5, 0.5, -0.5)
        fam = solve_family(tables_from_correlations(corr).p_vector)
        exact = solve_family(exact_singlet_p(F(-1, 2), F(1, 2), F(-1, 2)))
        for a, b in zip(fam.x0, exact.x0):
            assert a == pytest.approx(float(b), abs=1e-12)

    def test_float_mode_family_invariants(self):
        rng = random.Random(97)
        m = build_matrix()
        for _ in range(100):
            p = bell_marginals(*oracles.random_direction_triple(rng)).p_vector
            fam = solve_family(p)
            residual = [float(sum(float(e) * x for e, x in zip(m.row(i), fam.x0))) - p[i] for i in range(10)]
            assert max(abs(r) for r in residual) < 1e-10
            assert sum(fam.x0) == pytest.approx(1.0, abs=1e-10)
            assert abs(sum(x * h for x, h in zip(fam.x0, HOMOGENEOUS))) < 1e-10

    def test_kernel_direction_sums_to_zero(self):
        assert sum(HOMOGENEOUS) == 0


class TestClassify:
    def test_canonical_violation(self):
        verdict = classify(exact_singlet_p(F(-1, 2), F(1, 2), F(-1, 2)))
        assert verdict.tag is Feasibility.QUASI_ONLY
        assert verdict.witness is None

    def test_boundary_configuration_is_proper(self):
        verdict = classify(exact_singlet_p(0, 1, 0))
        assert verdict.tag is Feasibility.PROPER
        assert all(x >= 0 for x in verdict.witness)

    def test_uniform_witness(self):
        verdict = classify(UNIFORM_P)
        assert verdict.tag is Feasibility.PROPER
        assert verdict.witness == (F(1, 8),) * 8

    def test_inconsistent_tag(self):
        p = list(UNIFORM_P)
        p[3] = p[3] + F(1, 5)
        assert classify(tuple(p)).tag is Feasibility.INCONSISTENT

    def test_witness_prefers_minimum_norm_point(self):
        # proper configuration with 0 inside the interval: witness is x0
        p = exact_singlet_p(F(-1, 4), F(1, 4), F(-1, 4))
        fam = solve_family(p)
        assert fam.t_lo < 0 < fam.t_hi
        assert classify(p).witness == fam.x0

    def test_witness_reproduces_marginals(self):
        rng = random.Random(59)
        seen_proper = 0
        for _ in range(100):
            p = exact_singlet_p(
                F(rng.randint(-6, 6), 12), F(rng.randint(-6, 6), 12), F(rng.randint(-6, 6), 12)
            )
            verdict = classify(p)
            if verdict.tag is not Feasibility.PROPER:
                continue
            seen_proper += 1
            pab, pac, pbc = reconstruct_marginals(verdict.witness)
            assert (pbc.pp, pbc.pm, pbc.mp) == (p[0], p[1], p[2])
            assert (pac.pp, pac.pm, pac.mp) == (p[3], p[4], p[5])
            assert (pab.pp, pab.pm, pab.mp) == (p[6], p[7], p[8])
        assert seen_proper > 10

    @pytest.mark.parametrize("gap", [2e-10, 5e-11])
    def test_float_tolerance_on_the_bell_margin_scale(self, gap):
        # margin -gap: below -DEFAULT_EPS the interval decider and bell_pair
        # must both reject, above it both accept
        corr = CorrelationTriple(0.0, 0.5, -0.5 - gap)
        tag = classify(tables_from_correlations(corr).p_vector).tag
        bell = bell_pair(corr)
        assert bell.margin == pytest.approx(-gap, rel=1e-3)
        assert tag is (Feasibility.QUASI_ONLY if gap > 1e-10 else Feasibility.PROPER)
        assert bell.satisfied is (tag is Feasibility.PROPER)


class TestReconstructMarginals:
    def test_uniform_joint(self):
        pab, pac, pbc = reconstruct_marginals((F(1, 8),) * 8)
        for table in (pab, pac, pbc):
            assert table.as_tuple() == (F(1, 4),) * 4

    def test_point_mass(self):
        x = (1, 0, 0, 0, 0, 0, 0, 0)
        pab, pac, pbc = reconstruct_marginals(x)
        assert pab.pp == 1 and pac.pp == 1 and pbc.pp == 1

    def test_dropped_entries_complete_each_table(self):
        rng = random.Random(61)
        for _ in range(50):
            weights = [F(rng.randint(0, 9)) for _ in range(8)]
            total = sum(weights) or F(1)
            x = tuple(w / total for w in weights)
            for table in reconstruct_marginals(x):
                assert table.mm == 1 - (table.pp + table.pm + table.mp)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            reconstruct_marginals((F(1, 4),) * 8)


class TestBellProblemRegression:
    def test_generic_builder_reproduces_fixed_system(self):
        corr = CorrelationTriple(F(-1, 2), F(1, 2), F(-1, 2))
        mat, rhs = build_constraint_system(bell_problem(corr))
        assert mat == build_matrix()
        assert tuple(rhs) == tables_from_correlations(corr).p_vector


class TestPseudoinverseMatrix:
    def test_cached_and_exact(self):
        m = pseudoinverse_matrix()
        assert m is pseudoinverse_matrix()
        assert m.rows == 8 and m.cols == 10
        assert m.entry(0, 0) == F(1, 4)
