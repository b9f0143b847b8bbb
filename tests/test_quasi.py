import math
import random
from collections import Counter
from fractions import Fraction as F

import pytest

import oracles
from bellquasi import bellcheck, marginal_general, quasi, singlet
from bellquasi.bellcheck import bell_pair
from bellquasi.exactla import left_null_space, null_space, solve_consistent, tolerance
from bellquasi.marginal_general import (
    Feasibility,
    MarginalProblem,
    build_constraint_system,
    lp_feasible,
    solve_problem,
)
from bellquasi.quasi import (
    HOMOGENEOUS,
    bell_problem,
    build_matrix,
    check_consistency,
    classify,
    pseudoinverse_matrix,
    solve_family,
)
from bellquasi.singlet import CorrelationTriple, tables_from_correlations
from oracles import bell_marginals

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
        assert all(x == 0 for x in oracles.mat_vec(build_matrix(), HOMOGENEOUS))
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
            expected = all(oracles.dot(v, p) == 0 for v in basis)
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
        sol = solve_consistent(m, UNIFORM_P)
        assert oracles.remove_component(sol, HOMOGENEOUS) == solve_family(UNIFORM_P).x0

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
                assert oracles.mat_vec(m, fam.member(t)) == p

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


class TestClosedForm:
    """x0 comes from a closed form in the tables, not from pinv(M); on every
    consistent p the two must agree exactly."""

    def test_equals_pseudoinverse_on_images_of_signed_joint_vectors(self):
        m, pinv = build_matrix(), pseudoinverse_matrix()
        rng = random.Random(1801)
        for k in range(400):
            x = [F(rng.randint(-50, 50), rng.randint(1, 30)) for _ in range(8)]
            if k % 2 and sum(x):  # normalized, like every rhs the deciders take
                x = [v / sum(x) for v in x]
            p = oracles.mat_vec(m, x)
            assert tuple(v / 8 for v in quasi._scaled_x0(p)) == oracles.mat_vec(pinv, p)

    def test_closed_form_matrix_agrees_with_pseudoinverse_on_the_range(self):
        # L: the closed form applied to the unit rhs vectors, column by column
        columns = [quasi._scaled_x0([int(i == j) for i in range(10)]) for j in range(10)]
        closed = [[F(columns[j][i], 8) for j in range(10)] for i in range(8)]
        pinv = pseudoinverse_matrix()
        diff = [[closed[i][j] - pinv.entry(i, j) for j in range(10)] for i in range(8)]
        m = build_matrix()
        product = [[sum(diff[i][k] * m.entry(k, j) for k in range(10)) for j in range(8)] for i in range(8)]
        assert product == [[0] * 8 for _ in range(8)]
        assert diff != [[0] * 10 for _ in range(8)]  # off the range of M the two differ

    def test_float_x0_within_ulps_of_the_exact_pseudoinverse(self):
        # float singlet tables are exactly consistent as rationals, so the
        # exact pinv(M) p is the closed form's exact value
        pinv = pseudoinverse_matrix()
        rng = random.Random(1803)
        triples = [(-1.0, 1.0, -1.0), (0.0, 0.0, 0.0), (1 - 2**-53, -0.5, 2**-1074)]
        triples += [tuple(rng.uniform(-1, 1) for _ in range(3)) for _ in range(2000)]
        for u, v, w in triples:
            p = singlet._rhs(u, v, w, 1.0)
            exact = oracles.mat_vec(pinv, [F(e) for e in p])
            for got, want in zip(solve_family(p, 0).x0, exact):
                assert abs(got - float(want)) <= 2 * math.ulp(0.5), (u, v, w)


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
            pab, pac, pbc = oracles.reconstruct_marginals(verdict.witness)
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


class TestSharedCores:
    """``scan`` calls the private formulas behind ``classify`` and ``bell_pair``
    directly; they must give what the public deciders give, also on the
    inconsistent p vectors that a scan never builds."""

    EPS = [0, 1e-16, 1e-10, 1e-3]

    @staticmethod
    def triples(rng):
        # random triples, triples on the Bell boundary and just off it; each
        # exact and as floats
        exact = [oracles.random_rational_correlations(rng).as_tuple() for _ in range(40)]
        while len(exact) < 120:
            u, v = (F(rng.randint(-1000, 1000), 1000) for _ in range(2))
            w = v - (1 + u)  # the first inequality is tight
            if -1 <= w <= 1 and abs(v + w) <= 1 - u:
                exact.append((u, v, w))
                for d in (F(1, 10**16), F(1, 10**10), F(2, 10**10), F(1, 1000)):
                    exact += [(u, v, w + s * d) for s in (1, -1) if -1 <= w + s * d <= 1]
        for t in exact:
            yield CorrelationTriple(*t)
            yield CorrelationTriple(*(float(x) for x in t))

    @classmethod
    def p_vectors(cls, rng):
        # singlet rhs vectors, images of random joint vectors with some mass
        # moved below zero, and both perturbed out of consistency
        consistent = [corr.rhs for corr in cls.triples(rng)]
        for _ in range(40):
            x = list(oracles.random_rational_distribution(rng, 8))
            (i, j), shift = rng.sample(range(8), 2), F(rng.randint(0, 50), 100)
            x[i], x[j] = x[i] - shift, x[j] + shift
            p = oracles.mat_vec(build_matrix(), x)
            consistent += [p, tuple(float(v) for v in p[:9]) + (1.0,)]
        for p in consistent:
            yield p
            k = rng.randrange(9)
            for d in (F(1, 10**16), F(1, 10**10), F(1, 1000), F(1, 100)):
                bumped = list(p)
                bumped[k] += d if isinstance(p[k], F) else float(d)
                yield tuple(bumped)

    @pytest.mark.parametrize("eps", EPS)
    def test_verdict_path_matches_classify(self, eps):
        tags = set()
        for p in self.p_vectors(random.Random(1401)):
            tol = tolerance(p, eps)
            family = solve_family(p, tol)
            if family is None:
                tag = Feasibility.INCONSISTENT
            else:
                tag = Feasibility.PROPER if family.interval_nonempty(tol) else Feasibility.QUASI_ONLY
            assert tag is classify(p, eps).tag, p
            tags.add(tag)
        assert tags == set(Feasibility)

    @pytest.mark.parametrize("eps", EPS)
    def test_margin_and_rhs_match_the_public_functions(self, eps):
        for corr in self.triples(random.Random(1402)):
            u, v, w = corr.as_tuple()
            bell = bell_pair(corr, eps)
            sides = (bell.ineq1_lhs, bell.ineq1_rhs, bell.ineq2_lhs, bell.ineq2_rhs, bell.margin)
            assert bellcheck._inequalities(u, v, w) == sides
            margin = sides[4]
            exact = isinstance(u, F)
            p = singlet._rhs(u, v, w, F(1) if exact else 1.0)
            assert p == corr.rhs
            if exact:  # the two deciders agree exactly: Proper iff the margin is >= 0
                assert solve_family(p, 0).interval_nonempty(0) == (margin >= 0)


class TestIntegerNumerators:
    """An exact triple is put on one common denominator, and the rhs, the
    family, the Bell pair and the LP's tables come from its integer
    numerators; the Fraction-arithmetic formulas of the oracles must give
    the same values, and every exact value returned must be a Fraction."""

    @staticmethod
    def triples(rng):
        # denominators sharing factors (a common base times 1-12), unrelated
        # and large ones, the values 0 and +-1 (some as ints), and triples
        # with margin 0 (each of the two reduced inequalities tight)
        def value(den):
            r = rng.random()
            if r < 0.1:
                return rng.choice((-1, 0, 1))
            if r < 0.2:
                return F(rng.choice((-1, 0, 1)))
            return F(rng.randint(-den, den), den)

        for _ in range(1500):
            base = rng.choice((1, 2, 6, 12, 30, 210, 10**6, 2**40))
            yield tuple(value(base * rng.randint(1, 12)) for _ in range(3))
        for _ in range(250):
            den = rng.randint(1, 10**6)
            s = F(rng.randint(-den, den), 2 * den)
            yield 0, s + F(1, 2), s - F(1, 2)
            u = F(rng.randint(-den, den), den)
            yield u, (1 - u) / 2, (1 - u) / 2

    def test_exact_paths_equal_the_fraction_formulas(self):
        def fractions(values):
            return all(type(v) is F for v in values)

        seen = {"int": 0, "margin 0": 0, "Proper": 0, "QuasiOnly": 0}
        for t in self.triples(random.Random(1901)):
            corr = CorrelationTriple(*t)
            assert fractions(corr.as_tuple())
            assert all(c is v for c, v in zip(corr.as_tuple(), t) if type(v) is F)  # checked, not copied
            p = corr.rhs
            assert p == oracles.fraction_rhs(corr) and fractions(p), t
            family = solve_family(p)
            assert (family.x0, family.t_lo, family.t_hi) == oracles.fraction_family(p), t
            assert fractions(family.x0 + (family.t_lo, family.t_hi))
            bell = bell_pair(corr)
            fields = (bell.ineq1_lhs, bell.ineq1_rhs, bell.ineq2_lhs, bell.ineq2_rhs, bell.satisfied, bell.margin)
            assert fields == oracles.fraction_bell_pair(corr), t
            assert fractions(fields[:4] + fields[5:]) and type(bell.satisfied) is bool
            # the LP's tables: (1 + a b c)/4 for outcomes a, b, with c = -<BC>, <AC>, <AB>
            tables = [table for _, table in bell_problem(corr).constraints]
            ab, ac, bc = (F(v) for v in t)
            assert tables == [tuple((1 + a * b * c) / 4 for a in (1, -1) for b in (1, -1)) for c in (-bc, ac, ab)]
            assert all(fractions(table) for table in tables)
            seen["int"] += any(type(v) is int for v in t)
            seen["margin 0"] += bell.margin == 0
            seen[classify(p).tag.value] += 1
        assert min(seen.values()) >= 300, seen

    def test_one_residual_of_1e_12_is_inconsistent(self):
        # p[7], AB's +- entry, appears in the second consistency equation only
        p = list(CorrelationTriple(F(1, 3), F(-2, 7), F(5, 11)).rhs)
        p[7] += F(1, 10**12)
        assert check_consistency(p).residuals == (0, F(-1, 10**12), 0)
        assert solve_family(p) is None
        assert oracles.fraction_family(p) is None


class TestReconstructMarginals:
    def test_uniform_joint(self):
        pab, pac, pbc = oracles.reconstruct_marginals((F(1, 8),) * 8)
        for table in (pab, pac, pbc):
            assert table.as_tuple() == (F(1, 4),) * 4

    def test_point_mass(self):
        x = (1, 0, 0, 0, 0, 0, 0, 0)
        pab, pac, pbc = oracles.reconstruct_marginals(x)
        assert pab.pp == 1 and pac.pp == 1 and pbc.pp == 1

    def test_dropped_entries_complete_each_table(self):
        rng = random.Random(61)
        for _ in range(50):
            weights = [F(rng.randint(0, 9)) for _ in range(8)]
            total = sum(weights) or F(1)
            x = tuple(w / total for w in weights)
            for table in oracles.reconstruct_marginals(x):
                assert table.mm == 1 - (table.pp + table.pm + table.mp)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            oracles.reconstruct_marginals((F(1, 4),) * 8)


class TestBellProblemRegression:
    def test_generic_builder_reproduces_fixed_system(self):
        corr = CorrelationTriple(F(-1, 2), F(1, 2), F(-1, 2))
        mat, rhs = build_constraint_system(bell_problem(corr))
        assert mat == build_matrix()
        assert tuple(rhs) == tables_from_correlations(corr).p_vector


class TestCheckedTripleOnce:
    """A triple is scaled to integers and turned into its rhs once, and
    ``bell_problem`` stores an exact triple's tables without checking them
    again: the result must equal the problem the validating constructor
    builds, on every path downstream."""

    @staticmethod
    def validated(corr):
        p = corr.rhs
        return MarginalProblem(
            observables=(("A", 2), ("B", 2), ("C", 2)),
            constraints=((("B", "C"), p[0:3] + p[0:1]), (("A", "C"), p[3:6] + p[3:4]), (("A", "B"), p[6:9] + p[6:7])),
        )

    def test_unchecked_construction_equals_the_checked_one(self):
        rng = random.Random(2201)
        # every fourth triple of the exact panel (ints, 0 and +-1, margin 0), then floats
        exact = list(TestIntegerNumerators.triples(random.Random(2202)))[::4]
        floats = [tuple(rng.uniform(-1, 1) for _ in range(3)) for _ in range(100)]
        seen = {"int": 0, "zero cell": 0, "margin 0": 0, "float": 0}
        for t in exact + floats:
            corr = CorrelationTriple(*t)
            prob, want = bell_problem(corr), self.validated(corr)
            assert prob == want, t
            assert prob.observables == (("A", 2), ("B", 2), ("C", 2))
            assert all(type(v) is F for _, table in prob.constraints for v in table), t
            assert build_constraint_system(prob) == build_constraint_system(want), t
            assert solve_problem(prob) == solve_problem(want), t
            seen["int"] += any(type(v) is int for v in t)
            seen["zero cell"] += any(abs(v) == 1 for v in t)
            seen["margin 0"] += bell_pair(corr).margin == 0
            seen["float"] += type(t[0]) is float
        assert len(exact) >= 500 and min(seen.values()) >= 60, seen

    def test_triple_is_scaled_once(self, monkeypatch):
        calls = []
        over_lcm = singlet._over_lcm

        def counting(values):
            calls.append(tuple(values))
            return over_lcm(calls[-1])

        monkeypatch.setattr(singlet, "_over_lcm", counting)
        monkeypatch.setattr(bellcheck, "_over_lcm", counting, raising=False)  # in case the Bell pair scales its own
        corr = CorrelationTriple(F(1, 3), F(-2, 7), F(5, 11))
        tables_from_correlations(corr)
        bell_pair(corr)
        bell_problem(corr)
        assert calls == [corr.as_tuple()]

    def test_exact_bell_problem_is_not_checked_again(self, monkeypatch):
        checks = []
        check = marginal_general.check_distribution
        monkeypatch.setattr(marginal_general, "check_distribution", lambda *a: checks.append(a) or check(*a))
        bell_problem(CorrelationTriple(F(1, 3), F(-2, 7), F(5, 11)))
        assert checks == []
        bell_problem(CorrelationTriple(1 / 3, -2 / 7, 5 / 11))  # float tables are checked and rationalized
        assert len(checks) == 3

    def test_rhs_is_built_once(self):
        for corr in (CorrelationTriple(F(1, 3), F(-2, 7), F(5, 11)), CorrelationTriple(0.5, -0.25, 0.125)):
            assert tables_from_correlations(corr).p_vector is corr.rhs
            assert corr.rhs == oracles.fraction_rhs(corr)  # the floats are dyadic: exact


class TestKeptIntegers:
    """The family reads an exact rhs's kept integers (``exactla._Scaled``)
    instead of scaling its Fractions again: on the bench's sweep mix, margin
    0 and +-1e-10 triples included, it must return what the plain tuple gives."""

    def test_family_equals_the_plain_tuples(self):
        seen = Counter()
        for corr in oracles.sweep_triples(3201) + oracles.sweep_triples(3202):
            p = corr.rhs
            family = solve_family(p)
            assert family == solve_family(tuple(p)), corr
            assert all(type(v) is F for v in family.x0 + (family.t_lo, family.t_hi))
            verdict = classify(p)
            assert verdict == classify(tuple(p)), corr
            seen[verdict.tag] += 1
            seen["margin 0"] += bell_pair(corr).margin == 0
        assert seen[Feasibility.PROPER] >= 100 and seen[Feasibility.QUASI_ONLY] >= 100 and seen["margin 0"] == 6, seen


class TestPseudoinverseMatrix:
    def test_cached_and_exact(self):
        m = pseudoinverse_matrix()
        assert m is pseudoinverse_matrix()
        assert m.rows == 8 and m.cols == 10
        assert m.entry(0, 0) == F(1, 4)
