import math
import random
from fractions import Fraction as F

import oracles
from bellquasi import bellcheck, cli, quasi, singlet
from bellquasi.bellcheck import bell_pair
from bellquasi.quasi import solve_family
from bellquasi.singlet import CorrelationTriple, tables_from_correlations
from oracles import eight_inequalities


def printed_forms(u, v, w, c):
    """The eight scaled non-negativity conditions in their published order."""
    return (
        1 + u + v - w - c,
        1 + u - v + w + c,
        1 - u + v + w + c,
        1 - u - v - w - c,
        1 - u - v - w + c,
        1 - u + v + w - c,
        1 + u - v + w - c,
        1 + u + v - w + c,
    )


def feasible_for_some_c(corr) -> bool:
    fam = solve_family(tables_from_correlations(corr).p_vector)
    return fam is not None and fam.t_lo <= fam.t_hi


class TestEightInequalities:
    def test_uniform_case(self):
        values = eight_inequalities(CorrelationTriple(0, 0, 0), 0)
        assert values == (F(1),) * 8

    def test_canonical_violation_values(self):
        corr = CorrelationTriple(F(-1, 2), F(1, 2), F(-1, 2))
        values = eight_inequalities(corr, 0)
        assert values[0] == F(3, 2)
        assert values == printed_forms(F(-1, 2), F(1, 2), F(-1, 2), 0)
        # some value is negative no matter what c is chosen
        assert not feasible_for_some_c(corr)
        for c in [F(k, 10) for k in range(-40, 41)]:
            assert min(eight_inequalities(corr, c)) < 0

    def test_coincident_axes_feasible_for_some_c(self):
        corr = CorrelationTriple(-1, -1, -1)
        assert min(eight_inequalities(corr, 0)) >= 0
        assert feasible_for_some_c(corr)

    def test_flipped_third_correlation_never_feasible(self):
        # same axes but with the third correlation's sign convention undone:
        # infeasible for every c
        corr = CorrelationTriple(-1, -1, 1)
        assert not feasible_for_some_c(corr)
        for c in [F(k, 4) for k in range(-16, 17)]:
            assert min(eight_inequalities(corr, c)) < 0

    def test_matches_printed_forms_on_grid(self):
        steps = [F(k, 3) for k in range(-3, 4)]
        for u in steps:
            for v in steps:
                for w in steps:
                    for c in (F(0), F(1, 2), F(-5, 3)):
                        assert eight_inequalities(CorrelationTriple(u, v, w), c) == (
                            printed_forms(u, v, w, c)
                        )

    def test_zero_iff_family_member_component_zero(self):
        corr = CorrelationTriple(F(1, 3), F(-1, 4), F(1, 5))
        fam = solve_family(tables_from_correlations(corr).p_vector)
        c = F(2, 7)
        member = fam.member(c / 8)
        assert eight_inequalities(corr, c) == tuple(8 * x for x in member)


class TestBellPair:
    def test_canonical_violation(self):
        verdict = bell_pair(CorrelationTriple(F(-1, 2), F(1, 2), F(-1, 2)))
        assert (verdict.ineq1_lhs, verdict.ineq1_rhs) == (F(1, 2), F(1))
        assert not verdict.satisfied
        assert verdict.margin == F(-1, 2)

    def test_boundary_equalities(self):
        verdict = bell_pair(CorrelationTriple(0, 1, 0))
        assert verdict.ineq1_lhs == verdict.ineq1_rhs == 1
        assert verdict.ineq2_lhs == verdict.ineq2_rhs == 1
        assert verdict.satisfied
        assert verdict.margin == 0

    def test_uncorrelated(self):
        verdict = bell_pair(CorrelationTriple(0, 0, 0))
        assert verdict.satisfied
        assert verdict.margin == 1

    def test_reduction_forward(self):
        # all eight non-negative for some c implies the reduced pair holds
        rng = random.Random(67)
        for _ in range(300):
            corr = oracles.random_rational_correlations(rng, denominator=60)
            c = F(rng.randint(-8, 8), 4)
            if min(eight_inequalities(corr, c)) >= 0:
                assert bell_pair(corr).satisfied

    def test_reduction_converse_at_c_zero(self):
        # the reduced pair holding implies all eight non-negative at c = 0
        rng = random.Random(71)
        hits = 0
        for _ in range(300):
            corr = oracles.random_rational_correlations(rng, denominator=60)
            if bell_pair(corr).satisfied:
                hits += 1
                assert min(eight_inequalities(corr, 0)) >= 0
        assert hits > 50

    def test_symmetry_under_joint_sign_flip(self):
        rng = random.Random(73)
        for _ in range(200):
            corr = oracles.random_rational_correlations(rng, denominator=97)
            flipped = CorrelationTriple(corr.ab, -corr.ac, -corr.bc)
            assert bell_pair(corr).satisfied == bell_pair(flipped).satisfied
            assert bell_pair(corr).margin == bell_pair(flipped).margin

    def test_negating_ab_swaps_the_inequalities(self):
        rng = random.Random(79)
        for _ in range(200):
            corr = oracles.random_rational_correlations(rng, denominator=89)
            swapped = CorrelationTriple(-corr.ab, corr.ac, -corr.bc)
            a, b = bell_pair(corr), bell_pair(swapped)
            assert (a.ineq1_lhs, a.ineq1_rhs) == (b.ineq2_lhs, b.ineq2_rhs)
            assert (a.ineq2_lhs, a.ineq2_rhs) == (b.ineq1_lhs, b.ineq1_rhs)

    def test_perfect_anticorrelation_rigidity(self):
        # <AB> = -1 leaves no slack: feasibility forces <AC> = <BC>
        rng = random.Random(83)
        for _ in range(200):
            v = F(rng.randint(-20, 20), 20)
            w = F(rng.randint(-20, 20), 20)
            verdict = bell_pair(CorrelationTriple(-1, v, w))
            assert verdict.satisfied == (v == w)


class TestEquivalenceCheck:
    def test_canonical_violation_agrees(self):
        assert oracles.equivalence_check(CorrelationTriple(F(-1, 2), F(1, 2), F(-1, 2)))

    def test_uniform_agrees(self):
        assert oracles.equivalence_check(CorrelationTriple(0, 0, 0))

    def test_random_triples_agree(self):
        rng = random.Random(89)
        for _ in range(150):
            assert oracles.equivalence_check(oracles.random_rational_correlations(rng))

    def test_float_inputs_are_rationalized(self):
        assert oracles.equivalence_check(CorrelationTriple(-0.5, 0.5, -0.5))

    def test_boundary_cases_agree(self):
        for k in range(-5, 6):
            s = F(k, 10)
            assert oracles.equivalence_check(CorrelationTriple(0, s + F(1, 2), s - F(1, 2)))
            assert oracles.equivalence_check(CorrelationTriple(s, (1 - s) / 2, (1 - s) / 2))


def family_value(u, v, w, one):
    """4 * (t_hi - t_lo) as a scan cell's fallback computes it (at tolerance 0:
    the rhs of any triple in [-1, 1] is consistent, in floats too)."""
    family = quasi.solve_family(singlet._rhs(u, v, w, one), 0)
    assert family is not None, (u, v, w)
    return 4 * (family.t_hi - family.t_lo)


def float_gap(u, v, w):
    return abs(family_value(u, v, w, 1.0) - bellcheck._inequalities(u, v, w)[4])


class TestFamilyGap:
    # a scan cell decides from the Bell margin and consults the family only
    # within _FAMILY_GAP of -eps: the two values agree exactly on exact
    # input, and within that bound in floats

    def test_family_value_is_the_margin_in_exact_arithmetic(self):
        rng = random.Random(97)
        for k in range(2000):
            if k % 2:
                u, v, w = oracles.random_rational_correlations(rng).as_tuple()
            else:  # small denominators: many margins exactly 0
                u, v, w = (F(rng.randint(-4, 4), 4) for _ in range(3))
            assert family_value(u, v, w, F(1)) == bellcheck._inequalities(u, v, w)[4]

    def test_float_gap_within_bound_on_random_triples(self):
        rng = random.Random(101)
        edges = (-1.0, -1 + 2**-53, -0.5, -2**-1074, 0.0, 2**-1074, 1e-300, 0.5, 1 - 2**-53, 1.0)
        for u in edges:
            for v in edges:
                for w in edges:
                    assert float_gap(u, v, w) <= bellcheck._FAMILY_GAP
        for _ in range(50_000):
            u, v, w = (rng.uniform(-1, 1) for _ in range(3))
            assert float_gap(u, v, w) <= bellcheck._FAMILY_GAP

    def test_float_gap_within_bound_on_half_degree_grid(self):
        # the correlations of the scan's cells: <BC> from theta_ac - theta_ab
        corr = {k: singlet._checked_correlation(-math.cos(math.radians(k / 2))) for k in range(-719, 720)}
        for i in range(720):
            for j in range(720):
                assert float_gap(corr[i], corr[j], corr[j - i]) <= bellcheck._FAMILY_GAP


def count_family_calls(monkeypatch):
    calls = []
    family = quasi.solve_family

    def counting(p, eps):
        calls.append(p)
        return family(p, eps)

    monkeypatch.setattr(quasi, "solve_family", counting)
    return calls


class TestScanFilter:
    def test_no_family_call_at_default_eps(self, tmp_path, monkeypatch):
        # a whole-degree 60x60 window with margin-0 cells (theta_ab = 180,
        # theta_ac = 0 and theta_ac = theta_ab): none is near -1e-10
        calls = count_family_calls(monkeypatch)
        out_path = tmp_path / "scan.csv"
        assert cli.main(["scan", "--ab", "150:210:1", "--ac", "0:60:1", "--out", str(out_path)]) == 0
        rows = [line.split(",") for line in out_path.read_text().splitlines()[1:]]
        assert len(rows) == 3600 and sum(float(r[5]) == 0 for r in rows) > 60
        assert calls == []

    def test_family_called_once_per_margin_zero_cell_at_eps_0(self, monkeypatch):
        # at eps 0 the band is around 0: a cell consults the family exactly
        # when two of its axes are parallel or antiparallel (margin 0 in exact
        # arithmetic, printed as 0 or within a few ulps of it)
        calls = count_family_calls(monkeypatch)
        grid = cli._parse_range("0:360:15")
        consulted = []
        for line in cli._scan_rows(grid, grid, 0.0):
            row = line.split(",")
            theta_ab, theta_ac = float(row[0]), float(row[1])
            margin_zero = any(t % 180 == 0 for t in (theta_ab, theta_ac, theta_ac - theta_ab))
            consulted.append(margin_zero)
            assert len(calls) == sum(consulted), row
        assert len(consulted) == 576 and len(calls) == 136
