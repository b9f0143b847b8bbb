"""Independent reference computations used by the test suite.

Nothing here calls into the package's closed-form table builders or the
pseudoinverse pipeline: pair probabilities come from an explicit 4x4
projector computation on the singlet state, and family feasibility can be
brute-forced by sweeping the free parameter.  LP feasibility is decided
by enumerating basic solutions with a separate Fraction elimination.
That elimination, and the ``reference_*`` functions built on it, are the
all-``Fraction`` Gauss-Jordan step and phase-one simplex that the package
replaced with integer rows; they make the same choices, so the package
must return the same values and take the same pivots.
The ``fraction_*`` formulas are the singlet rhs, family and Bell pair
written on ``Fraction`` arithmetic, entry by entry, as the package
computed them before it moved exact triples onto integer numerators over
one common denominator.
Keeping these independent is the point; do not "simplify" them to reuse
package code.  The exceptions are the five test helpers at the end,
``bell_marginals`` (the package's pair tables for three axes),
``product_distribution`` (the package's table check, then a product),
``eight_inequalities`` (the package's exact pseudoinverse, which
``paper-check`` diffs against its published entries, applied in place of
the family's closed form), ``equivalence_check``, which runs the
package's three deciders on one input to compare them, and
``reference_scan_rows``, the scan's cell loop as it was when each cell
called the Bell pair's private formula, ``min`` and ``cli._fmt``.
``sweep_triples`` loads the benchmark's own exact-sweep inputs, and
``criterion_3_triples`` builds the 10,000 inputs of acceptance criterion 3.
"""

from __future__ import annotations

import importlib
import itertools
import math
import random
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np

from bellquasi import bellcheck, cli, quasi, singlet
from bellquasi.bellcheck import bell_pair
from bellquasi.exactla import tolerance
from bellquasi.marginal_general import Feasibility, check_distribution, rationalize, solve_problem
from bellquasi.quasi import HOMOGENEOUS, bell_problem, pseudoinverse_matrix, solve_family
from bellquasi.singlet import (
    BellMarginals,
    CorrelationTriple,
    Direction,
    PairTable,
    correlations,
    tables_from_correlations,
)

_I2 = np.eye(2, dtype=complex)
_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)

#: Joint outcomes of (A, B, C) in the package's index order, entries in {+1, -1}.
OUTCOMES = tuple((a, b, c) for a in (1, -1) for b in (1, -1) for c in (1, -1))

#: Singlet state in the z product basis (|00>, |01>, |10>, |11>).
SINGLET_STATE = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)


def spin_operator(direction: Direction) -> np.ndarray:
    return direction.x * _SX + direction.y * _SY + direction.z * _SZ


def spin_projector(direction: Direction, outcome: int) -> np.ndarray:
    """Projector onto the +/- eigenspace of the spin along ``direction``."""
    return (_I2 + outcome * spin_operator(direction)) / 2


def joint_probability(axis1: Direction, a: int, axis2: Direction, b: int) -> float:
    """P(outcome a along axis1 on particle 1, outcome b along axis2 on
    particle 2) for the singlet, straight from the projector formula."""
    op = np.kron(spin_projector(axis1, a), spin_projector(axis2, b))
    return float(np.real(SINGLET_STATE.conj() @ op @ SINGLET_STATE))


def flipped_joint_probability(beta: Direction, b: int, gamma: Direction, c: int) -> float:
    """P(B = b, C = c) in the solved-for joint's convention, where the
    B reading is the negation of the particle-1 measurement."""
    return joint_probability(beta, -b, gamma, c)


def product_expectation(u: Direction, v: Direction) -> float:
    """<(u.sigma x v.sigma)> on the singlet via the projector decomposition."""
    return sum(
        a * b * joint_probability(u, a, v, b) for a in (1, -1) for b in (1, -1)
    )


def family_grid_infeasible(x0, points: int = 100_001, span: float = 1.0) -> bool:
    """Brute-force check that x0 + t*xh has a negative component for every
    t on a dense symmetric grid (complements the interval algebra)."""
    for k in range(points):
        t = -span + 2 * span * k / (points - 1)
        if all(x + t * h >= 0 for x, h in zip(x0, HOMOGENEOUS)):
            return False
    return True


def reconstruct_marginals(x):
    """Pair marginals (AB, AC, BC) implied by a joint vector over
    ``OUTCOMES``, including the (-, -) entries that the stacked rhs drops
    as redundant; the vector must sum to 1 within ``tolerance(x)``."""
    if len(x) != 8:
        raise ValueError(f"joint vector must have 8 entries, got {len(x)}")
    total = sum(x)
    if abs(total - 1) > tolerance(x):
        raise ValueError(f"joint vector sums to {total}, not 1")

    def table(i, j):
        def cell(vi, vj):
            return sum(x[k] for k, o in enumerate(OUTCOMES) if o[i] == vi and o[j] == vj)

        return PairTable(pp=cell(1, 1), pm=cell(1, -1), mp=cell(-1, 1), mm=cell(-1, -1))

    return table(0, 1), table(0, 2), table(1, 2)


def random_direction(rng: random.Random) -> Direction:
    while True:
        x, y, z = (rng.gauss(0, 1) for _ in range(3))
        if x * x + y * y + z * z > 1e-12:
            return Direction(x, y, z)


def random_direction_triple(rng: random.Random):
    return random_direction(rng), random_direction(rng), random_direction(rng)


def random_rational_correlations(rng: random.Random, denominator: int = 10**6) -> CorrelationTriple:
    """Uniform exact-rational correlations; not necessarily realizable by
    axes, which is fine for the linear feasibility machinery."""
    return CorrelationTriple(
        *(Fraction(rng.randint(-denominator, denominator), denominator) for _ in range(3))
    )


def fraction_rhs(corr: CorrelationTriple) -> tuple:
    """The singlet rhs (BC, AC, AB entries ++, +-, -+, then 1) in Fraction
    arithmetic: (1 + corr)/4 for equal outcomes and (1 - corr)/4 for
    different ones, with <BC>'s sign flipped."""
    ab, ac, bc = (Fraction(v) for v in corr.as_tuple())
    entries = []
    for c in (-bc, ac, ab):
        entries += [(1 + c) / 4, (1 - c) / 4, (1 - c) / 4]
    return tuple(entries) + (Fraction(1),)


def fraction_family(p):
    """(x0, t_lo, t_hi) for an exact rhs p in Fraction arithmetic, or None
    unless all three consistency residuals are 0.  x0(a, b, c) is half the
    sum of the three pair-table entries, less a quarter of the three single
    marginals (each the average over the two tables that contain it), plus
    1/8; t_lo and t_hi bound t in x0 + t * HOMOGENEOUS >= 0."""
    p = [Fraction(v) for v in p]
    if (p[0] + p[1]) - (p[6] + p[8]) or (p[3] + p[4]) - (p[6] + p[7]) or (p[0] + p[2]) - (p[3] + p[5]):
        return None
    bc, ac, ab = ({(1, 1): p[k], (1, -1): p[k + 1], (-1, 1): p[k + 2], (-1, -1): 1 - p[k] - p[k + 1] - p[k + 2]}
                  for k in (0, 3, 6))

    def single(table, i, s):
        return sum(v for o, v in table.items() if o[i] == s)

    x0 = tuple(
        (ab[a, b] + ac[a, c] + bc[b, c]) / 2
        - ((single(ab, 0, a) + single(ac, 0, a)) / 2
           + (single(ab, 1, b) + single(bc, 0, b)) / 2
           + (single(ac, 1, c) + single(bc, 1, c)) / 2) / 4
        + Fraction(1, 8)
        for a, b, c in OUTCOMES
    )
    t_lo = max(-x for x, h in zip(x0, HOMOGENEOUS) if h == 1)
    t_hi = min(x for x, h in zip(x0, HOMOGENEOUS) if h == -1)
    return x0, t_lo, t_hi


def fraction_bell_pair(corr: CorrelationTriple) -> tuple:
    """(1 + <AB>, |<AC> - <BC>|, 1 - <AB>, |<AC> + <BC>|, satisfied, margin)
    in Fraction arithmetic: the fields of ``bell_pair`` in their order."""
    u, v, w = (Fraction(x) for x in corr.as_tuple())
    lhs1, rhs1, lhs2, rhs2 = 1 + u, abs(v - w), 1 - u, abs(v + w)
    margin = min(lhs1 - rhs1, lhs2 - rhs2)
    return lhs1, rhs1, lhs2, rhs2, margin >= 0, margin


def random_rational_distribution(rng: random.Random, size: int, max_weight: int = 9):
    """Exact random distribution: integer weights normalized by their sum."""
    while True:
        weights = [rng.randint(0, max_weight) for _ in range(size)]
        total = sum(weights)
        if total:
            return tuple(Fraction(w, total) for w in weights)


def identity(n):
    """Rows of the n x n identity matrix."""
    return [[int(i == j) for j in range(n)] for i in range(n)]


def mat_vec(m, v):
    """Exact product of a RatMatrix ``m`` (row-major ``entries``) with ``v``."""
    assert len(v) == m.cols
    return tuple(dot(m.entries[i * m.cols : (i + 1) * m.cols], v) for i in range(m.rows))


def dot(u, v):
    assert len(u) == len(v)
    return sum((Fraction(a) * b for a, b in zip(u, v)), Fraction(0))


def remove_component(v, direction):
    """``v`` minus its orthogonal projection onto ``direction``, exact."""
    coeff = dot(v, direction) / dot(direction, direction)
    return tuple(a - coeff * d for a, d in zip(v, direction))


def full_constraint_system(prob):
    """(rows, rhs) of "joint sums = prescribed entries" for a MarginalProblem,
    one 0/1 row per entry of every table (none dropped as redundant), then
    the all-ones normalization row; joint outcomes in row-major order."""
    names = [name for name, _ in prob.observables]
    outcomes = list(itertools.product(*(range(c) for _, c in prob.observables)))
    rows, rhs = [], []
    for subset, table in prob.constraints:
        positions = [names.index(name) for name in subset]
        grid = itertools.product(*(range(prob.observables[p][1]) for p in positions))
        for combo, entry in zip(grid, table):
            rows.append([int(tuple(o[p] for p in positions) == combo) for o in outcomes])
            rhs.append(Fraction(entry))
    return rows + [[1] * len(outcomes)], rhs + [Fraction(1)]


def reference_rationalized_table(table):
    """The stored form of a checked table, by the sum-repair rule: every
    entry made exact (a float to its nearest fraction with denominator at
    most 10**6), then the largest entry, the first of equals, moved by the
    gap so that the total is exactly 1.  An exact table has no gap."""
    approx = [Fraction(v).limit_denominator(10**6) if isinstance(v, float) else Fraction(v) for v in table]
    gap = 1 - sum(approx)
    if gap != 0:
        k = max(range(len(approx)), key=lambda i: approx[i])
        approx[k] += gap
    return tuple(approx)


def unrepairable_float_table():
    """A float table whose ``math.fsum`` is exactly 1 but whose sum repair
    fails: each of its 1,000 entries of 5.01e-7 rationalizes to 1/10**6, so
    the rationalized sum is 4.99e-4 above 1, more than its largest entry
    (19/39920, about 4.76e-4) can give up."""
    return [5.01e-7] * 1000 + [0.0004759519047619048] * 2100


def _fraction_pivot(rows, r, c):
    """One Gauss-Jordan step on Fraction rows, in place: scale row ``r`` so
    entry ``c`` is 1, then clear column ``c`` in every other row."""
    head = rows[r][c]
    rows[r] = [v / head for v in rows[r]]
    for i in range(len(rows)):
        f = rows[i][c]
        if i != r and f != 0:
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]


def _row_reduce(rows):
    """Gauss-Jordan elimination of Fraction rows in place, written out here
    rather than borrowed from the package; returns the pivot columns."""
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        k = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        _fraction_pivot(rows, r, c)
        pivots.append(c)
    return pivots


def lp_oracle(a, b):
    """(verdict, homogeneous dimension) of {x : a x = b, x >= 0} by brute force.

    ``a`` is a list of rows and ``b`` the rhs, both exact.  Inconsistent when
    appending ``b`` raises the rank.  Otherwise Proper exactly when some
    column subset of at most rank(a) columns carries a non-negative solution
    (free variables at 0): if any x >= 0 exists, a basic one does.
    """
    n = len(a[0])
    rank_a = len(_row_reduce([[Fraction(v) for v in row] for row in a]))
    hom_dim = n - rank_a
    if len(_row_reduce([[Fraction(v) for v in row] + [Fraction(bi)] for row, bi in zip(a, b)])) > rank_a:
        return "Inconsistent", hom_dim
    for size in range(rank_a + 1):
        for cols in itertools.combinations(range(n), size):
            rows = [[Fraction(row[j]) for j in cols] + [Fraction(bi)] for row, bi in zip(a, b)]
            pivots = _row_reduce(rows)
            if pivots and pivots[-1] == size:
                continue  # no solution supported on these columns
            if all(rows[k][size] >= 0 for k in range(len(pivots))):
                return "Proper", hom_dim
    return "QuasiOnly", hom_dim


def random_lp_system(rng: random.Random):
    """Small integer system (a, b): entries in -2..2, at most 5 rows by 6
    columns, a few random rows plus duplicated or summed ones, in shuffled
    order.  The rhs is a x for a point x with entries in -1..2, so it is
    often negative; a derived row's rhs is sometimes bumped by 1, which
    makes the system inconsistent."""
    n = rng.randint(1, 6)
    a = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(1, 4))]
    base = len(a)
    while len(a) < 5 and rng.random() < 0.6:
        row = [u + v for u, v in zip(rng.choice(a), rng.choice(a))]
        a.append(row if all(abs(v) <= 2 for v in row) else list(rng.choice(a)))
    x = [rng.randint(-1, 2) for _ in range(n)]
    b = [sum(u * v for u, v in zip(row, x)) for row in a]
    if len(a) > base and rng.random() < 0.3:
        b[-1] += rng.choice((-1, 1))
    order = list(range(len(a)))
    rng.shuffle(order)
    return [a[i] for i in order], [b[i] for i in order]


def _fraction_rows(a):
    return [[Fraction(v) for v in row] for row in a]


def reference_rref(a):
    """(RREF rows, pivot columns) of the rows ``a``, in Fractions."""
    rows = _fraction_rows(a)
    return rows, _row_reduce(rows)


def reference_null_space(a, ncols):
    """Null-space basis of ``a`` (``ncols`` columns), one vector per free
    column, each scaled to coprime integers with a positive first entry."""
    rows, pivots = reference_rref(a)
    basis = []
    for free in (j for j in range(ncols) if j not in pivots):
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for k, c in enumerate(pivots):
            vec[c] = -rows[k][free]
        scale = math.lcm(*(v.denominator for v in vec))
        ints = [int(v * scale) for v in vec]
        g = math.gcd(*ints)
        sign = 1 if next(v for v in ints if v) > 0 else -1
        basis.append([Fraction(sign * v // g) for v in ints])
    return basis


def _matmul(x, y):
    return [[sum((u * v for u, v in zip(row, col)), Fraction(0)) for col in zip(*y)] for row in x]


def _transpose(x):
    return [list(col) for col in zip(*x)]


def _inverse(x):
    n = len(x)
    rows = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(x)]
    _row_reduce(rows)
    return [row[n:] for row in rows]


def reference_pseudoinverse(a, ncols):
    """Moore-Penrose pseudoinverse of the rows ``a`` by the full-rank
    factorization a = F G: Gt (G Gt)^-1 (Ft F)^-1 Ft.  This was the
    package's own algorithm before it solved the stacked normal equations
    in one integer elimination; it is kept here as the independent
    reference."""
    rows, pivots = reference_rref(a)
    if not pivots:
        return [[Fraction(0)] * len(a) for _ in range(ncols)]
    f = [[Fraction(row[c]) for c in pivots] for row in a]
    g = rows[: len(pivots)]
    gt, ft = _transpose(g), _transpose(f)
    return _matmul(_matmul(_matmul(gt, _inverse(_matmul(g, gt))), _inverse(_matmul(ft, f))), ft)


def reference_phase_one_simplex(rows, pivots, n, run=2):
    """(feasible point or None, simplex pivots): the phase-one simplex on the
    Fraction RREF rows of a consistent [A | b], started from their pivot
    basis, an artificial (label only) on each row with negative rhs, and the
    reduced-cost row minus the sum of those rows.  The leaving row is the
    least ratio, ties to the lowest basic label.  The entering column has the
    least float(reduced cost) times 1 / sqrt(1 + the sum of the float
    squares of its column in the given RREF rows), lowest index on ties,
    until ``run`` * m pivots in a row (m rows) have left a row whose rhs is
    0; from then on it is the first of negative reduced cost (Bland's rule),
    so ``run=0`` is Bland's rule throughout."""
    m, basis, steps = len(rows), list(pivots), 0
    weights = []
    for j in range(n):
        total = 1.0
        for i in range(m):
            total += float(rows[i][j]) ** 2
        weights.append(1 / math.sqrt(total))
    degenerate, limit = 0, run * m
    for i, row in enumerate(rows):
        if row[n] < 0:
            rows[i], basis[i] = [-x for x in row], n + i
    rows.append([-sum(rows[i][j] for i in range(m) if basis[i] >= n) for j in range(n + 1)])
    while True:
        if degenerate < limit:
            scores = [float(c) * w for c, w in zip(rows[m], weights)]
            enter = scores.index(min(scores)) if min(scores) < 0 else None
        else:
            enter = next((j for j in range(n) if rows[m][j] < 0), None)
        if enter is None:
            break
        leave = best = None
        for i in range(m):
            coeff = rows[i][enter]
            if coeff > 0:
                ratio = rows[i][n] / coeff
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        if degenerate < limit:
            degenerate = degenerate + 1 if best == 0 else 0
        _fraction_pivot(rows, leave, enter)
        basis[leave] = enter
        steps += 1
    if rows[m][n] != 0:
        return None, steps
    x = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = rows[i][n]
    return x, steps


def reference_lp_feasible(a, b, presolve=True, run=2):
    """(verdict, witness or None, homogeneous dimension, simplex pivots) of
    {x : a x = b, x >= 0}: one Fraction RREF of [a | b] decides consistency
    and the homogeneous dimension, then the reference phase-one simplex runs,
    with its entering rule's ``run``, on the nonzero rows of an RREF.  With
    ``presolve``, a row with b_i = 0 whose entries share one sign forces its
    support to 0 in every x >= 0: that RREF is then of [a_S | b] over the
    other columns S (a pivot in its rhs column means QuasiOnly, with no
    simplex pivot), and the witness is 0 off S.  Without it, the RREF is the
    one of [a | b]."""
    n = len(a[0])
    rows = [row + [Fraction(bi)] for row, bi in zip(_fraction_rows(a), b)]
    pivots = _row_reduce(rows)
    if pivots and pivots[-1] == n:
        return "Inconsistent", None, n - (len(pivots) - 1), 0
    hom_dim, live = n - len(pivots), list(range(n))
    if presolve:
        one_signed = [
            row for row, bi in zip(a, b) if bi == 0 and (all(v >= 0 for v in row) or all(v <= 0 for v in row))
        ]
        live = [j for j in range(n) if all(row[j] == 0 for row in one_signed)]
        rows = [[Fraction(row[j]) for j in live] + [Fraction(bi)] for row, bi in zip(a, b)]
        pivots = _row_reduce(rows)
        if pivots and pivots[-1] == len(live):
            return "QuasiOnly", None, hom_dim, 0
    x_live, steps = reference_phase_one_simplex(rows[: len(pivots)], pivots, len(live), run)
    if x_live is None:
        return "QuasiOnly", None, hom_dim, steps
    x = [Fraction(0)] * n
    for j, v in zip(live, x_live):
        x[j] = v
    return "Proper", tuple(x), hom_dim, steps


def random_rational_matrix(rng: random.Random):
    """Small rational matrix as a list of rows: entries p/q with |p| <= 6 and
    q <= 5 (about a third zero), at most 5 rows by 6 columns, sometimes a
    zero row, a row that sums two others, or a leading zero in the first
    row, so that eliminations meet negative pivots, zero rows and swaps."""
    nrows, ncols = rng.randint(1, 5), rng.randint(1, 6)
    a = [
        [Fraction(rng.randint(-6, 6), rng.randint(1, 5)) if rng.random() < 0.7 else Fraction(0) for _ in range(ncols)]
        for _ in range(nrows)
    ]
    if nrows > 2 and rng.random() < 0.4:
        a[rng.randrange(nrows)] = [u + v for u, v in zip(a[0], a[1])]
    if rng.random() < 0.3:
        a[rng.randrange(nrows)] = [Fraction(0)] * ncols
    if rng.random() < 0.5:
        a[0][0] = Fraction(0)
    return a


def bell_marginals(alpha: Direction, beta: Direction, gamma: Direction) -> BellMarginals:
    """Quantum-mechanical pair marginals for three measurement axes."""
    return tables_from_correlations(correlations(alpha, beta, gamma))


def product_distribution(singles):
    """Joint product distribution of independent single-observable tables.

    Output is flattened with the first table's index slowest; its marginals
    equal the inputs (exactly, for rational inputs).
    """
    if not singles:
        raise ValueError("need at least one table")
    for i, table in enumerate(singles):
        check_distribution(table, f"table {i}")
    joint = [1]
    for table in singles:
        joint = [x * p for x in joint for p in table]
    return tuple(joint)


def eight_inequalities(corr: CorrelationTriple, c) -> tuple:
    """Left-hand sides of the eight scaled non-negativity conditions.

    Output order follows the joint outcomes (+++, ++-, ..., ---); entry k
    is 8*x0[k] + c*xh[k], which is >= 0 exactly when the family member at
    parameter t = c/8 has a non-negative k-th component.  x0 is the
    particular solution pinv(M) p, not the family's closed form, and no
    formula in the correlations is hard-coded, so the c scaling cannot
    silently drift.  Exact for rational correlations and c.
    """
    x0 = mat_vec(pseudoinverse_matrix(), corr.rhs)
    return tuple(8 * x + c * h for x, h in zip(x0, HOMOGENEOUS))


def equivalence_check(corr: CorrelationTriple) -> bool:
    """Do the three independent deciders agree on this configuration?

    The deciders: the reduced inequality pair, non-emptiness of the family
    parameter interval, and exact LP feasibility of the full marginal
    problem.  Float correlations are rationalized (bounded denominator)
    first so all three run exactly on identical inputs.
    """
    exact = CorrelationTriple(*(rationalize(v) for v in corr.as_tuple()))
    bell_ok = bell_pair(exact).satisfied
    family = solve_family(exact.rhs)
    interval_ok = family is not None and family.interval_nonempty()
    lp_ok = solve_problem(bell_problem(exact)).status is Feasibility.PROPER
    return bell_ok == interval_ok == lp_ok


def reference_scan_rows(ab: tuple[float, float, int], ac: tuple[float, float, int], eps: float):
    """``cli._scan_rows`` with the margin from ``bellcheck._inequalities``
    and every float printed by ``cli._fmt``: the package's scan must yield
    the same lines, so its inline copy of the margin keeps the same float
    operations in the same order."""
    inner = list(cli._axis(*ac))
    proper_from = math.nextafter(-eps + bellcheck._FAMILY_GAP, math.inf)
    quasi_below = math.nextafter(-eps - bellcheck._FAMILY_GAP, -math.inf)
    proper, quasi_only = Feasibility.PROPER.value, Feasibility.QUASI_ONLY.value

    @lru_cache(maxsize=2 * len(inner))
    def bc(difference: float) -> tuple[float, str]:
        w = singlet._checked_correlation(-math.cos(math.radians(difference)))
        return w, cli._fmt(w)

    for theta_ab, u, fmt_ab, fmt_u in cli._axis(*ab):
        for theta_ac, v, fmt_ac, fmt_v in inner:
            w, fmt_w = bc(theta_ac - theta_ab)
            margin = bellcheck._inequalities(u, v, w)[4]
            if margin >= proper_from:
                tag = proper
            elif margin < quasi_below:
                tag = quasi_only
            else:
                tag = proper if quasi.solve_family(singlet._rhs(u, v, w, 1.0), eps).interval_nonempty(eps) else quasi_only
            yield f"{fmt_ab},{fmt_ac},{fmt_u},{fmt_v},{fmt_w},{cli._fmt(margin)},{tag}\n"


BENCH = Path(__file__).resolve().parent.parent / "bench"


def bench_module(name: str):
    """``bench/<name>.py``, imported as the bench scripts import each other: with ``bench/`` on the path."""
    if str(BENCH) not in sys.path:
        sys.path.append(str(BENCH))
    return importlib.import_module(name)


def sweep_triples(seed: int) -> list[CorrelationTriple]:
    """The ``exact_sweep`` round of ``bench/workloads.py`` for ``seed``: 495
    rationalized direction triples, 3 with margin exactly 0 and 2 with
    margin exactly +-1e-10, in the acceptance-criterion-3 mix."""
    workloads = bench_module("workloads")
    return [CorrelationTriple(ab, ac, bc) for ab, ac, bc, _ in workloads.sweep_triples(random.Random(seed))]


@lru_cache(maxsize=1)
def criterion_3_triples() -> tuple[CorrelationTriple, ...]:
    """The 10,000 exact-rational correlation triples of acceptance criterion
    3: 9,900 harvested from random direction triples, 60 analytic boundary
    cases (margin exactly 0), and 40 near-boundary cases (margin exactly
    +/- 1e-10)."""
    rng = random.Random(20240901)
    triples = []
    for _ in range(9900):
        corr = correlations(*random_direction_triple(rng))
        triples.append(CorrelationTriple(*(rationalize(v) for v in corr.as_tuple())))
    # first reduced inequality tight: 1 + 0 = |(s + 1/2) - (s - 1/2)|
    for k in range(30):
        s = Fraction(2 * k - 29, 58)
        triples.append(CorrelationTriple(Fraction(0), s + Fraction(1, 2), s - Fraction(1, 2)))
    # second reduced inequality tight: 1 - u = |(1 - u)/2 + (1 - u)/2|
    for k in range(30):
        u = Fraction(2 * k - 29, 31)
        triples.append(CorrelationTriple(u, (1 - u) / 2, (1 - u) / 2))
    # split the second family off the boundary by exactly 1e-10 either way
    delta = Fraction(1, 10**10)
    for k in range(40):
        u = Fraction(2 * k - 39, 41)
        sign = 1 if k % 2 else -1
        triples.append(CorrelationTriple(u, (1 - u) / 2, (1 - u) / 2 + sign * delta))
    assert len(triples) == 10_000
    return tuple(triples)
