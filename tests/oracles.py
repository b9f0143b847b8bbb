"""Independent reference computations used by the test suite.

Nothing here calls into the package's closed-form table builders or the
pseudoinverse pipeline: pair probabilities come from an explicit 4x4
projector computation on the singlet state, and family feasibility can be
brute-forced by sweeping the free parameter.  LP feasibility is decided
by enumerating basic solutions with a separate Fraction elimination.
Keeping these independent is the point; do not "simplify" them to reuse
package code.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import numpy as np

from bellquasi.quasi import HOMOGENEOUS
from bellquasi.singlet import CorrelationTriple, Direction

_I2 = np.eye(2, dtype=complex)
_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)

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


def random_rational_distribution(rng: random.Random, size: int, max_weight: int = 9):
    """Exact random distribution: integer weights normalized by their sum."""
    while True:
        weights = [rng.randint(0, max_weight) for _ in range(size)]
        total = sum(weights)
        if total:
            return tuple(Fraction(w, total) for w in weights)


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
        head = rows[r][c]
        rows[r] = [v / head for v in rows[r]]
        for i in range(len(rows)):
            f = rows[i][c]
            if i != r and f != 0:
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
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
