"""Quasiprobability families for the three-observable problem.

The eight joint outcomes are ordered +++, ++-, +-+, +--, -++, -+-, --+,
--- (first observable slowest).  The fixed 10x8 matrix built by
:func:`build_matrix` maps a joint vector to the stacked pair marginals
(BC, AC, AB rows, three retained entries each) plus normalization; its
rank is 7, so solutions of M x = p, when they exist, form the
one-parameter family

    x(t) = x0 + t * xh,     xh = (-1,1,1,-1,1,-1,-1,1),
    x0(a,b,c) = [p_AB(a,b) + p_AC(a,c) + p_BC(b,c)] / 2 - [p_A(a) + p_B(b) + p_C(c)] / 4 + 1/8,

each single marginal the average of the two tables that contain the
observable (the Moebius form of a signed global section); on consistent p
x0 is pinv(M) p, the minimum-norm solution.  ``xh`` spans the kernel of M.
Existence is equivalent to three linear consistency equations on p; a
proper probability exists iff some t keeps every component non-negative,
which reduces to an interval test.

Arithmetic is dual-mode: one expression gives x0 in integers for exact p
and in a fixed order of float operations for float p, the same on every
interpreter.  The slack for a p vector is
:func:`bellquasi.exactla.tolerance`: 0 for exact p vectors, ``eps``
(default ``DEFAULT_EPS``, on the Bell-margin scale) for float ones.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from .exactla import DEFAULT_EPS, RatMatrix, Real, _over_lcm, is_exact, pseudoinverse, tolerance
from .marginal_general import Feasibility, MarginalProblem, _constraint_matrix
from .singlet import CorrelationTriple, _check_p

#: Kernel direction of the constraint matrix: adding any multiple of it to
#: a joint vector leaves all pair marginals unchanged.  Entry for outcome
#: (a, b, c) is -a*b*c.
HOMOGENEOUS: tuple[int, ...] = (-1, 1, 1, -1, 1, -1, -1, 1)

#: The x0 entries at the indices where HOMOGENEOUS is +1, which bound t
#: from below, and where it is -1, which bound it from above.
_T_LO = operator.itemgetter(*(i for i, h in enumerate(HOMOGENEOUS) if h == 1))
_T_HI = operator.itemgetter(*(i for i, h in enumerate(HOMOGENEOUS) if h == -1))

#: The ``_constraint_matrix`` shape key of binary A, B, C and the BC, AC, AB tables.
_BELL_SHAPE = ((2, 2, 2), ((1, 2), (0, 2), (0, 1)))

def build_matrix() -> RatMatrix:
    """The fixed 10x8 constraint matrix (three rows per pair, BC/AC/AB
    order, entries ++, +-, -+ of each, then the all-ones normalization
    row): the generic builder's matrix for the shape of :func:`bell_problem`."""
    return _constraint_matrix(*_BELL_SHAPE)


@lru_cache(maxsize=1)
def pseudoinverse_matrix() -> RatMatrix:
    """Exact pseudoinverse of the fixed matrix, computed once.  The family
    does not use it: :func:`_scaled_x0` is its closed form on consistent p."""
    return pseudoinverse(build_matrix())


@dataclass(frozen=True)
class ConsistencyCheck:
    """Verdict plus the three equation residuals (lhs - rhs)."""

    ok: bool
    residuals: tuple[Real, Real, Real]


def check_consistency(p: Sequence[Real], eps: float = DEFAULT_EPS) -> ConsistencyCheck:
    """Evaluate the three consistency equations on the rhs vector p.

    The equations (first-entry sums of each pair table agreeing across
    pairs) are equivalent to p being orthogonal to the left null space of
    the constraint matrix, i.e. to M x = p having any solution at all.
    Exact p vectors are checked exactly; floats at tolerance ``eps``.
    """
    _check_p(p)
    residuals, tol = _residuals(p), tolerance(p, eps)
    return ConsistencyCheck(ok=all(abs(r) <= tol for r in residuals), residuals=residuals)


def _residuals(p: Sequence[Real]) -> tuple[Real, Real, Real]:
    return (
        (p[0] + p[1]) - (p[6] + p[8]),  # BC row sum vs AB column sum
        (p[3] + p[4]) - (p[6] + p[7]),  # AC row sum vs AB row sum
        (p[0] + p[2]) - (p[3] + p[5]),  # BC column sum vs AC column sum
    )


def _scaled_x0(p: Sequence[Real]) -> list[Real]:
    """8 * x0 for rhs p, in joint-outcome order: four times the outcome's
    three pair-table entries, less twice its three single marginals, plus
    the normalization.  Linear in p, with p[9] standing for every 1, so
    integer p gives integers and float p floats, in this fixed order."""
    one = p[9]
    # each table as ++, +-, -+, --: the -- entry is the - row's total less -+
    bc, ac, ab = ((p[k], p[k + 1], p[k + 2], (one - (p[k] + p[k + 1])) - p[k + 2]) for k in (0, 3, 6))
    # twice the + marginal of A, B and C: its + marginals in the two tables that contain it
    a, b, c = (p[6] + p[7]) + (p[3] + p[4]), (p[6] + p[8]) + (p[0] + p[1]), (p[3] + p[5]) + (p[0] + p[2])
    sa, sb, sc = (a, 2 * one - a), (b, 2 * one - b), (c, 2 * one - c)
    return [  # (i, j, k): the outcomes of A, B and C, 0 for + and 1 for -
        4 * (ab[2 * i + j] + ac[2 * i + k] + bc[2 * j + k]) - (sa[i] + sb[j] + sc[k]) + one
        for i, j, k in itertools.product((0, 1), repeat=3)
    ]


@dataclass(frozen=True)
class QuasiFamily:
    """The one-parameter family x(t) = x0 + t*xh, xh = ``HOMOGENEOUS``, of quasiprobabilities.

    ``t_lo``/``t_hi`` bound the parameter values keeping every component
    non-negative; the interval is empty when t_lo > t_hi.
    """

    x0: tuple[Real, ...]
    t_lo: Real
    t_hi: Real

    def member(self, t: Real) -> tuple[Real, ...]:
        return tuple(x + t * h for x, h in zip(self.x0, HOMOGENEOUS))

    def interval_nonempty(self, eps: Real = 0) -> bool:
        """``eps`` is on the Bell-margin scale: for singlet tables
        ``4 * (t_hi - t_lo)`` is exactly the margin of :func:`bellquasi.bellcheck.bell_pair`."""
        return 4 * (self.t_hi - self.t_lo) >= -eps


def solve_family(p: Sequence[Real], eps: float = DEFAULT_EPS) -> Optional[QuasiFamily]:
    """Quasiprobability family for rhs p, or None when a consistency
    residual exceeds ``eps`` (0 when p is exact).  x0 is the closed form of
    :func:`_scaled_x0`, exact p on integer numerators over one lcm d.  The
    feasible interval splits the constraints x0[i] + t*xh[i] >= 0 by the
    sign of xh[i]: t >= -x0[i] where xh[i] is +1 and t <= x0[i] where it is -1."""
    _check_p(p)
    d = 0  # the common denominator of exact p; 0 for float p
    if is_exact(p):
        d, p = _over_lcm(p)
        eps = 0
    if not all(abs(r) <= eps for r in _residuals(p)):  # a NaN residual fails too
        return None
    x8 = _scaled_x0(p)
    lo, hi = min(_T_LO(x8)), min(_T_HI(x8))
    if d:  # integers over 8 d: one Fraction per returned value
        return QuasiFamily(tuple([Fraction(n, 8 * d) for n in x8]), Fraction(-lo, 8 * d), Fraction(hi, 8 * d))
    # 0 - lo, not -lo: a zero bound is 0, never -0.0
    return QuasiFamily(tuple([v / 8 for v in x8]), 0 - lo / 8, hi / 8)


@dataclass(frozen=True)
class Classification:
    """Three-way verdict, a witness distribution when one exists, and the
    family it was decided from (None when Inconsistent)."""

    tag: Feasibility
    witness: Optional[tuple[Real, ...]]
    family: Optional[QuasiFamily] = None


def classify(p: Sequence[Real], eps: float = DEFAULT_EPS) -> Classification:
    """Classify p as Inconsistent, QuasiOnly, or Proper (with witness).

    The witness parameter prefers t = 0 (the minimum-norm solution) when
    feasible, otherwise the nearest interval endpoint.  Boundary
    configurations, where the interval is empty by at most ``eps`` on the
    Bell-margin scale, count as Proper.  Exact p vectors are decided exactly.
    """
    family = solve_family(p, eps)
    if family is None:
        return Classification(Feasibility.INCONSISTENT, None)
    if not family.interval_nonempty(tolerance(p, eps)):
        return Classification(Feasibility.QUASI_ONLY, None, family)
    if family.t_lo <= family.t_hi:
        t = min(max(0, family.t_lo), family.t_hi)
    else:  # nonempty only within tolerance; split the difference
        t = (family.t_lo + family.t_hi) / 2
    return Classification(Feasibility.PROPER, family.member(t), family)


def bell_problem(corr: CorrelationTriple) -> MarginalProblem:
    """The three-observable instance as a general marginal problem.

    Constraint order (BC, AC, AB, full four-entry tables: the rhs entries
    ++, +-, -+, then -- equal to ++) is the shape of :func:`build_matrix`,
    so the generic constraint builder returns that matrix for it.  An exact
    triple's tables are stored unchecked (the triple was checked), with its rhs,
    whose kept integers the LP reads, and that fixed shape key; floats are checked.
    """
    p = corr.rhs
    observables = (("A", 2), ("B", 2), ("C", 2))
    constraints = ((("B", "C"), p[0:3] + p[0:1]), (("A", "C"), p[3:6] + p[3:4]), (("A", "B"), p[6:9] + p[6:7]))
    if corr.integers is None:
        return MarginalProblem(observables, constraints)
    return MarginalProblem._checked(observables, constraints, p, _BELL_SHAPE)
