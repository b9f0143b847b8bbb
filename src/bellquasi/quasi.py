"""Quasiprobability families for the three-observable problem.

The eight joint outcomes are ordered +++, ++-, +-+, +--, -++, -+-, --+,
--- (first observable slowest).  The fixed 10x8 matrix built by
:func:`build_matrix` maps a joint vector to the stacked pair marginals
(BC, AC, AB rows, three retained entries each) plus normalization; its
rank is 7, so solutions of M x = p, when they exist, form the
one-parameter family

    x(t) = x0 + t * xh,     x0 = pinv(M) p,   xh = (-1,1,1,-1,1,-1,-1,1).

``x0`` is the minimum-norm particular solution (orthogonal to ``xh``) and
``xh`` spans the kernel of M.  Existence is equivalent to three linear
consistency equations on p; a proper probability exists iff some t keeps
every component non-negative, which reduces to an interval test.

Arithmetic is dual-mode: the structural objects (M, its pseudoinverse,
xh) are always exact rationals; the slack for a p vector is
:func:`bellquasi.exactla.tolerance`: 0 for exact p vectors, ``eps``
(default ``DEFAULT_EPS``, on the Bell-margin scale) for float ones.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from .exactla import DEFAULT_EPS, RatMatrix, Real, is_exact, pseudoinverse, tolerance
from .marginal_general import Feasibility, MarginalProblem, _constraint_matrix
from .singlet import CorrelationTriple, tables_from_correlations

#: Kernel direction of the constraint matrix: adding any multiple of it to
#: a joint vector leaves all pair marginals unchanged.  Entry for outcome
#: (a, b, c) is -a*b*c.
HOMOGENEOUS: tuple[int, ...] = (-1, 1, 1, -1, 1, -1, -1, 1)

#: The x0 entries at the indices where HOMOGENEOUS is +1, which bound t
#: from below, and where it is -1, which bound it from above.
_T_LO = operator.itemgetter(*(i for i, h in enumerate(HOMOGENEOUS) if h == 1))
_T_HI = operator.itemgetter(*(i for i, h in enumerate(HOMOGENEOUS) if h == -1))


def build_matrix() -> RatMatrix:
    """The fixed 10x8 constraint matrix (three rows per pair, BC/AC/AB
    order, entries ++, +-, -+ of each, then the all-ones normalization
    row): the generic builder's matrix for the shape of :func:`bell_problem`."""
    return _constraint_matrix((2, 2, 2), ((1, 2), (0, 2), (0, 1)))


@lru_cache(maxsize=1)
def pseudoinverse_matrix() -> RatMatrix:
    """Exact pseudoinverse of the fixed matrix, computed once."""
    return pseudoinverse(build_matrix())


def _check_p(p: Sequence[Real]) -> None:
    if len(p) != 10:
        raise ValueError(f"p must have 10 entries, got {len(p)}")
    if p[9] != 1:
        raise ValueError(f"last entry of p must be exactly 1, got {p[9]!r}")


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
    return ConsistencyCheck(ok=_family(p, tolerance(p, eps)) is not None, residuals=_residuals(p))


def _residuals(p: Sequence[Real]) -> tuple[Real, Real, Real]:
    return (
        (p[0] + p[1]) - (p[6] + p[8]),  # BC row sum vs AB column sum
        (p[3] + p[4]) - (p[6] + p[7]),  # AC row sum vs AB row sum
        (p[0] + p[2]) - (p[3] + p[5]),  # BC column sum vs AC column sum
    )


def _family(p: Sequence[Real], tol: Real) -> Optional[tuple[tuple[Real, ...], Real, Real]]:
    """``(x0, t_lo, t_hi)`` for rhs p, or None when a consistency residual
    exceeds ``tol``.  x0 is the pseudoinverse application (exact matrix;
    result type follows p).  The feasible interval splits the componentwise
    constraints x0[i] + t*xh[i] >= 0 by the sign of xh[i]:  t >= -x0[i]
    where xh[i] is +1 and t <= x0[i] where it is -1."""
    r0, r1, r2 = _residuals(p)
    if not (abs(r0) <= tol and abs(r1) <= tol and abs(r2) <= tol):
        return None
    if is_exact(p):  # integer numerators over one denominator: one Fraction per entry
        rows, den = _pseudoinverse_numerators()
        d = math.lcm(*(v.denominator for v in p))
        p_num = [v.numerator * (d // v.denominator) for v in p]
        x0 = tuple(Fraction(sum(e * v for e, v in zip(row, p_num)), den * d) for row in rows)
    else:
        # sum(), not a chain of +: sum() compensates float sums since Python 3.12
        x0 = tuple([sum(map(operator.mul, row, p)) for row in _pseudoinverse_rows_float()])
    return x0, max(map(operator.neg, _T_LO(x0))), min(_T_HI(x0))


def _verdict(family: Optional[tuple[tuple[Real, ...], Real, Real]], tol: Real) -> Feasibility:
    """Verdict on a :func:`_family` result, by :meth:`QuasiFamily.interval_nonempty`'s test."""
    if family is None:
        return Feasibility.INCONSISTENT
    _, t_lo, t_hi = family
    return Feasibility.PROPER if 4 * (t_hi - t_lo) >= -tol else Feasibility.QUASI_ONLY


@dataclass(frozen=True)
class QuasiFamily:
    """The one-parameter family x(t) = x0 + t*xh of quasiprobabilities.

    ``t_lo``/``t_hi`` bound the parameter values keeping every component
    non-negative; the interval is empty when t_lo > t_hi.
    """

    x0: tuple[Real, ...]
    t_lo: Real
    t_hi: Real
    xh: tuple[int, ...] = field(default=HOMOGENEOUS)

    def member(self, t: Real) -> tuple[Real, ...]:
        return tuple(x + t * h for x, h in zip(self.x0, self.xh))

    def interval_nonempty(self, eps: Real = 0) -> bool:
        """``4 * (t_hi - t_lo) >= -eps``: ``eps`` is on the Bell-margin scale,
        since for singlet tables ``4 * (t_hi - t_lo)`` is exactly the margin
        of :func:`bellquasi.bellcheck.bell_pair`."""
        return _verdict((self.x0, self.t_lo, self.t_hi), eps) is Feasibility.PROPER


def solve_family(p: Sequence[Real], eps: float = DEFAULT_EPS) -> Optional[QuasiFamily]:
    """Quasiprobability family for rhs p, or None when p is inconsistent."""
    _check_p(p)
    family = _family(p, tolerance(p, eps))
    return None if family is None else QuasiFamily(*family)


@lru_cache(maxsize=1)
def _pseudoinverse_numerators() -> tuple[tuple[tuple[int, ...], ...], int]:
    # exact copy: the entries times their common denominator, and that denominator
    m = pseudoinverse_matrix()
    den = math.lcm(*(e.denominator for e in m.entries))
    return tuple(tuple(e.numerator * (den // e.denominator) for e in m.row(i)) for i in range(m.rows)), den


@lru_cache(maxsize=1)
def _pseudoinverse_rows_float() -> tuple[tuple[float, ...], ...]:
    # float copy for the inexact path; spares a Fraction->float conversion
    # per entry per application.
    m = pseudoinverse_matrix()
    return tuple(tuple(float(e) for e in m.row(i)) for i in range(m.rows))


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

    Constraint order (BC, AC, AB, full four-entry tables) is the shape of
    :func:`build_matrix`, so the generic constraint builder returns that
    matrix for it.
    """
    marg = tables_from_correlations(corr)
    return MarginalProblem(
        observables=(("A", 2), ("B", 2), ("C", 2)),
        constraints=(
            (("B", "C"), marg.pbc.as_tuple()),
            (("A", "C"), marg.pac.as_tuple()),
            (("A", "B"), marg.pab.as_tuple()),
        ),
    )
