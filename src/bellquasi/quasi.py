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

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from .exactla import DEFAULT_EPS, RatMatrix, Real, is_exact, pseudoinverse, tolerance
from .marginal_general import Feasibility, MarginalProblem
from .singlet import CorrelationTriple, PairTable, tables_from_correlations

#: Kernel direction of the constraint matrix: adding any multiple of it to
#: a joint vector leaves all pair marginals unchanged.  Entry for outcome
#: (a, b, c) is -a*b*c.
HOMOGENEOUS: tuple[int, ...] = (-1, 1, 1, -1, 1, -1, -1, 1)

#: Joint outcomes in index order, entries in {+1, -1}.
OUTCOMES: tuple[tuple[int, int, int], ...] = tuple(
    (a, b, c) for a in (1, -1) for b in (1, -1) for c in (1, -1)
)

#: Pairs in rhs order: (component indices into an outcome triple).
_PAIR_BLOCKS = ((1, 2), (0, 2), (0, 1))  # BC, AC, AB
_RETAINED = ((1, 1), (1, -1), (-1, 1))  # table entries kept per pair


@lru_cache(maxsize=1)
def build_matrix() -> RatMatrix:
    """The fixed 10x8 constraint matrix (three rows per pair, BC/AC/AB
    order, then the all-ones normalization row)."""
    rows = []
    for i, j in _PAIR_BLOCKS:
        for wanted in _RETAINED:
            rows.append([1 if (o[i], o[j]) == wanted else 0 for o in OUTCOMES])
    rows.append([1] * len(OUTCOMES))
    return RatMatrix.from_rows(rows)


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
    residuals = (
        (p[0] + p[1]) - (p[6] + p[8]),  # BC row sum vs AB column sum
        (p[3] + p[4]) - (p[6] + p[7]),  # AC row sum vs AB row sum
        (p[0] + p[2]) - (p[3] + p[5]),  # BC column sum vs AC column sum
    )
    tol = tolerance(p, eps)
    return ConsistencyCheck(ok=all(abs(r) <= tol for r in residuals), residuals=residuals)


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
        return 4 * (self.t_hi - self.t_lo) >= -eps


def solve_family(p: Sequence[Real], eps: float = DEFAULT_EPS) -> Optional[QuasiFamily]:
    """Quasiprobability family for rhs p, or None when p is inconsistent.

    x0 is the pseudoinverse application (exact matrix; result type follows
    p).  The feasible interval splits the componentwise constraints
    x0[i] + t*xh[i] >= 0 by the sign of xh[i]:  t >= -x0[i] where xh[i] is
    +1 and t <= x0[i] where it is -1.
    """
    if not check_consistency(p, eps).ok:
        return None
    rows = _pseudoinverse_rows() if is_exact(p) else _pseudoinverse_rows_float()
    x0 = tuple(sum(e * v for e, v in zip(row, p)) for row in rows)
    t_lo = max(-x0[i] for i in range(8) if HOMOGENEOUS[i] == 1)
    t_hi = min(x0[i] for i in range(8) if HOMOGENEOUS[i] == -1)
    return QuasiFamily(x0=x0, t_lo=t_lo, t_hi=t_hi)


@lru_cache(maxsize=1)
def _pseudoinverse_rows() -> tuple[tuple[Fraction, ...], ...]:
    m = pseudoinverse_matrix()
    return tuple(tuple(m.row(i)) for i in range(m.rows))


@lru_cache(maxsize=1)
def _pseudoinverse_rows_float() -> tuple[tuple[float, ...], ...]:
    # float copy for the inexact path; spares a Fraction->float conversion
    # per entry per application.
    return tuple(tuple(float(e) for e in row) for row in _pseudoinverse_rows())


@dataclass(frozen=True)
class Classification:
    """Three-way verdict plus a witness distribution when one exists."""

    tag: Feasibility
    witness: Optional[tuple[Real, ...]]


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
        return Classification(Feasibility.QUASI_ONLY, None)
    if family.t_lo <= family.t_hi:
        t = min(max(0, family.t_lo), family.t_hi)
    else:  # nonempty only within tolerance; split the difference
        t = (family.t_lo + family.t_hi) / 2
    return Classification(Feasibility.PROPER, family.member(t))


def reconstruct_marginals(x: Sequence[Real]) -> tuple[PairTable, PairTable, PairTable]:
    """Pair marginals (AB, AC, BC) implied by a joint vector, including the
    (-, -) entries that the stacked rhs drops as redundant."""
    if len(x) != 8:
        raise ValueError(f"joint vector must have 8 entries, got {len(x)}")
    total = sum(x)
    if abs(total - 1) > tolerance(x):
        raise ValueError(f"joint vector sums to {total}, not 1")

    def table(i: int, j: int) -> PairTable:
        def cell(vi: int, vj: int) -> Real:
            return sum(x[k] for k, o in enumerate(OUTCOMES) if o[i] == vi and o[j] == vj)

        return PairTable(pp=cell(1, 1), pm=cell(1, -1), mp=cell(-1, 1), mm=cell(-1, -1))

    return table(0, 1), table(0, 2), table(1, 2)


def bell_problem(corr: CorrelationTriple) -> MarginalProblem:
    """The three-observable instance as a general marginal problem.

    Constraint order (BC, AC, AB, full four-entry tables) is chosen so the
    generic constraint builder reproduces :func:`build_matrix` exactly
    once redundant entries are dropped.
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
