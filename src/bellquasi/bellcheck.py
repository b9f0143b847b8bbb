"""Correlation-form non-negativity inequalities and the two Bell inequalities.

For singlet-style marginals the eight componentwise non-negativity
conditions on the quasiprobability family collapse, after scaling by 8,
to expressions of the form 1 +- <AB> +- <AC> -+ <BC> +- c, where c is 8
times the family parameter t.  Pairing them off eliminates c and leaves

    1 + <AB> >= |<AC> - <BC>|        and        1 - <AB> >= |<AC> + <BC>|,

and conversely both holding makes every one of the eight non-negative at
c = 0.  ``eight_inequalities`` generates the eight values from the exact
particular solution and kernel vector rather than from a hard-coded
formula, so the c scaling cannot silently drift; the printed form is
pinned separately by a regression test.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactla import DEFAULT_EPS, Real, tolerance
from .quasi import HOMOGENEOUS, solve_family
from .singlet import CorrelationTriple, rhs_from_correlations


def eight_inequalities(corr: CorrelationTriple, c: Real) -> tuple[Real, ...]:
    """Left-hand sides of the eight scaled non-negativity conditions.

    Output order follows the joint outcomes (+++, ++-, ..., ---); entry k
    is 8*x0[k] + c*xh[k], which is >= 0 exactly when the family member at
    parameter t = c/8 has a non-negative k-th component.  Exact for
    rational correlations and c.
    """
    family = solve_family(rhs_from_correlations(corr))
    assert family is not None  # singlet-form tables are always consistent
    return tuple(8 * x + c * h for x, h in zip(family.x0, HOMOGENEOUS))


@dataclass(frozen=True)
class BellVerdict:
    """Both reduced inequalities, their joint verdict, and the worst margin."""

    ineq1_lhs: Real  # 1 + <AB>
    ineq1_rhs: Real  # |<AC> - <BC>|
    ineq2_lhs: Real  # 1 - <AB>
    ineq2_rhs: Real  # |<AC> + <BC>|
    satisfied: bool
    margin: Real


def bell_pair(corr: CorrelationTriple, eps: float = DEFAULT_EPS) -> BellVerdict:
    """Evaluate both Bell inequalities; margin < 0 quantifies the violation.

    Exact correlations are decided exactly; floats at tolerance ``eps``.
    """
    lhs1, rhs1, lhs2, rhs2, margin = _inequalities(corr.ab, corr.ac, corr.bc)
    return BellVerdict(lhs1, rhs1, lhs2, rhs2, satisfied=margin >= -tolerance(corr.as_tuple(), eps), margin=margin)


def _inequalities(u: Real, v: Real, w: Real) -> tuple[Real, Real, Real, Real, Real]:
    # both sides of each inequality at <AB>, <AC>, <BC> = u, v, w, then the margin
    lhs1, rhs1, lhs2, rhs2 = 1 + u, abs(v - w), 1 - u, abs(v + w)
    return lhs1, rhs1, lhs2, rhs2, min(lhs1 - rhs1, lhs2 - rhs2)


#: Bound on |4 * (t_hi - t_lo) - margin| for floats u, v, w in [-1, 1]: the
#: first from ``quasi._family(singlet._rhs(u, v, w, 1.0), tol)``, the second
#: from ``_inequalities(u, v, w)``.  In exact arithmetic the two are equal.
#: With d = 2**-53 the unit roundoff (no under- or overflow can occur here):
#:
#: * rhs: each entry is fl(1 +- x) / 4, within d/2 of (1 +- x) / 4 and at
#:   most 1/2 in size; the last is 1.  Its three consistency residuals are
#:   exactly 0: fl(1 - x) + fl(1 + x) lies on the 2**-53 grid within 1.5
#:   grid steps of 2, so it rounds to 2.  ``_family`` never returns None.
#: * x0: entry i is a float dot product of the rounded pseudoinverse row
#:   P_i with the rhs.  The rhs error gives at most ||P_i||_1 * d/2, the
#:   rounding of P_i at most d * s_i and the products and ``sum()`` at
#:   most 10.01 * d * s_i (gamma_10: recursive summation before Python
#:   3.12, compensated since), where s_i = sum_k |P_ik| |p_k| <= 2.375 and
#:   ||P_i||_1 <= 3.875 (both from the last row).  So under 29 d per entry.
#: * t_hi - t_lo is the sum of two x0 entries, each a min that moves at
#:   most as far as the entries, rounded once at size <= 1/2: the family
#:   value is within 4 * (2 * 29 d + d/2) = 234 d of the exact margin.
#: * margin: 1 +- u and |v -+ w| are at most 2 and within 2 d; their
#:   difference is at most 2 in size and rounds once: 6 d in all.
#:
#: 240 d < 2**-45.  The largest gap seen is 15 d (half-degree grid) and 12 d
#: (300,000 random triples).
_FAMILY_GAP = 2.0**-45
