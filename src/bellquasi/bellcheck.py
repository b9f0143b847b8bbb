"""The two Bell inequalities in correlation form.

For singlet-style marginals the eight componentwise non-negativity
conditions on the quasiprobability family collapse, after scaling by 8,
to expressions of the form 1 +- <AB> +- <AC> -+ <BC> +- c, where c is 8
times the family parameter t.  Pairing them off eliminates c and leaves

    1 + <AB> >= |<AC> - <BC>|        and        1 - <AB> >= |<AC> + <BC>|,

and conversely both holding makes every one of the eight non-negative at
c = 0.  The tests generate the eight values from the exact pseudoinverse,
independently of the family's closed form, and pin their printed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactla import DEFAULT_EPS, Real
from .singlet import CorrelationTriple


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

    Exact correlations are decided exactly, on the triple's integer
    numerators over one lcm d of their denominators; floats at tolerance ``eps``.
    """
    if corr.integers is None:
        lhs1, rhs1, lhs2, rhs2, margin = _inequalities(corr.ab, corr.ac, corr.bc)
        return BellVerdict(lhs1, rhs1, lhs2, rhs2, satisfied=margin >= -eps, margin=margin)
    d, (u, v, w) = corr.integers
    lhs1, rhs1, lhs2, rhs2, margin = _inequalities(u, v, w, d)
    return BellVerdict(*(Fraction(n, d) for n in (lhs1, rhs1, lhs2, rhs2)), margin >= 0, Fraction(margin, d))


def _inequalities(u: Real, v: Real, w: Real, one: Real = 1) -> tuple[Real, Real, Real, Real, Real]:
    # both sides of each inequality at <AB>, <AC>, <BC> = u, v, w, then the
    # margin; all of them times d for numerators u, v, w over d and one = d.
    # cli._scan_rows computes the float margin inline, in this order.
    lhs1, rhs1, lhs2, rhs2 = one + u, abs(v - w), one - u, abs(v + w)
    return lhs1, rhs1, lhs2, rhs2, min(lhs1 - rhs1, lhs2 - rhs2)


#: Bound on |4 * (t_hi - t_lo) - margin| for floats u, v, w in [-1, 1]: the
#: first from ``quasi.solve_family(singlet._rhs(u, v, w, 1.0), eps)``, the second
#: from ``_inequalities(u, v, w)``.  In exact arithmetic the two are equal.
#: With d = 2**-53 the unit roundoff (no under- or overflow can occur here):
#:
#: * rhs: the entries are X/4 with X = fl(1 +- x) within d of 1 +- x, and
#:   the last is 1.  fl(1 - x) + fl(1 + x) lies on the 2**-53 grid within
#:   1.5 grid steps of 2, so it rounds to 2: every + row or column sum of a
#:   table is exactly 1/2.  So the three consistency residuals are exactly
#:   0 (``solve_family`` never returns None) and, in ``quasi._scaled_x0``, each
#:   doubled single marginal is exactly 1 and their sum exactly 3.
#: * the -- entry of a table is fl(1/2 - X/4) = fl(2 - X)/4, within 2 d
#:   (times 1/4) of its exact value, like every other entry.
#: * 8 * x0: four times the sum of three entries is S = fl(fl(Y1 + Y2) + Y3)
#:   with each Y in [0, 2] within 2 d of exact: 6 d from the Y, 2 d and 4 d
#:   from the two roundings (sizes below 4 and 8).  Then fl(S - 3) rounds
#:   only for S < 3/2, by at most 2 d, and adding 1 at most 2 d: 16 d.
#: * t_hi - t_lo is the sum of two minima of x0 entries (t_lo is 0 - a
#:   minimum, exact), each moving at most as far as the entries, rounded
#:   once: 4 * (t_hi - t_lo) is half the sum of two minima of 8 * x0, within
#:   (16 d + 16 d + 4 d) / 2 = 18 d of the exact margin.
#: * margin: 1 +- u and |v -+ w| are at most 2 and within 2 d; their
#:   difference is at most 2 in size and rounds once: 6 d in all.
#:
#: 24 d < 2**-45, which leaves the scan band its width.  The largest gap
#: seen is 3 d (300,000 random triples and the half-degree grid).
_FAMILY_GAP = 2.0**-45
