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
from .marginal_general import Feasibility, rationalize, solve_problem
from .quasi import HOMOGENEOUS, bell_problem, solve_family
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


def equivalence_check(corr: CorrelationTriple) -> bool:
    """Do the three independent deciders agree on this configuration?

    The deciders: the reduced inequality pair, non-emptiness of the family
    parameter interval, and exact LP feasibility of the full marginal
    problem.  Float correlations are rationalized (bounded denominator)
    first so all three run exactly on identical inputs.
    """
    exact = CorrelationTriple(*(rationalize(v) for v in corr.as_tuple()))
    bell_ok = bell_pair(exact).satisfied
    family = solve_family(rhs_from_correlations(exact))
    interval_ok = family is not None and family.interval_nonempty()
    lp_ok = solve_problem(bell_problem(exact)).status is Feasibility.PROPER
    return bell_ok == interval_ok == lp_ok
