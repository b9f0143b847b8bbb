"""Joint quasiprobabilities from pairwise marginals.

Builds the one-parameter quasiprobability family compatible with three
prescribed pairwise marginal tables, decides exactly when a true
(non-negative) joint distribution exists, evaluates the corresponding
Bell-type inequalities for singlet-state measurement configurations, and
solves general finite marginal problems by exact rational LP feasibility.
"""

from .bellcheck import BellVerdict, bell_pair
from .exactla import DEFAULT_EPS, RatMatrix
from .marginal_general import (
    Feasibility,
    FeasibilityResult,
    MarginalProblem,
    build_constraint_system,
    lp_feasible,
    rationalize,
    solve_problem,
)
from .quasi import (
    HOMOGENEOUS,
    Classification,
    ConsistencyCheck,
    QuasiFamily,
    bell_problem,
    build_matrix,
    check_consistency,
    classify,
    pseudoinverse_matrix,
    solve_family,
)
from .singlet import (
    BellMarginals,
    CorrelationTriple,
    Direction,
    PairTable,
    correlation,
    correlations,
    pair_table,
    tables_from_correlations,
)

__version__ = "0.1.0"

__all__ = [
    "BellMarginals",
    "BellVerdict",
    "Classification",
    "ConsistencyCheck",
    "CorrelationTriple",
    "DEFAULT_EPS",
    "Direction",
    "Feasibility",
    "FeasibilityResult",
    "HOMOGENEOUS",
    "MarginalProblem",
    "PairTable",
    "QuasiFamily",
    "RatMatrix",
    "bell_pair",
    "bell_problem",
    "build_constraint_system",
    "build_matrix",
    "check_consistency",
    "classify",
    "correlation",
    "correlations",
    "lp_feasible",
    "pair_table",
    "pseudoinverse_matrix",
    "rationalize",
    "solve_family",
    "solve_problem",
    "tables_from_correlations",
]
