"""General finite marginal problems and exact LP feasibility.

Given a set of finite-valued observables and prescribed distributions over
subsets of them, decide whether a joint distribution exists that generates
every prescribed table as a marginal.  Dropping the non-negativity
requirement turns "distribution" into "quasiprobability", and the three
possible answers are:

* ``Inconsistent`` - not even a quasiprobability exists (the linear
  constraints are unsolvable),
* ``QuasiOnly``    - quasiprobabilities exist but every one has a negative
  entry,
* ``Proper``       - a true (non-negative) joint distribution exists.

The decision procedure is an exact rational phase-one simplex with Bland's
rule, so it terminates and is authoritative on boundary cases where a
floating solver could not adjudicate.  This module doubles as the
independent oracle for the specialized three-observable machinery in
:mod:`bellquasi.quasi`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence

from .exactla import DEFAULT_EPS, RatMatrix, RatVector, Real, check_distribution, rref

#: Largest joint outcome count accepted before erroring out.
JOINT_SIZE_CAP = 10**6

#: Denominator bound used when floats are rationalized for exact runs.
RATIONALIZE_DENOMINATOR = 10**6


class Feasibility(Enum):
    """Outcome of a marginal-compatibility question."""

    PROPER = "Proper"
    QUASI_ONLY = "QuasiOnly"
    INCONSISTENT = "Inconsistent"


def rationalize(value: Real) -> Fraction:
    """Exact value for ints/Fractions; for floats, the nearest fraction with
    denominator at most ``RATIONALIZE_DENOMINATOR``.  Documented so
    oracle-agreement runs are reproducible."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(value).limit_denominator(RATIONALIZE_DENOMINATOR)
    raise TypeError(f"cannot rationalize {type(value).__name__}")


def _rationalized_table(table: tuple[Real, ...]) -> tuple[Fraction, ...]:
    """Exact copy of a checked table; floats are rationalized and the largest
    entry adjusted so the total is exactly 1 (the adjustment is ~1e-12)."""
    approx = [rationalize(v) for v in table]
    gap = 1 - sum(approx)
    if gap != 0:
        k = max(range(len(approx)), key=lambda i: approx[i])
        approx[k] += gap
        if approx[k] < 0:
            raise ValueError("cannot rationalize table: sum repair made an entry negative")
    return tuple(approx)


@dataclass(frozen=True)
class MarginalProblem:
    """A finite marginal-compatibility instance.

    ``observables`` lists (name, cardinality >= 2) pairs; ``constraints``
    lists (observable-name subset, prescribed table) pairs.  Tables are
    flattened row-major over the subset's outcome grid, first listed
    observable slowest.  Entries may be exact rationals or floats; each
    table must be non-negative and sum to 1 within
    :func:`bellquasi.exactla.tolerance` (exactly when rational, within
    ``DEFAULT_EPS`` otherwise).  Float tables are then rationalized once
    (:func:`rationalize`, sum repaired to exactly 1): the stored tables are
    always exact ``Fraction`` tuples.
    """

    observables: tuple[tuple[str, int], ...]
    constraints: tuple[tuple[tuple[str, ...], tuple[Real, ...]], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "observables", tuple((str(n), int(c)) for n, c in self.observables)
        )
        names = [n for n, _ in self.observables]
        if len(set(names)) != len(names):
            raise ValueError("observable names must be unique")
        if not names:
            raise ValueError("at least one observable required")
        cards = dict(self.observables)
        for _, c in self.observables:
            if c < 2:
                raise ValueError(f"cardinality must be >= 2, got {c}")
        if self.joint_size() > JOINT_SIZE_CAP:
            raise ValueError(
                f"joint outcome count {self.joint_size()} exceeds cap {JOINT_SIZE_CAP}"
            )
        constraints = []
        for subset, table in self.constraints:
            subset, table = tuple(subset), tuple(table)
            if not subset:
                raise ValueError("empty constraint subset")
            if len(set(subset)) != len(subset):
                raise ValueError(f"repeated observable in subset {subset}")
            unknown = [n for n in subset if n not in cards]
            if unknown:
                raise ValueError(f"unknown observables in constraint: {unknown}")
            size = 1
            for n in subset:
                size *= cards[n]
            if len(table) != size:
                raise ValueError(
                    f"table for {subset} has {len(table)} entries, expected {size}"
                )
            check_distribution(table, f"table for {subset}")
            constraints.append((subset, _rationalized_table(table)))
        object.__setattr__(self, "constraints", tuple(constraints))

    def joint_size(self) -> int:
        size = 1
        for _, c in self.observables:
            size *= c
        return size

    def cardinalities(self) -> tuple[int, ...]:
        return tuple(c for _, c in self.observables)

    def index_of(self, name: str) -> int:
        for i, (n, _) in enumerate(self.observables):
            if n == name:
                return i
        raise KeyError(name)


def product_distribution(singles: Sequence[Sequence[Real]]) -> tuple[Real, ...]:
    """Joint product distribution of independent single-observable tables.

    Output is flattened with the first table's index slowest; its marginals
    equal the inputs (exactly, for rational inputs).
    """
    if not singles:
        raise ValueError("need at least one table")
    for table in singles:
        check_distribution(table, f"table {tuple(table)}")
    joint: list[Real] = [1]
    for table in singles:
        joint = [x * p for x in joint for p in table]
    return tuple(joint)


def build_constraint_system(
    prob: MarginalProblem, drop_redundant: bool = True
) -> tuple[RatMatrix, RatVector]:
    """Linear system "joint sums = prescribed marginal entries" + normalization.

    One row per retained table entry, in the order the constraints were
    given, each table row-major over its outcome grid; the all-ones
    normalization row comes last.  With ``drop_redundant`` the final entry
    of each table is omitted: that row is implied by the others together
    with the table summing to 1.  ``prob`` was validated, joint size cap
    included, and its tables made exact when it was constructed.
    """
    cards = prob.cardinalities()
    joint_outcomes = list(itertools.product(*(range(c) for c in cards)))
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    one = Fraction(1)
    zero = Fraction(0)
    for subset, table in prob.constraints:
        positions = [prob.index_of(n) for n in subset]
        grid = list(itertools.product(*(range(cards[p]) for p in positions)))
        keep = grid[:-1] if drop_redundant else grid
        for k, combo in enumerate(keep):
            rows.append(
                [
                    one if all(outcome[p] == combo[j] for j, p in enumerate(positions)) else zero
                    for outcome in joint_outcomes
                ]
            )
            rhs.append(table[k])
    rows.append([one] * len(joint_outcomes))
    rhs.append(one)
    return RatMatrix.from_rows(rows), RatVector(tuple(rhs))


@dataclass(frozen=True)
class FeasibilityResult:
    """Answer to a marginal problem: status, optional witness joint table,
    and the dimension of the homogeneous solution space."""

    status: Feasibility
    witness: Optional[tuple[Fraction, ...]]
    homogeneous_dim: int


def _phase_one_simplex(mat: RatMatrix, rhs: RatVector) -> Optional[list[Fraction]]:
    """Exact feasible point of {x : mat x = rhs, x >= 0}, or None.

    Phase-one simplex over Fractions.  Bland's rule on both the entering
    and the leaving choice guarantees termination.
    """
    m, n = mat.rows, mat.cols
    rows = mat.row_lists()
    b = list(rhs)
    for i in range(m):
        if b[i] < 0:
            rows[i] = [-x for x in rows[i]]
            b[i] = -b[i]
    zero, one = Fraction(0), Fraction(1)
    # Tableau columns: n structural, m artificial, then the rhs.
    tableau = [rows[i] + [one if j == i else zero for j in range(m)] + [b[i]] for i in range(m)]
    basis = list(range(n, n + m))
    # Reduced costs for minimizing the artificial sum; artificial columns
    # start reduced to zero, the objective cell holds minus the objective.
    z = [-sum(tableau[i][j] for i in range(m)) for j in range(n)] + [zero] * m + [-sum(b)]

    total_cols = n + m
    while True:
        enter = next((j for j in range(total_cols) if z[j] < 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            coeff = tableau[i][enter]
            if coeff > 0:
                ratio = tableau[i][total_cols] / coeff
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            raise AssertionError("phase-one objective is bounded; no leaving row found")
        # Pivot on (leave, enter).
        piv = tableau[leave][enter]
        if piv != 1:
            tableau[leave] = [x / piv for x in tableau[leave]]
        pivot_row = tableau[leave]
        for i in range(m):
            if i != leave and tableau[i][enter] != 0:
                f = tableau[i][enter]
                tableau[i] = [a - f * p for a, p in zip(tableau[i], pivot_row)]
        if z[enter] != 0:
            f = z[enter]
            z = [a - f * p for a, p in zip(z, pivot_row)]
        basis[leave] = enter

    if -z[total_cols] != 0:  # minimal artificial sum is positive
        return None
    x = [zero] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = tableau[i][total_cols]
    return x


def lp_feasible(mat: RatMatrix, rhs: RatVector) -> FeasibilityResult:
    """Decide {x : mat x = rhs, x >= 0} != {} by exact rational simplex.

    Returns a witness when feasible; ``QuasiOnly`` when the equality system
    is consistent but no non-negative solution exists; ``Inconsistent``
    when the equality system itself is unsolvable.  One Gauss-Jordan pass
    over [mat | rhs] gives both the rank and the consistency verdict; the
    simplex runs only on consistent systems.
    """
    if len(rhs) != mat.rows:
        raise ValueError(f"rhs length {len(rhs)} != rows {mat.rows}")
    n = mat.cols
    aug_rows = (mat.entries[i * n : (i + 1) * n] + (rhs[i],) for i in range(mat.rows))
    _, pivots = rref(RatMatrix(mat.rows, n + 1, tuple(itertools.chain.from_iterable(aug_rows))))
    if pivots and pivots[-1] == n:  # a pivot in the rhs column: 0 = nonzero
        return FeasibilityResult(Feasibility.INCONSISTENT, None, n - (len(pivots) - 1))
    hom_dim = n - len(pivots)
    x = _phase_one_simplex(mat, rhs)
    if x is not None:
        return FeasibilityResult(Feasibility.PROPER, tuple(x), hom_dim)
    return FeasibilityResult(Feasibility.QUASI_ONLY, None, hom_dim)


def solve_problem(prob: MarginalProblem, drop_redundant: bool = True) -> FeasibilityResult:
    """Feasibility of a marginal problem (its tables are exact since construction)."""
    return lp_feasible(*build_constraint_system(prob, drop_redundant))
