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
floating solver could not adjudicate.  It starts from the RREF that decides
rank and consistency, stores no artificial columns, and pivots with the one
Gauss-Jordan step of :mod:`bellquasi.exactla`.  A constraint matrix is
eliminated once, with an identity block that records the row operations,
and every LP on it then only transforms its rhs.  Before the simplex, a
forcing-row presolve drops the joint outcomes that cannot carry mass: a
constraint row with rhs 0 and entries of one sign (a zero cell of a
prescribed table) is 0 on its whole support in every non-negative
solution, so the simplex pivots only on the other columns.  This is the
possibilistic reasoning of "nonlocality without inequalities": on
GHZ-Mermin or Hardy tables no joint outcome, or only one, survives, and
``QuasiOnly`` follows without a pivot.  This module doubles as
the independent oracle for the specialized three-observable machinery in
:mod:`bellquasi.quasi`.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence

from .exactla import DEFAULT_EPS, RatMatrix, Real, _integer_rows, _pivot, _rref_rows, check_distribution

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
        observables = tuple((str(n), c) for n, c in self.observables)
        for i, (_, c) in enumerate(observables):
            if not isinstance(c, numbers.Integral) or c < 2:
                raise ValueError(f"observable {i}: cardinality must be an integer >= 2")
        object.__setattr__(self, "observables", tuple((n, int(c)) for n, c in observables))
        names = [n for n, _ in self.observables]
        if len(set(names)) != len(names):
            raise ValueError("observable names must be unique")
        if not names:
            raise ValueError("at least one observable required")
        cards = dict(self.observables)
        if self.joint_size() > JOINT_SIZE_CAP:
            raise ValueError(
                f"joint outcome count {self.joint_size()} exceeds cap {JOINT_SIZE_CAP}"
            )
        constraints = []
        # Errors name a constraint by its position, never by its (unbounded) names.
        for i, (subset, table) in enumerate(self.constraints):
            subset, table = tuple(subset), tuple(table)
            if not subset:
                raise ValueError(f"constraint {i}: empty subset")
            if len(set(subset)) != len(subset):
                raise ValueError(f"constraint {i}: repeated observable")
            if any(n not in cards for n in subset):
                raise ValueError(f"constraint {i}: unknown observable")
            size = 1
            for n in subset:
                size *= cards[n]
            if len(table) != size:
                raise ValueError(f"constraint {i}: table has {len(table)} entries, expected {size}")
            check_distribution(table, f"table of constraint {i}")
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
    for i, table in enumerate(singles):
        check_distribution(table, f"table {i}")
    joint: list[Real] = [1]
    for table in singles:
        joint = [x * p for x in joint for p in table]
    return tuple(joint)


def build_constraint_system(prob: MarginalProblem) -> tuple[RatMatrix, tuple[Fraction, ...]]:
    """Linear system "joint sums = prescribed marginal entries" + normalization.

    One 0/1 integer row per table entry but the last, in the order the
    constraints were given, each table row-major over its outcome grid; the
    all-ones normalization row comes last.  A table's final entry is
    omitted because its row is implied by the others together with the
    table summing to 1.  ``prob`` was validated, joint size cap included,
    and its tables made exact when it was constructed.
    """
    cards = prob.cardinalities()
    joint_outcomes = list(itertools.product(*(range(c) for c in cards)))
    size = len(joint_outcomes)
    flat: list[int] = []
    rhs: list[Fraction] = []
    for subset, table in prob.constraints:
        positions = [prob.index_of(n) for n in subset]
        last = len(table) - 1
        # row k of this table has a 1 at each joint outcome o that adds to
        # entry k (row-major): one pass over the outcomes fills all its rows
        block = [0] * (last * size)
        for o, outcome in enumerate(joint_outcomes):
            k = 0
            for p in positions:
                k = k * cards[p] + outcome[p]
            if k < last:
                block[k * size + o] = 1
        flat.extend(block)
        rhs.extend(table[:last])
    flat.extend([1] * size)
    rhs.append(Fraction(1))
    return RatMatrix(len(rhs), size, tuple(flat)), tuple(rhs)


@dataclass(frozen=True)
class FeasibilityResult:
    """Answer to a marginal problem: status, optional witness joint table,
    and the dimension of the homogeneous solution space."""

    status: Feasibility
    witness: Optional[tuple[Fraction, ...]]
    homogeneous_dim: int


def _phase_one_simplex(rows: list[list[int]], pivots: Sequence[int], n: int, rhs_scale: int) -> Optional[list[Fraction]]:
    """Exact feasible point of {x >= 0 : rows x = rhs / rhs_scale}, or None.

    ``rows``, the nonzero integer rows of the RREF of a consistent [A | b]
    (``n`` coefficients, then the rhs; each a positive multiple of its
    rational row), become the tableau in place; their pivot columns
    ``pivots`` are the starting basis.  A row with negative rhs is negated
    and made basic in an artificial (only the label ``n + i``), and phase
    one minimizes the sum of the artificials, with Bland's rule on both
    choices so that it terminates.  The reduced costs are the last row.
    """
    m, basis = len(rows), list(pivots)
    for i, row in enumerate(rows):
        if row[n] < 0:
            rows[i], basis[i] = [-x for x in row], n + i
    # Row i is its rational row times |rows[i][pivots[i]]| (a pivot entry of
    # the rational RREF is 1), so weighting each artificial row by lcm / that
    # factor makes the reduced-cost row lcm times minus their rational sum.
    art = [(rows[i], abs(rows[i][pivots[i]])) for i in range(m) if basis[i] >= n]
    scale = math.lcm(*(a for _, a in art))
    rows.append([-sum(scale // a * row[j] for row, a in art) for j in range(n + 1)])
    # No artificial column is needed, whichever rows started with one: the
    # reduced-cost row is always -y^T [rows | rhs] for some y, up to a positive
    # factor (every row stays a positive multiple of its rational row), so
    # once no structural reduced cost is negative, y^T rows <= 0 and the
    # objective is y^T rhs; any x >= 0 would give y^T rhs = y^T rows x <= 0.  A
    # positive minimum thus means no x >= 0 exists; a zero one leaves every artificial at 0.
    while True:
        z = rows[m]
        enter = next((j for j in range(n) if z[j] < 0), None)
        if enter is None:
            break
        leave = None
        for i in range(m):
            coeff = rows[i][enter]
            if coeff > 0:  # ratios rhs / coeff compared by cross-multiplying positive coeffs
                if leave is not None:
                    lhs, rhs = rows[i][n] * rows[leave][enter], rows[leave][n] * coeff
                if leave is None or lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            raise AssertionError("phase-one objective is bounded; no leaving row found")
        _pivot(rows, leave, enter)
        basis[leave] = enter

    if rows[m][n] != 0:  # minimal artificial sum is positive
        return None
    x = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = Fraction(rows[i][n], rows[i][var] * rhs_scale)
    return x


@functools.lru_cache(maxsize=8)
def _eliminated(
    mat: RatMatrix,
) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...], tuple[int, ...], tuple[tuple[int, tuple[int, ...]], ...]]:
    """(rows, pivots, gcds, forcing): the integer RREF of [mat | I_m] in the
    ``mat`` columns, and the one-signed rows of ``mat``, once per matrix.

    Row i < rank = ``len(pivots)`` is a positive multiple of (R_i | T_i),
    where R is the rational RREF of ``mat`` and T mat = R, so T_i b is the
    rhs entry of the rational RREF of [mat | b] for every consistent b;
    ``gcds[i]`` is the gcd of its ``mat`` part.  The other rows have a zero
    ``mat`` part, and their I parts span the left null space: b is
    consistent exactly when they are all orthogonal to it.  Only the ``mat``
    columns get pivots, so T_i may differ from a full RREF's by a left null
    vector, which leaves T_i b unchanged for every consistent b.
    ``forcing`` holds (i, support) for each row i of ``mat`` whose entries
    are all >= 0 or all <= 0: when rhs entry i is 0, every x >= 0 is 0 on
    that support.  Rows are tuples, so no caller can change a cached entry.
    One entry, an m x (n + m) tableau and its m x n key, takes 0.6 MB for
    the bundled 729-column ternary 6-cycle (m = 49): eight cover the few
    matrices a caller sweeps at once (the Bell matrix, one per n-cycle
    shape) in about 5 MB at that size.
    """
    m, n = mat.rows, mat.cols
    unit = (0,) * m
    rows, pivots = _rref_rows(_integer_rows(mat.row(i) + unit[:i] + (1,) + unit[i + 1 :] for i in range(m)), n)
    rows = tuple(tuple(row) for row in rows)
    forcing = tuple(
        (i, tuple(itertools.compress(range(n), row)))
        for i, row in enumerate(map(mat.row, range(m)))
        if min(row, default=0) >= 0 or max(row, default=0) <= 0
    )
    return rows, tuple(pivots), tuple(math.gcd(*row[:n]) for row in rows[: len(pivots)]), forcing


def lp_feasible(mat: RatMatrix, rhs: Sequence[Fraction]) -> FeasibilityResult:
    """Decide {x : mat x = rhs, x >= 0} != {} by exact rational simplex.

    Returns a witness when feasible; ``QuasiOnly`` when the equality system
    is consistent but no non-negative solution exists; ``Inconsistent``
    when the equality system itself is unsolvable.  The rhs is scaled once,
    by the lcm of its denominators, so that the table denominators stay out
    of the coefficients; the witness is divided by that scale at the end.
    ``mat`` itself is eliminated once, not once per call
    (:func:`_eliminated`): each call only transforms its rhs.  That gives
    the consistency verdict and, since the rational RREF of [mat | rhs] is
    unique, exactly its nonzero rows: the system and starting basis of the
    simplex.  A row of ``mat`` with rhs 0 and entries of one sign forces
    its support to 0 in every non-negative solution (a zero table cell: no
    joint outcome that hits it can carry mass).  When some column is
    forced, the simplex runs on the other, live columns only, from the RREF
    of [mat_live | rhs] (:func:`_live_simplex`), and the witness is 0 on the
    forced columns.  A pivot in that RREF's rhs column means ``QuasiOnly``
    with no simplex pivot, since [mat | rhs] is consistent.
    """
    if len(rhs) != mat.rows:
        raise ValueError(f"rhs length {len(rhs)} != rows {mat.rows}")
    n = mat.cols
    scale = math.lcm(*(b.denominator for b in rhs))
    scaled = [b.numerator * (scale // b.denominator) for b in rhs]
    rows, pivots, gcds, forcing = _eliminated(mat)
    rank = len(pivots)
    if any(sum(map(operator.mul, row[n:], scaled)) for row in rows[rank:]):  # 0 = nonzero
        return FeasibilityResult(Feasibility.INCONSISTENT, None, n - rank)
    tb = [sum(map(operator.mul, row[n:], scaled)) for row in rows[:rank]]
    forced = {j for i, support in forcing if not scaled[i] for j in support}
    if not forced:
        tableau = []
        for row, g, b in zip(rows, gcds, tb):
            g = math.gcd(g, b)
            tableau.append([x // g for x in row[:n]] + [b // g] if g > 1 else [*row[:n], b])
        x = _phase_one_simplex(tableau, pivots, n, scale)
    else:
        x = _live_simplex(rows, tb, forced, n, scale)
    if x is None:
        return FeasibilityResult(Feasibility.QUASI_ONLY, None, n - rank)
    return FeasibilityResult(Feasibility.PROPER, tuple(x), n - rank)


def _live_simplex(
    rows: Sequence[Sequence[int]], tb: Sequence[int], forced: set[int], n: int, scale: int
) -> Optional[list[Fraction]]:
    """:func:`_phase_one_simplex` on the columns outside ``forced``, its
    witness scattered back into ``n`` entries with 0 on ``forced``.

    ``rows`` are the rows (R_i | T_i) of :func:`_eliminated` and ``tb`` the
    rank entries T_i b.  The rank rows' R parts restricted to the live
    columns, with rhs T_i b, span the rows of [mat_live | b], so one more
    elimination gives its RREF.  That elimination is always needed: a
    forcing row is the combination of the R_i whose coefficients are its
    entries at their pivot columns, so its support holds a pivot column.
    """
    live = [j for j in range(n) if j not in forced]
    tableau = []
    for row, b in zip(rows, tb):
        r = [row[j] for j in live]
        r.append(b)
        g = math.gcd(*r)
        tableau.append([v // g for v in r] if g > 1 else r)
    tableau, basis = _rref_rows(tableau)
    if basis and basis[-1] == len(live):  # 0 = nonzero: x >= 0 would need a forced column
        return None
    x_live = _phase_one_simplex(tableau[: len(basis)], basis, len(live), scale)
    if x_live is None:
        return None
    x = [Fraction(0)] * n
    for j, v in zip(live, x_live):
        x[j] = v
    return x


def solve_problem(prob: MarginalProblem) -> FeasibilityResult:
    """Feasibility of a marginal problem (its tables are exact since construction)."""
    return lp_feasible(*build_constraint_system(prob))
