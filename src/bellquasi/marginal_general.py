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

The decision procedure is an exact rational phase-one simplex that prices
by the column norms of its starting tableau and falls back to Bland's rule
when pivots stall, so it terminates, and it is authoritative on boundary
cases where a floating solver could not adjudicate.  It starts from the RREF
of the constraints, stores no artificial columns, and pivots with the one
Gauss-Jordan step of :mod:`bellquasi.exactla`.  A constraint matrix is
eliminated with an identity block that records the row operations, once per
pattern of zero rhs entries, and every LP on it then only transforms its
rhs.  A constraint row with rhs 0 and entries of one sign (a zero cell of a
prescribed table) is 0 on its whole support in every non-negative solution,
so the simplex pivots only on the other joint outcomes.  This is the
possibilistic reasoning of "nonlocality without inequalities": on
GHZ-Mermin or Hardy tables no joint outcome, or only one, survives, and
``QuasiOnly`` follows without a pivot.  This module doubles as the
independent oracle for the specialized three-observable machinery in
:mod:`bellquasi.quasi`.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import operator
import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence

from .exactla import DEFAULT_EPS, RatMatrix, Real, _images, _over_lcm, _pivot, _reduced, is_exact

#: Largest joint outcome count accepted before erroring out.
JOINT_SIZE_CAP = 10**6

#: Largest constraint matrix accepted, as its elimination holds it: rows x (joint outcomes + rows).
DENSE_SIZE_CAP = 10**7

#: Denominator bound used when floats are rationalized for exact runs.
RATIONALIZE_DENOMINATOR = 10**6

_DEGENERATE_RUN = 2  # consecutive degenerate pivots, per tableau row, before Bland's rule enters


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


def check_distribution(table: tuple[Real, ...], what: str) -> tuple[Fraction, ...]:
    """The exact copy of ``table``, which must be finite, non-negative and
    sum to 1: exactly when it is exact (:func:`bellquasi.exactla.is_exact`),
    else within ``DEFAULT_EPS``; ``ValueError`` names the table by ``what``.
    Floats are rationalized and the largest entry moved so the total is
    exactly 1.  Each moves by at most 5e-7, but thousands of tiny ones can
    move the total by more than the largest entry holds: refused too."""
    if is_exact(table):
        # Finite by type; sign and sum tested on integers over one denominator.
        d, numerators = _over_lcm(table)
        if any(n < 0 for n in numerators):
            raise ValueError(f"negative entry in {what}")
        if sum(numerators) != d:
            raise ValueError(f"{what} does not sum to 1")
        return tuple([v if type(v) is Fraction else Fraction(v) for v in table])
    # NaN fails every comparison, so it would pass the two tests below.
    if not all(-math.inf < v < math.inf for v in table):
        raise ValueError(f"non-finite entry in {what}")
    if any(v < -DEFAULT_EPS for v in table):
        raise ValueError(f"negative entry in {what}")
    # fsum rounds once: sum() changed its float rounding in Python 3.12
    if abs(math.fsum(table) - 1) > DEFAULT_EPS:
        raise ValueError(f"{what} does not sum to 1")
    approx = [rationalize(v) for v in table]
    gap = 1 - sum(approx)
    if gap != 0:
        k = max(range(len(approx)), key=lambda i: approx[i])
        approx[k] += gap
        if approx[k] < 0:
            raise ValueError(f"{what}: cannot rationalize: sum repair made an entry negative")
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
    always exact ``Fraction`` tuples (:func:`check_distribution`).  Then an
    elimination [A | I] over ``DENSE_SIZE_CAP`` entries is refused.
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
        joint = 1
        for c in cards.values():  # stops at the cap: the full product of many observables is huge
            if (joint := joint * c) > JOINT_SIZE_CAP:
                raise ValueError(f"joint outcome count exceeds cap {JOINT_SIZE_CAP}")
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
            size = math.prod(cards[n] for n in subset)
            if len(table) != size:
                raise ValueError(f"constraint {i}: table has {len(table)} entries, expected {size}")
            constraints.append((subset, check_distribution(table, f"table of constraint {i}")))
        object.__setattr__(self, "constraints", tuple(constraints))
        rows = 1 + sum(len(table) - 1 for _, table in constraints)
        if rows * (joint + rows) > DENSE_SIZE_CAP:
            shape = f"{rows} x {joint}" if rows * joint > DENSE_SIZE_CAP else f"{rows} x ({joint} + {rows})"
            raise ValueError(f"constraint matrix of {shape} entries exceeds cap {DENSE_SIZE_CAP}")

    @classmethod
    def _checked(cls, observables, constraints, rhs, shape) -> "MarginalProblem":
        """A problem from input in the form :meth:`__post_init__` stores, with its :attr:`_rhs` and :attr:`_shape`, taken with no check."""
        prob = object.__new__(cls)
        vars(prob).update(observables=observables, constraints=constraints, _rhs=rhs, _shape=shape)
        return prob

    @functools.cached_property
    def _shape(self) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """The key of :func:`_constraint_matrix`, built once: the cardinalities and each constraint's observable positions."""
        index = {name: i for i, (name, _) in enumerate(self.observables)}
        return self.cardinalities(), tuple(tuple(index[name] for name in subset) for subset, _ in self.constraints)

    @functools.cached_property
    def _rhs(self) -> tuple[Fraction, ...]:
        """The rhs of :func:`build_constraint_system`, built once: each table's entries but its last, then 1."""
        return (*[v for _, table in self.constraints for v in table[:-1]], Fraction(1))

    def joint_size(self) -> int:
        return math.prod(c for _, c in self.observables)

    def cardinalities(self) -> tuple[int, ...]:
        return tuple(c for _, c in self.observables)


def build_constraint_system(prob: MarginalProblem) -> tuple[RatMatrix, tuple[Fraction, ...]]:
    """Linear system "joint sums = prescribed marginal entries" + normalization.

    One 0/1 integer row per table entry but the last, in the order the
    constraints were given, each table row-major over its outcome grid; the
    all-ones normalization row comes last.  A table's final entry is
    omitted because its row is implied by the others together with the
    table summing to 1.  ``prob`` was validated, joint size cap included,
    and its tables made exact when it was constructed.  The matrix depends
    only on the problem's shape, its cardinalities and each constraint's
    observable positions, never on the tables: problems of one shape share
    one cached matrix (:func:`_constraint_matrix`), which then also keys the
    elimination cache of :func:`lp_feasible`.  The problem keeps its shape
    key (``prob._shape``) and its rhs (``prob._rhs``), built from its tables
    or, in :func:`bellquasi.quasi.bell_problem`, handed over with its triple.
    """
    return _constraint_matrix(*prob._shape), prob._rhs


@functools.lru_cache(maxsize=8)
def _constraint_matrix(cards: tuple[int, ...], shape: tuple[tuple[int, ...], ...]) -> RatMatrix:
    """The 0/1 matrix of :func:`build_constraint_system` for observables of
    cardinalities ``cards`` and constraints over the observable positions
    ``shape``, built once per shape.  Eight entries cover the few shapes a
    caller sweeps at once."""
    joint_outcomes = list(itertools.product(*(range(c) for c in cards)))
    size = len(joint_outcomes)
    flat: list[int] = []
    for positions in shape:
        last = math.prod(cards[p] for p in positions) - 1
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
    flat.extend([1] * size)
    return RatMatrix(len(flat) // size, size, tuple(flat))


@dataclass(frozen=True)
class FeasibilityResult:
    """Answer to a marginal problem: status, optional witness joint table,
    and the dimension of the homogeneous solution space."""

    status: Feasibility
    witness: Optional[tuple[Fraction, ...]]
    homogeneous_dim: int


def _phase_one_simplex(
    rows: list[list[int]], pivots: Sequence[int], live: Sequence[int], n: int, rhs_scale: int, inv: Sequence[float]
) -> Optional[tuple[Fraction, ...]]:
    """The exact feasible point of {x >= 0 : A x = rhs / rhs_scale}, its ``n``
    entries 0 off the columns ``live`` of A, or None.

    ``rows``, the nonzero integer rows of the RREF of a consistent
    [A_live | b] (k = ``len(live)`` coefficients, then the rhs; each a
    positive multiple of its rational row), become the tableau in place;
    their pivot columns ``pivots`` are the starting basis, and basic
    variable j < k is entry ``live[j]`` of the point.  A row with negative
    rhs is negated and made basic in an artificial (only the label k + i),
    and phase one minimizes the sum of the artificials.  The reduced costs
    are the last row, which starts as a weighted sum of the artificial rows,
    taken at their nonzero entries.  The entering column has the least
    reduced cost times ``inv[j]`` = 1 / sqrt(1 + |T_j|^2), T_j its column in
    the starting rational RREF, lowest index on ties (floats, which round
    alike on every IEEE platform, only rank exact negative costs: ``inv``
    is positive, and a cost past the float range hands the run to Bland's
    rule); the leaving row has the least ratio, ties to the lowest basic
    label.  It terminates: a pivot that leaves a row of rhs > 0 strictly
    lowers the objective, so no basis recurs across it, and after
    ``_DEGENERATE_RUN`` * m (m rows) pivots in a row that do not, Bland's
    rule (the first negative cost) enters for the rest of the run, and it
    cannot cycle."""
    m, k, basis = len(rows), len(live), list(pivots)
    for i, row in enumerate(rows):
        if row[k] < 0:
            rows[i], basis[i] = [-x for x in row], k + i
    # Row i is its rational row times |rows[i][pivots[i]]| (a pivot entry of
    # the rational RREF is 1), so weighting each artificial row by lcm / that
    # factor makes the reduced-cost row lcm times minus their rational sum.
    art = [(rows[i], abs(rows[i][pivots[i]])) for i in range(m) if basis[i] >= k]
    scale = math.lcm(*(a for _, a in art))
    cost = [0] * (k + 1)
    for row, a in art:
        w = scale // a
        for j in itertools.compress(range(k + 1), row):
            cost[j] -= w * row[j]
    rows.append(cost)
    # No artificial column is needed, whichever rows started with one: the
    # reduced-cost row is always -y^T [rows | rhs] for some y, up to a positive
    # factor (every row stays a positive multiple of its rational row), so
    # once no structural reduced cost is negative, y^T rows <= 0 and the
    # objective is y^T rhs; any x >= 0 would give y^T rhs = y^T rows x <= 0.  A
    # positive minimum thus means no x >= 0 exists; a zero one leaves every artificial at 0.
    stall, limit = 0, _DEGENERATE_RUN * m
    while True:
        z = rows[m]
        try:  # inv has k entries: the rhs is not scored
            score = list(map(operator.mul, z, inv)) if stall < limit else None
        except OverflowError:  # a cost past the float range: Bland's rule for the rest of the run
            score, stall = None, limit
        if score is not None:
            low = min(score)
            enter = score.index(low) if low < 0 else None
        else:
            enter = next((j for j in range(k) if z[j] < 0), None)
        if enter is None:
            break
        leave = None
        for i in range(m):
            coeff = rows[i][enter]
            if coeff > 0:  # ratios rhs / coeff compared by cross-multiplying positive coeffs
                if leave is not None:
                    lhs, rhs = rows[i][k] * rows[leave][enter], rows[leave][k] * coeff
                if leave is None or lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            raise AssertionError("phase-one objective is bounded; no leaving row found")
        stall = stall + 1 if rows[leave][k] == 0 or stall >= limit else 0
        _pivot(rows, leave, enter)
        basis[leave] = enter

    if rows[m][k] != 0:  # minimal artificial sum is positive
        return None
    x = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < k:
            x[live[var]] = Fraction(rows[i][k], rows[i][var] * rhs_scale)
    return tuple(x)


@functools.lru_cache(maxsize=16)
def _eliminated(mat: RatMatrix, zero_rows: tuple[int, ...]):
    """(live, rows, pivots, inv): :func:`bellquasi.exactla._reduced` on the columns ``live`` of
    ``mat`` left once each one-signed row in ``zero_rows`` (rhs 0: a zero table cell) drops its
    support, and the pricing weights of :func:`_phase_one_simplex`; no rhs changes any of them.
    Every LP looks up the full elimination, ``zero_rows = ()``, first, so under LRU it stays
    while zero patterns come and go.  An entry is 0.38 MB for the 729-column 6-cycle."""
    one_signed = [row for row in map(mat.row, zero_rows) if not min(row, default=0) < 0 < max(row, default=0)]
    forced = {j for row in one_signed for j, c in enumerate(row) if c}
    keep = [j not in forced for j in range(mat.cols)]
    live = tuple(itertools.compress(range(mat.cols), keep))
    rows = [tuple(itertools.compress(row, keep)) if forced else row for row in map(mat.row, range(mat.rows))]
    rows, pivots = _reduced(rows)
    norms = [1.0] * len(live)
    for row, p in zip(rows, pivots):
        norms = [s + _squared(c, row[p]) for s, c in zip(norms, row)]
    # clamped, so every weight is positive and a score is < 0 exactly when its integer cost is
    return live, rows, pivots, tuple([1 / math.sqrt(min(s, sys.float_info.max)) for s in norms])


def _squared(c: int, a: int) -> float:
    """(c / a) ** 2, or the largest float where that passes the float range."""
    try:
        return (c / a) ** 2
    except OverflowError:
        return sys.float_info.max


def lp_feasible(mat: RatMatrix, rhs: Sequence[Fraction]) -> FeasibilityResult:
    """Decide {x : mat x = rhs, x >= 0} != {} by exact rational simplex.

    Returns a witness when feasible; ``QuasiOnly`` when the equality system
    is consistent but no non-negative solution exists; ``Inconsistent``
    when the equality system itself is unsolvable.  ``rhs`` must be exact
    (``TypeError`` otherwise).  It is scaled once, by the lcm of its
    denominators, so that the table denominators stay out of the
    coefficients; the simplex returns the witness divided by it, 0 on the
    forced columns.  ``mat`` is eliminated once per pattern of zero rhs
    entries (:func:`_eliminated`), and each call only transforms its rhs: a
    rank row becomes the tableau row (its live part, T_i b) as it stands.
    The simplex reads a row only up to a positive factor, and
    :func:`bellquasi.exactla._pivot` divides every row it updates by its
    gcd.  The full elimination decides consistency and rank.  The one for
    the call's zero rows drops the columns that a zero row of one sign
    forces to 0, and, the rational RREF of [mat_live | rhs] being unique,
    gives exactly its nonzero rows: the simplex's system and starting basis.
    A null row there with T b != 0 means ``QuasiOnly`` with no pivot:
    [mat | rhs] is consistent, so x >= 0 would need a forced column."""
    if len(rhs) != mat.rows:
        raise ValueError(f"rhs length {len(rhs)} != rows {mat.rows}")
    if not is_exact(rhs):
        raise TypeError("rhs entries must be exact rationals; rationalize floats first")
    n = mat.cols
    scale, scaled = _over_lcm(rhs)
    _, rows, pivots, _ = _eliminated(mat, ())
    rank = len(pivots)
    if any(_images(rows[rank:], n, scaled)):  # 0 = nonzero
        return FeasibilityResult(Feasibility.INCONSISTENT, None, n - rank)
    live, rows, pivots, inv = _eliminated(mat, tuple(i for i, b in enumerate(scaled) if not b))
    k = len(live)
    tableau = [[*row[:k], b] for row, b in zip(rows[: len(pivots)], _images(rows, k, scaled))]  # b = T_i b
    # only with a forced column can a live null row have T b != 0 (0 = nonzero): x >= 0 would need it
    quasi_only = k < n and any(_images(rows[len(pivots) :], k, scaled))
    x = None if quasi_only else _phase_one_simplex(tableau, pivots, live, n, scale, inv)
    return FeasibilityResult(Feasibility.QUASI_ONLY if x is None else Feasibility.PROPER, x, n - rank)


def solve_problem(prob: MarginalProblem) -> FeasibilityResult:
    """Feasibility of a marginal problem (its tables are exact since construction)."""
    return lp_feasible(*build_constraint_system(prob))
