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
pattern of zero rhs entries, and every LP on it then only transforms its rhs,
paying only for the nonzero entries of that record.  Exact tables, rhs vectors
and witnesses keep their integers (:class:`bellquasi.exactla._Scaled`), so
each is scaled once.  A constraint row with rhs 0 and entries of one sign (a
zero cell of a prescribed table) is 0 on its whole support in every
non-negative solution, so the simplex pivots only on the other joint
outcomes.  This is the possibilistic reasoning of "nonlocality without
inequalities": on GHZ-Mermin or Hardy tables no joint outcome, or only one,
survives, and ``QuasiOnly`` follows without a pivot.  Its other ``QuasiOnly``
exit leaves a proof, read off the exit cost row z with no solve: z is a sum of
the starting rows (R_i | T_i b) and only row i is nonzero (a_i) at its pivot
column p_i, so u = sum_i z[p_i] / a_i T_i has uᵀA >= 0 on every live column
and uᵀb < 0, a Bell inequality that the data violate (Fine 1982, Pitowsky
1989).  An elimination keeps a few such u, checked exactly, and a later LP on
it that one refutes (uᵀb < 0) is ``QuasiOnly`` with no pivot, as the simplex
would find: x >= 0 with A x = b would give uᵀb = uᵀA x >= 0.  So no result
depends on earlier calls.  This module doubles as the independent oracle for
the specialized three-observable machinery in :mod:`bellquasi.quasi`.

A wide problem is solved on a chordal cover of its tables instead
(:func:`_cover`, once per shape): a greedy min-fill elimination order on
the primal graph (observables joined when they share a table), its maximal
cliques, a junction tree on them, and each table held by one clique.  When
the cliques' outcomes number fewer than half of the N joint outcomes, the
LP has one column per clique outcome: each clique's tables and
normalization, and on each separator S of the tree, the clique's marginal
equal to its parent's.  Non-negative clique tables that agree on the
separators glue to the joint p = prod p_C / prod p_S, 0 wherever p_S is 0
(Vorob'ev 1962), and signed ones always glue to a signed joint (add the
cliques one at a time: p'(u, e) = p(u) r(e) + (q_D(s, e) - q_S(s) r(e)) w(u),
for any r summing to 1 and any w summing to 1 over each separator outcome
s), so the clique LP decides all three verdicts exactly; the dimension is
read from the shape.  Otherwise, as for the Bell triple (one clique), the
LP is the dense one above.
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

from .exactla import DEFAULT_EPS, RatMatrix, Real, _over_lcm, _pivot, _reduced, _scaled, is_exact

#: Largest joint outcome count accepted before erroring out.
JOINT_SIZE_CAP = 10**6

#: Largest constraint matrix accepted, as its elimination holds it: rows x (joint outcomes + rows).
DENSE_SIZE_CAP = 10**7

#: Denominator bound used when floats are rationalized for exact runs.
RATIONALIZE_DENOMINATOR = 10**6

_DEGENERATE_RUN = 2  # consecutive degenerate pivots, per tableau row, before Bland's rule enters
_CERTIFICATES = 16  # Farkas vectors kept per elimination, most recently useful first
_NORMALIZATION = _scaled((Fraction(1), Fraction(0)))  # the rhs entry 1, as a table's entries but its last
_FLOAT_MAX = int(sys.float_info.max)


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
    """The exact copy of ``table``, kept with its integers (:func:`bellquasi.exactla._scaled`),
    which must be finite, non-negative and sum to 1: exactly when it is exact
    (:func:`bellquasi.exactla.is_exact`), else within ``DEFAULT_EPS``; ``ValueError`` names the
    table by ``what``.  Floats are rationalized and the largest entry moved so the total is
    exactly 1.  Each moves by at most 5e-7, but thousands of tiny ones can move the total by
    more than the largest entry holds: refused too."""
    ratios, converted = [], False
    for v in table:  # one pass over an exact table: each entry's type, then its integer ratio
        if type(v) is not Fraction:
            if isinstance(v, float) or not isinstance(v, (Fraction, int)):
                break
            converted = True
        ratios.append(v.as_integer_ratio())
    else:  # finite by type; sign and sum tested on integers over one denominator
        d = math.lcm(*[q for _, q in ratios])
        numerators = [n * (d // q) for n, q in ratios]
        if min(numerators, default=0) < 0:
            raise ValueError(f"negative entry in {what}")
        if sum(numerators) != d:
            raise ValueError(f"{what} does not sum to 1")
        return _scaled(tuple(map(Fraction, table)) if converted else table, (d, numerators))
    # NaN fails every comparison, so it would pass the two tests below.
    if not all(-math.inf < v < math.inf for v in table):
        raise ValueError(f"non-finite entry in {what}")
    if any(v < -DEFAULT_EPS for v in table):
        raise ValueError(f"negative entry in {what}")
    try:  # fsum rounds once: sum() changed its float rounding in Python 3.12
        total = math.fsum(table)
    except OverflowError:  # finite entries whose sum is past the float range
        total = math.inf
    if abs(total - 1) > DEFAULT_EPS:
        raise ValueError(f"{what} does not sum to 1")
    approx = [rationalize(v) for v in table]
    gap = 1 - sum(approx)
    if gap != 0:
        k = max(range(len(approx)), key=lambda i: approx[i])
        approx[k] += gap
        if approx[k] < 0:
            raise ValueError(f"{what}: cannot rationalize: sum repair made an entry negative")
    return _scaled(approx)


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
        return _stacked([[table for _, table in self.constraints]])

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


def _stacked(groups: Sequence[Sequence[Sequence[Fraction]]], rows: int = 0) -> tuple[Fraction, ...]:
    """The rhs of exact tables, kept with its integers (:func:`bellquasi.exactla._scaled`) read off
    the tables' own: for each group, each table's entries but its last (which have the table's lcm,
    the last being 1 minus their sum), then 1; then 0 up to ``rows`` entries."""
    scaled = [(table, _over_lcm(table)) for group in groups for table in (*group, _NORMALIZATION)]
    d = math.lcm(*[q for _, (q, _) in scaled])
    values, ints = [], []
    for table, (q, numerators) in scaled:
        values += table[:-1]
        ints += [v * (d // q) for v in numerators[:-1]]
    pad = [0] * (rows - len(values))
    return _scaled(values + pad, (d, ints + pad))


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
    alike on every IEEE platform, only rank exact negative costs: only
    those are scored, ``inv`` is positive, and a cost of either sign past
    the float range hands the run to Bland's rule); the leaving row has the
    least ratio among the rows with a positive entry in the entering
    column, ties to the lowest basic label.  It terminates: a pivot that
    leaves a row of rhs > 0 strictly lowers the objective, so no basis
    recurs across it, and after ``_DEGENERATE_RUN`` * m (m rows) pivots in a
    row that do not, Bland's rule (the first negative cost) enters for the
    rest of the run, and it cannot cycle.  The point keeps its integers; the
    exit cost row stays the last of ``rows``, for :func:`_learn`."""
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
        z, enter, best = rows[m], None, 0.0
        try:  # over the nonzero costs only; the rhs, entry k, is not priced
            for j in itertools.compress(range(k), z) if stall < limit else ():
                if (c := z[j]) < 0 and (score := c * inv[j]) < best:
                    enter, best = j, score
                elif c > _FLOAT_MAX:
                    float(c)  # unscored, but past the float range it raises as a negative cost does
        except OverflowError:  # a cost past the float range: Bland's rule for the rest of the run
            stall = limit
        if stall >= limit:
            enter = next((j for j in itertools.compress(range(k), z) if z[j] < 0), None)
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
    values = [(live[var], Fraction(rows[i][k], rows[i][var] * rhs_scale)) for i, var in enumerate(basis) if var < k]
    d = math.lcm(*(v.denominator for _, v in values))
    x, ints = [Fraction(0)] * n, [0] * n
    for j, v in values:
        x[j], ints[j] = v, v.numerator * (d // v.denominator)
    return _scaled(x, (d, ints))


@functools.lru_cache(maxsize=16)
def _eliminated(mat: RatMatrix, zero_rows: tuple[int, ...]):
    """(live, rows, pivots, inv, images, known): :func:`bellquasi.exactla._reduced` on the rows ``kept``
    and the columns ``live`` of ``mat`` left once each one-signed row in ``zero_rows`` (rhs 0: a
    zero table cell) drops its support and itself (it is then 0 on every live column, so it says
    nothing about the live system): ``rows`` the live parts of its rank rows, ``inv`` the pricing
    weights of :func:`_phase_one_simplex`, ``images`` each row's T part, rank rows first, as a getter
    of the rhs entries (rows of ``mat``) at its nonzero positions and their values (:func:`_applied`),
    with no dense copy, ``known`` in that form the Farkas vectors of QuasiOnly exits on it (:func:`_learn`).
    No rhs changes the others; ``known`` changes only how fast a result comes.  Every LP looks up the full
    elimination, ``zero_rows = ()``, first, so under LRU it stays.  An entry is 0.29 MB for the 729-column 6-cycle."""
    rows = list(map(mat.row, range(mat.rows)))
    forcing = {i for i in zero_rows if not min(rows[i], default=0) < 0 < max(rows[i], default=0)}
    forced = {j for i in forcing for j, c in enumerate(rows[i]) if c}
    keep = [j not in forced for j in range(mat.cols)]
    live = tuple(itertools.compress(range(mat.cols), keep))
    kept = tuple(i for i in range(mat.rows) if i not in forcing)
    rows, pivots = _reduced([tuple(itertools.compress(rows[i], keep)) if forced else rows[i] for i in kept])
    k, images = len(live), []
    for row in rows:  # T_i != 0 (T is invertible); a zero term keeps a one-position getter returning a tuple
        at = [kept[j] for j in itertools.compress(range(len(kept)), row[k:])]
        images.append((operator.itemgetter(*at, at[0]), (*filter(None, row[k:]), 0)))
    rows = [row[:k] for row in rows[: len(pivots)]]
    norms = [1.0] * k
    for row, p in zip(rows, pivots):
        a = row[p]
        try:
            norms = [s + (c / a) ** 2 for s, c in zip(norms, row)]
        except OverflowError:
            norms = [s + _squared(c, a) for s, c in zip(norms, row)]
    # clamped, so every weight is positive and a score is < 0 exactly when its integer cost is
    return live, rows, pivots, tuple([1 / math.sqrt(min(s, sys.float_info.max)) for s in norms]), tuple(images), []


def _applied(images, b: Sequence[int]):
    """T_i b, lazily, for each ``(get, values)`` of :func:`_eliminated`'s ``images``: ``get(b)`` dotted with ``values``."""
    return (sum(map(operator.mul, get(b), values)) for get, values in images)


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
    denominators (or read so scaled from a kept rhs), so that the table
    denominators stay out of the coefficients; the simplex returns the
    witness divided by it, 0 on the forced columns, with its integers.
    ``mat`` is eliminated once per pattern of zero rhs entries
    (:func:`_eliminated`), and each call only transforms its rhs, over T's
    nonzero entries: a rank row's live part, with T_i b, is its tableau row.
    The simplex reads a row only up to a positive factor, and
    :func:`bellquasi.exactla._pivot` divides every row it updates by its
    gcd.  The full elimination decides consistency and rank.  The one for
    the call's zero rows drops the columns that a zero row of one sign
    forces to 0, and those rows, and, the rational RREF of [mat_live | rhs]
    being unique, gives exactly its nonzero rows: the simplex's system and
    starting basis.
    A null row there with T b != 0 means ``QuasiOnly`` with no pivot:
    [mat | rhs] is consistent, so x >= 0 would need a forced column.  So
    does a kept Farkas vector u with uᵀb < 0, checked before the tableau is
    built; a QuasiOnly exit of the simplex keeps its own (:func:`_learn`)."""
    if len(rhs) != mat.rows:
        raise ValueError(f"rhs length {len(rhs)} != rows {mat.rows}")
    if not is_exact(rhs):
        raise TypeError("rhs entries must be exact rationals; rationalize floats first")
    n = mat.cols
    scale, b = _over_lcm(rhs)
    *_, pivots, _, images, _ = _eliminated(mat, ())
    rank = len(pivots)
    if any(_applied(images[rank:], b)):  # 0 = nonzero
        return FeasibilityResult(Feasibility.INCONSISTENT, None, n - rank)
    live, rows, pivots, inv, images, known = _eliminated(mat, tuple(itertools.compress(range(len(b)), map(operator.not_, b))))
    # only with a forced column can a live null row have T b != 0 (0 = nonzero): x >= 0 would need it
    if len(live) < n and any(_applied(images[len(pivots) :], b)):
        return FeasibilityResult(Feasibility.QUASI_ONLY, None, n - rank)
    for i, dot in enumerate(_applied(known, b)):  # a kept Farkas vector u with uᵀb < 0: no x >= 0 exists
        if dot < 0:
            known.insert(0, known.pop(i))
            return FeasibilityResult(Feasibility.QUASI_ONLY, None, n - rank)
    tableau = [[*row, t] for row, t in zip(rows, _applied(images, b))]  # t = T_i b
    x = _phase_one_simplex(tableau, pivots, live, n, scale, inv)
    if x is None:
        _learn(known, mat, live, rows, pivots, images, tableau[-1], b)
    return FeasibilityResult(Feasibility.QUASI_ONLY if x is None else Feasibility.PROPER, x, n - rank)


def _learn(known: list, mat: RatMatrix, live, rows, pivots, images, z: Sequence[int], b: Sequence[int]) -> None:
    """Put first in ``known``, of at most ``_CERTIFICATES``, the Farkas vector u that a QuasiOnly exit's cost row
    ``z`` gives (module docstring), in the form of ``images``, once uᵀA_live >= 0 and uᵀb < 0 hold on ``mat``."""
    m, a = mat.rows, math.lcm(*(row[p] for row, p in zip(rows, pivots)))
    u = [0] * m
    for row, p, (get, values) in zip(rows, pivots, images):  # u = sum_i z[p_i] lcm(a) / a_i T_i
        for i, t in zip(get(range(m)), values):
            u[i] += z[p] * (a // row[p]) * t
    at, g = [i for i in range(m) if u[i]], math.gcd(*u)
    if min(sum(u[i] * mat.entry(i, j) for i in at) for j in live) < 0 or sum(u[i] * b[i] for i in at) >= 0:
        raise AssertionError("the exit cost row gives no Farkas certificate")
    known[:] = [(operator.itemgetter(*at, at[0]), (*(u[i] // g for i in at), 0)), *known][:_CERTIFICATES]


def solve_problem(prob: MarginalProblem) -> FeasibilityResult:
    """Feasibility of a marginal problem (its tables are exact since construction): on the
    clique LP of its shape's :func:`_cover` (rhs: :func:`_stacked`), the witness glued
    (:func:`_glued`), or, when there is none, on :func:`build_constraint_system`."""
    cover = _cover(*prob._shape)
    if cover is None:
        return lp_feasible(*build_constraint_system(prob))
    _, held, mat, homogeneous_dim, glue = cover
    result = lp_feasible(mat, _stacked([[prob.constraints[t][1] for t in tables] for tables in held], mat.rows))
    witness = result.witness and _glued(glue, prob.cardinalities(), result.witness)
    return FeasibilityResult(result.status, witness, homogeneous_dim)


@functools.lru_cache(maxsize=8)
def _cover(cards: tuple[int, ...], shape: tuple[tuple[int, ...], ...]) -> Optional[tuple]:
    """The chordal cover of a shape, ``(cliques, held, matrix, homogeneous_dim, glue)``, or None
    when its cliques have at least half as many outcomes as the joint, so the dense LP of
    :func:`_constraint_matrix` is used.  ``cliques`` are observable positions, ascending, the
    root first and each after its parent; ``held`` the tables each clique holds, by position in
    the shape; ``matrix`` the clique LP (:func:`_clique_matrix`); ``glue``, per clique, its
    separator with its parent (none for the root), its other observables, and for each of its
    outcomes, row-major, their values on each and the joint index of the latter.

    Observables are eliminated greedily by least fill (pairs of remaining neighbours not yet
    joined; lowest position on ties), each with its remaining neighbours forming a clique, and
    the maximal ones are joined by a maximum-weight spanning tree of their intersection sizes,
    which on the cliques of a chordal graph is a junction tree (a component of its own hangs on
    an empty separator).  Each table goes to the first clique, in tree order, that holds it."""
    adj = {v: set() for v in range(len(cards))}
    for positions in shape:
        for p in positions:
            adj[p].update(q for q in positions if q != p)
    cliques: list[set[int]] = []
    while adj:
        v = min(adj, key=lambda v: sum(len(adj[v] - adj[u]) - 1 for u in adj[v]))  # twice the fill
        clique = adj.pop(v)
        for u in clique:
            adj[u] |= clique - {u}
            adj[u].discard(v)
        clique.add(v)
        if not any(clique <= c for c in cliques):
            cliques.append(clique)
    if 2 * sum(math.prod(cards[p] for p in c) for c in cliques) >= math.prod(cards):
        return None
    # link: for each clique outside the tree, the tree clique it shares the most observables with
    order, parents, link = [0], [], {j: 0 for j in range(1, len(cliques))}
    while link:
        j = max(link, key=lambda j: len(cliques[j] & cliques[link[j]]))
        parents.append(order.index(link.pop(j)))
        order.append(j)
        for i in link:
            if len(cliques[i] & cliques[j]) > len(cliques[i] & cliques[link[i]]):
                link[i] = j
    cliques = [cliques[i] for i in order]
    held: list[list[int]] = [[] for _ in cliques]
    for t, positions in enumerate(shape):
        held[next(i for i, c in enumerate(cliques) if c.issuperset(positions))].append(t)
    links = tuple((parent, tuple(sorted(cliques[child] & cliques[parent]))) for child, parent in enumerate(parents, 1))
    cliques, held = tuple(tuple(sorted(c)) for c in cliques), tuple(map(tuple, held))
    strides = [math.prod(cards[i + 1 :]) for i in range(len(cards))]
    glue = []
    for clique, separator in zip(cliques, ((), *(s for _, s in links))):
        new = tuple(p for p in clique if p not in separator)
        outcomes = [dict(zip(clique, outcome)) for outcome in itertools.product(*(range(cards[p]) for p in clique))]
        plan = [(tuple(o[p] for p in separator), tuple(o[p] for p in new), sum(o[p] * strides[p] for p in new)) for o in outcomes]
        glue.append((separator, new, tuple(plan)))
    return cliques, held, _clique_matrix(cards, shape, cliques, held, links), _homogeneous_dim(cards, shape), tuple(glue)


def _clique_matrix(cards, shape, cliques, held, links) -> RatMatrix:
    """The clique LP: on each clique's own columns, the :func:`_constraint_matrix` of its tables
    ``held`` (their rows, then its normalization); then for each clique but the root, linked to
    its parent by a separator, that of the separator alone but the normalization, in the clique
    minus in the parent (rhs 0).  A one-clique cover of every observable, its tables in their
    order, gives :func:`_constraint_matrix`."""
    offsets = list(itertools.accumulate((math.prod(cards[p] for p in c) for c in cliques), initial=0))

    def placed(c, tables, sign=1):  # the rows of clique c's _constraint_matrix over ``tables``, widened
        local = tuple(tuple(map(cliques[c].index, t)) for t in tables)
        block = _constraint_matrix.__wrapped__(tuple(cards[p] for p in cliques[c]), local)
        return [[0] * offsets[c] + [sign * v for v in block.row(i)] + [0] * (offsets[-1] - offsets[c + 1]) for i in range(block.rows)]

    rows = [row for c, ts in enumerate(held) for row in placed(c, [shape[t] for t in ts])]
    for child, (parent, separator) in enumerate(links, 1):
        rows += [list(map(operator.add, a, b)) for a, b in zip(placed(child, [separator]), placed(parent, [separator], -1))][:-1]
    return RatMatrix.from_rows(rows)


def _homogeneous_dim(cards: tuple[int, ...], shape: tuple[tuple[int, ...], ...]) -> int:
    """N - rank of the dense constraint matrix, from the shape alone: its rows span the functions
    of the joint outcome that depend only on some table's observables, the sum over the
    down-closure of the tables, the empty set included, of the functions of exactly T that sum
    to 0 along each of its observables, of dimension prod over T of (k_i - 1)."""
    closure = {frozenset(sub) for positions in shape for r in range(len(positions) + 1) for sub in itertools.combinations(positions, r)}
    return math.prod(cards) - sum(math.prod(cards[i] - 1 for i in t) for t in closure | {frozenset()})


def _glued(glue: tuple, cards: tuple[int, ...], x: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """The joint prod p_C / prod p_S of the clique LP's non-negative solution ``x``, built
    outward from the root's support in integers (the entries of ``x`` over one lcm, which its
    witness keeps) with one ``Fraction`` per joint outcome in its support, and 0 elsewhere: an
    outcome whose separator marginal is 0 is not reached.  Each clique outcome in the support extends every partial
    outcome that agrees with it on the separator (whose marginal, from either side, is the same)."""
    _, ints = _over_lcm(x)
    partials = [([0] * len(cards), 0, 1, 1)]  # (outcome so far, its joint index, numerator, denominator)
    start = 0
    for separator, new, outcomes in glue:
        grow: dict[tuple[int, ...], list] = {}  # separator values: [their marginal, their extensions]
        for o in itertools.compress(range(len(outcomes)), ints[start : start + len(outcomes)]):
            key, values, step = outcomes[o]
            entry = grow.setdefault(key, [0, []])
            entry[0] += ints[start + o]
            entry[1].append((values, step, ints[start + o]))
        start += len(outcomes)
        grown = []
        for outcome, index, num, den in partials:
            total, extensions = grow[tuple(outcome[p] for p in separator)]
            for values, step, a in extensions:
                nxt = outcome.copy()
                for p, v in zip(new, values):
                    nxt[p] = v
                grown.append((nxt, index + step, num * a, den * total))
        partials = grown
    joint = [Fraction(0)] * math.prod(cards)
    for _, index, num, den in partials:
        joint[index] = Fraction(num, den)
    return tuple(joint)
