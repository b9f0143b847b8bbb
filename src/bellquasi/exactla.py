"""Exact dense linear algebra over the rationals.

Ranks, null spaces, pseudoinverses and linear solves are computed exactly,
with no floating-point tolerance; the pseudoinverse solves the stacked
normal equations [aᵀa; Nᵀ] X = [aᵀ; 0] in one elimination.  Matrix entries
are ints or :class:`fractions.Fraction` values, results are ``Fraction``
values and vectors are plain tuples of them, but every elimination inside
works on rows of Python ints (each a positive multiple of its rational row,
divided by its gcd), which costs far less than ``Fraction`` arithmetic, and
its one step (:func:`_pivot`) touches only the nonzero columns of the pivot
row.  Conversion to floats, where needed, is the caller's job.  Sized for
small matrices: tens of rows and up to a few hundred columns, the LPs of
:mod:`bellquasi.marginal_general`.
The package's one tolerance policy lives here too: :func:`is_exact` tells
exact inputs from float ones, :func:`tolerance` turns that into the
comparison slack, and :func:`check_distribution` applies it to tables.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

#: An exact matrix entry.
Rational = Union[int, Fraction]

#: Scalar accepted by the dual-mode (exact or float) code paths.
Real = Union[float, Fraction, int]

#: The package's float tolerance; exact values ignore it (:func:`tolerance`).
DEFAULT_EPS = 1e-10


def is_exact(values: Iterable[Real]) -> bool:
    """The package's one exactness rule: exact when every value is an int or
    Fraction.  Exact values are compared exactly (tolerance 0); anything
    else is compared at a float tolerance."""
    # A plain loop, not all(<generator>): this runs several times per scan
    # cell, and the generator costs a few times more.  Floats leave first:
    # Fraction is an ABC, and its isinstance test is the slow one.
    for v in values:
        if isinstance(v, float) or not isinstance(v, (Fraction, int)):
            return False
    return True


def tolerance(values: Iterable[Real], eps: float = DEFAULT_EPS) -> float:
    """The package's one comparison rule: the slack when testing ``values``,
    or quantities derived from them: 0 for exact values, else ``eps``."""
    return 0 if is_exact(values) else eps


def check_distribution(table: Sequence[Real], what: str, eps: float = DEFAULT_EPS) -> None:
    """Raise ``ValueError`` unless ``table`` is finite, non-negative and sums
    to 1 within ``tolerance(table, eps)``; ``what`` names the table in the
    error."""
    # NaN fails every comparison, so it would pass the two tests below.
    if not all(-math.inf < v < math.inf for v in table):
        raise ValueError(f"non-finite entry in {what}")
    tol = tolerance(table, eps)
    if any(v < -tol for v in table):
        raise ValueError(f"negative entry in {what}")
    if abs(sum(table) - 1) > tol:
        raise ValueError(f"{what} does not sum to 1")


@dataclass(frozen=True)
class RatMatrix:
    """Immutable dense matrix of exact rationals (ints or Fractions), stored
    row-major."""

    rows: int
    cols: int
    entries: tuple[Rational, ...]

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"entry count {len(self.entries)} != rows*cols = {self.rows * self.cols}"
            )

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Rational]]) -> "RatMatrix":
        """Fractions from rows of ints and Fractions; floats must be rationalized first."""
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        flat = []
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
            for v in r:
                if not isinstance(v, (int, Fraction)):
                    raise TypeError(f"expected an exact rational value, got {type(v).__name__}")
                flat.append(Fraction(v))
        return cls(nrows, ncols, tuple(flat))

    def entry(self, i: int, j: int) -> Rational:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Rational, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def row_lists(self) -> list[list[Rational]]:
        """Mutable copy of the rows, for elimination algorithms."""
        return [list(self.entries[i * self.cols : (i + 1) * self.cols]) for i in range(self.rows)]

    def transpose(self) -> "RatMatrix":
        return RatMatrix(
            self.cols,
            self.rows,
            tuple(self.entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)),
        )


def _pivot(rows: list[list[int]], r: int, c: int) -> None:
    """The one Gauss-Jordan step of every elimination and of the simplex, in
    place, on integer rows that each stand for a positive multiple of a
    rational row: make entry ``c`` of row ``r`` positive (rather than 1),
    then clear column ``c`` elsewhere, dividing each updated row by its gcd.
    A row is updated only at the nonzero columns of the pivot row: it is
    copied when the pivot entry is 1 and scaled by that entry otherwise."""
    if rows[r][c] < 0:
        rows[r] = [-x for x in rows[r]]
    p = rows[r][c]
    nonzeros = [(j, b) for j, b in enumerate(rows[r]) if b]
    for i, row in enumerate(rows):
        f = row[c]
        if i != r and f != 0:
            row = row[:] if p == 1 else [p * a for a in row]
            for j, b in nonzeros:
                row[j] -= f * b
            g = math.gcd(*row)
            rows[i] = [x // g for x in row] if g > 1 else row


def _integer_rows(rational_rows: Iterable[Sequence[Rational]]) -> list[list[int]]:
    """Each rational row scaled once to integers by the lcm of its denominators."""
    rows = []
    for row in rational_rows:
        scale = math.lcm(*{x.denominator for x in row})
        if scale == 1:  # ints, or Fractions that are whole
            rows.append([x.numerator for x in row])
        else:
            rows.append([x.numerator * (scale // x.denominator) for x in row])
    return rows


def _rref_rows(rows: list[list[int]], ncols: Optional[int] = None) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form, in place, of integer rows that each stand
    for a positive multiple of a rational row (see :func:`_integer_rows`);
    returns (rows, pivot column indices).  Row ``j`` of the result divided
    by its pivot entry ``rows[j][pivots[j]]`` (positive) is the rational
    RREF row.  With ``ncols``, only the first ``ncols`` columns get pivots;
    the columns after them are carried along unreduced, and the rows past
    the rank are zero in the first ``ncols``."""
    nrows = len(rows)
    if ncols is None:
        ncols = len(rows[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot_row = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        _pivot(rows, r, c)
        pivots.append(c)
        r += 1
    return rows, pivots


def rank(m: RatMatrix) -> int:
    """Exact rank via rational Gaussian elimination."""
    _, pivots = _rref_rows(_integer_rows(m.row_lists()))
    return len(pivots)


def _canonical_kernel_vector(v: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Scale so the first nonzero entry is a positive integer and the
    integer entries have content (gcd) 1."""
    denom_lcm = math.lcm(*(x.denominator for x in v)) if v else 1
    ints = [int(x * denom_lcm) for x in v]
    g = math.gcd(*ints) if any(ints) else 1
    if g > 1:
        ints = [x // g for x in ints]
    first = next((x for x in ints if x != 0), 0)
    if first < 0:
        ints = [-x for x in ints]
    return tuple(Fraction(x) for x in ints)


def null_space(m: RatMatrix) -> list[tuple[Fraction, ...]]:
    """Basis of the right null space {x : m x = 0}, canonicalized."""
    rows, pivots = _rref_rows(_integer_rows(m.row_lists()))
    pivot_set = set(pivots)
    basis = []
    for free in range(m.cols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * m.cols
        vec[free] = Fraction(1)
        for j, pc in enumerate(pivots):
            vec[pc] = Fraction(-rows[j][free], rows[j][pc])
        basis.append(_canonical_kernel_vector(vec))
    return basis


def left_null_space(m: RatMatrix) -> list[tuple[Fraction, ...]]:
    """Basis of {y : yᵀ m = 0}, the orthogonal complement of the column space."""
    return null_space(m.transpose())


def pseudoinverse(m: RatMatrix) -> RatMatrix:
    """Exact Moore-Penrose pseudoinverse from the stacked normal equations.

    With a = d m, scaled to integers by the lcm d of m's denominators, and N
    a null-space basis of m, pinv(a) is the unique X with aᵀa X = aᵀ and
    Nᵀ X = 0, and pinv(m) = d pinv(a).  That system has full column rank, so
    one elimination of [aᵀa | aᵀ] over [Nᵀ | 0] leaves row i with its pivot
    in column i.  Exact: satisfies all four Penrose identities.
    """
    d = math.lcm(*(x.denominator for x in m.entries))
    ints = [x.numerator * (d // x.denominator) for x in m.entries]
    at = [ints[j :: m.cols] for j in range(m.cols)]  # the rows of aᵀ
    rows = [[sum(map(operator.mul, u, v)) for v in at] + u for u in at]
    rows += [[x.numerator for x in v] + [0] * m.rows for v in null_space(m)]
    rows, _ = _rref_rows(rows)
    n = m.cols
    return RatMatrix(n, m.rows, tuple(Fraction(d * x, row[i]) for i, row in enumerate(rows[:n]) for x in row[n:]))


def solve_consistent(m: RatMatrix, b: Sequence[Fraction]) -> Optional[tuple[Fraction, ...]]:
    """One exact solution of m x = b, or None when the system is inconsistent.

    Free variables are set to zero, so the residual of the returned solution
    is exactly zero.  Used as an independent cross-check against
    pseudoinverse application.
    """
    if len(b) != m.rows:
        raise ValueError(f"rhs length {len(b)} != rows {m.rows}")
    aug = [list(m.row(i)) + [b[i]] for i in range(m.rows)]
    rows, pivots = _rref_rows(_integer_rows(aug))
    if pivots and pivots[-1] == m.cols:
        return None  # a pivot in the rhs column: 0 = nonzero
    x = [Fraction(0)] * m.cols
    for j, pc in enumerate(pivots):
        x[pc] = Fraction(rows[j][m.cols], rows[j][pc])
    return tuple(x)
