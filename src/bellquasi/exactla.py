"""Exact dense linear algebra over the rationals.

Ranks, null spaces, pseudoinverses and linear solves are computed exactly,
with no floating-point tolerance, and all of them read one row reduction:
:func:`_reduced`, the integer RREF of [a | I] that every LP runs too.  The
rank, the null spaces and :func:`solve_consistent` read it of m itself, and
the pseudoinverse reads it of aᵀa + N Nᵀ, the square normal system.
Matrix entries are ints or :class:`fractions.Fraction` values, results are
``Fraction`` values and vectors are plain tuples of them, but the
elimination works on rows of Python ints (each a positive multiple of its
rational row, divided by its gcd), which costs far less than ``Fraction``
arithmetic, and its one step (:func:`_pivot`) touches only the nonzero
columns of the pivot row, in place when the pivot entry is 1.  Conversion
to floats, where needed, is the caller's job.  Sized for small matrices:
tens of rows and up to a few hundred columns, the LPs of
:mod:`bellquasi.marginal_general`.  The package's one tolerance policy
lives here too: :func:`is_exact` tells exact inputs from float ones, and
:func:`tolerance` turns that into the comparison slack.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence, Union

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
    if type(values) is _Scaled:
        return True
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


class _Scaled(tuple):
    """Exact values that keep ``ints``, their :func:`_over_lcm` form, set by :func:`_scaled`: an exact
    triple's rhs, a problem's tables and rhs, an LP's witness; equal to the plain tuple, with plain slices."""


def _scaled(values: Sequence[Rational], ints: Optional[tuple[int, Sequence[int]]] = None) -> _Scaled:
    """``values`` as a :class:`_Scaled` tuple keeping ``ints``, their :func:`_over_lcm` form (computed when not given)."""
    kept = _Scaled(values)
    kept.ints = _over_lcm(values) if ints is None else ints
    return kept


def _over_lcm(values: Iterable[Rational]) -> tuple[int, Sequence[int]]:
    """``(d, numerators)``: exact values as integers n/d over one lcm d, each read once (or
    kept, by a :class:`_Scaled` tuple).  The package's one scaling of exact values to integers."""
    if type(values) is _Scaled:
        return values.ints
    ratios = [v.as_integer_ratio() for v in values]
    d = math.lcm(*[q for _, q in ratios])
    return d, [n * (d // q) for n, q in ratios]


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
        # _over_lcm would read a float as its binary value: refuse it here, once per matrix
        if not is_exact(self.entries):
            raise TypeError("matrix entries must be exact rationals (ints or Fractions)")

    @functools.cached_property
    def _hash(self) -> int:
        return hash((self.rows, self.cols, self.entries))

    def __hash__(self) -> int:
        # Hashed once, not on every call: a matrix keys the elimination cache
        # of each LP on it, and its m*n entries would be hashed every time.
        return self._hash

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Rational]]) -> "RatMatrix":
        """Equal-length rows of ints and Fractions, kept as given; the constructor refuses floats."""
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        return cls(len(rows), ncols, tuple(v for r in rows for v in r))

    def entry(self, i: int, j: int) -> Rational:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Rational, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]


def _pivot(rows: list[list[int]], r: int, c: int) -> None:
    """The one Gauss-Jordan step of every elimination and of the simplex, in
    place, on integer rows that each stand for a positive multiple of a
    rational row: make entry ``c`` of row ``r`` positive (rather than 1),
    then clear column ``c`` elsewhere, dividing each updated row by its gcd.
    A row is updated only at the nonzero columns of the pivot row.  When the
    pivot entry is 1 it is updated in place, so every list in ``rows`` must
    belong to the caller alone (each caller builds them fresh), and a 1 or
    -1 left in it settles its gcd as 1 without computing it; otherwise it is
    scaled by the pivot entry into a new list, and takes the gcd."""
    if rows[r][c] < 0:
        rows[r] = [-x for x in rows[r]]
    top = rows[r]
    p = top[c]
    nonzeros = [(j, top[j]) for j in itertools.compress(range(len(top)), top)]
    for i, row in enumerate(rows):
        f = row[c]
        if i == r or f == 0:
            continue
        if p != 1:
            row = [p * a for a in row]
        for j, b in nonzeros:
            row[j] -= f * b
        g = 1 if p == 1 and (1 in row or -1 in row) else math.gcd(*row)
        rows[i] = [x // g for x in row] if g > 1 else row


def _reduced(a: Sequence[Sequence[Rational]]) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """(rows, pivots): the integer RREF of [a | I_m], with pivots only in
    the k columns of the m rows ``a`` (k = ``len(a[0])``, 0 when there are
    no rows); the package's one row reduction.  Each row is a positive
    multiple of its rational row (as :func:`_over_lcm` scales one), so row
    i < rank = ``len(pivots)`` divided by its pivot entry
    ``rows[i][pivots[i]]`` (positive) is (R_i | T_i), where R is the
    rational RREF of a and T a = R, so T_i b (:func:`_images`) is the rhs
    entry of the rational RREF of [a | b] for every consistent b.  The
    other rows have a zero a part, and their I parts span the left null
    space: b is consistent exactly when they are all orthogonal to it.  Only
    the a columns get pivots, so T_i may differ from a full RREF's by a left
    null vector, which leaves T_i b unchanged for every consistent b.  Rows
    are tuples, so no caller can change a cached entry."""
    m, k = len(a), len(a[0]) if a else 0
    unit = (0,) * m
    # a row of ints (a 0/1 constraint row) is its own numerators over d = 1
    scaled = ((1, row) if {*map(type, row)} <= {int} else _over_lcm(row) for row in a)
    rows = [[*ints, *unit[:i], d, *unit[i + 1 :]] for i, (d, ints) in enumerate(scaled)]
    pivots: list[int] = []
    for c in range(k):
        r = len(pivots)
        if r == m:
            break
        pivot_row = next((i for i in range(r, m) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        _pivot(rows, r, c)
        pivots.append(c)
    return tuple(map(tuple, rows)), tuple(pivots)


def _images(rows: Iterable[Sequence[int]], k: int, b: Sequence[int]) -> Iterator[int]:
    """T_i b, lazily, for each of :func:`_reduced`'s ``rows`` over ``k`` columns:
    its I part dotted with the integers ``b`` (a shorter ``b``: its leading entries)."""
    return (sum(map(operator.mul, row[k:], b)) for row in rows)


def rank(m: RatMatrix) -> int:
    """Exact rank: the pivot count of :func:`_reduced`."""
    return len(_reduced([m.row(i) for i in range(m.rows)])[1])


def _canonical_kernel_vector(v: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Scale so the first nonzero entry is a positive integer.  The lcm scaling leaves content (gcd)
    1: a null-space vector's free entry 1 becomes the lcm, and a left-null row was divided by
    its gcd when last updated, or is still a unit vector."""
    _, ints = _over_lcm(v)
    first = next((x for x in ints if x != 0), 0)
    if first < 0:
        ints = [-x for x in ints]
    return tuple(Fraction(x) for x in ints)


def null_space(m: RatMatrix) -> list[tuple[Fraction, ...]]:
    """Basis of the right null space {x : m x = 0}, canonicalized."""
    rows, pivots = _reduced([m.row(i) for i in range(m.rows)])
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
    """Canonical basis of {y : yᵀ m = 0}: the I parts of :func:`_reduced`'s null rows."""
    rows, pivots = _reduced([m.row(i) for i in range(m.rows)])
    return [_canonical_kernel_vector(row[m.cols :]) for row in rows[len(pivots) :]]


def pseudoinverse(m: RatMatrix) -> RatMatrix:
    """Exact Moore-Penrose pseudoinverse from the square normal system.

    With a = d m, scaled to integers by the lcm d of m's denominators, and N a null-space basis
    of m, aᵀa + N Nᵀ (the Gram matrix of [a; Nᵀ]) is invertible, as xᵀ(aᵀa + N Nᵀ)x = |a x|² +
    |Nᵀx|², and X = pinv(a) solves (aᵀa + N Nᵀ) X = aᵀ, as Nᵀ X = 0; pinv(m) = d pinv(a).  So
    :func:`_reduced` of it leaves row i with its pivot in column i, and row i of X is its I
    part applied to aᵀ.  Exact: satisfies all four Penrose identities.
    """
    d, ints = _over_lcm(m.entries)
    n = m.cols
    null = [[x.numerator for x in v] for v in null_space(m)]
    cols = [[*ints[j::n], *(v[j] for v in null)] for j in range(n)]  # the columns of [a; Nᵀ]
    rows = _reduced([[sum(map(operator.mul, u, v)) for v in cols] for u in cols])[0]
    x = zip(*[_images(rows, n, ints[c * n : (c + 1) * n]) for c in range(m.rows)])  # column c of aᵀ: row c of a
    return RatMatrix(n, m.rows, tuple(Fraction(d * t, row[i]) for i, (row, xi) in enumerate(zip(rows, x)) for t in xi))


def solve_consistent(m: RatMatrix, b: Sequence[Fraction]) -> Optional[tuple[Fraction, ...]]:
    """One exact solution of m x = b, or None when the system is inconsistent.

    Read from :func:`_reduced` of m: None when a null row's I part is not
    orthogonal to b; else the free variables are 0 and row i's pivot
    variable is T_i b over its pivot entry, so the residual is exactly zero.
    """
    if len(b) != m.rows:
        raise ValueError(f"rhs length {len(b)} != rows {m.rows}")
    if not is_exact(b):
        raise TypeError("rhs entries must be exact rationals (ints or Fractions)")
    scale, ints = _over_lcm(b)
    rows, pivots = _reduced([m.row(i) for i in range(m.rows)])
    if any(_images(rows[len(pivots) :], m.cols, ints)):
        return None  # 0 = nonzero
    x = [Fraction(0)] * m.cols
    for row, pc, t in zip(rows, pivots, _images(rows, m.cols, ints)):
        x[pc] = Fraction(t, row[pc] * scale)
    return tuple(x)
