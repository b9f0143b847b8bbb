"""Exact dense linear algebra over the rationals.

The linear algebra here runs on :class:`fractions.Fraction`: ranks, null
spaces, pseudoinverses and linear solves are computed exactly, with no
floating-point tolerance.  Conversion to floats, where needed,
is the caller's job.  Intended for small dense matrices (dimension ~30).
The package's one tolerance policy lives here too: :func:`is_exact` tells
exact inputs from float ones, :func:`tolerance` turns that into the
comparison slack, and :func:`check_distribution` applies it to tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

RationalLike = Union[int, Fraction, str]

#: Scalar accepted by the dual-mode (exact or float) code paths.
Real = Union[float, Fraction, int]

#: The package's float tolerance; exact values ignore it (:func:`tolerance`).
DEFAULT_EPS = 1e-10


def is_exact(values: Iterable[Real]) -> bool:
    """The package's one exactness rule: exact when every value is an int or
    Fraction.  Exact values are compared exactly (tolerance 0); anything
    else is compared at a float tolerance."""
    # A plain loop, not all(<generator>): this runs several times per scan
    # cell, and the generator costs a few times more.
    for v in values:
        if not isinstance(v, (Fraction, int)):
            return False
    return True


def tolerance(values: Iterable[Real], eps: float = DEFAULT_EPS) -> float:
    """The package's one comparison rule: the slack when testing ``values``,
    or quantities derived from them: 0 for exact values, else ``eps``."""
    return 0 if is_exact(values) else eps


def check_distribution(table: Sequence[Real], what: str, eps: float = DEFAULT_EPS) -> None:
    """Raise ``ValueError`` unless ``table`` is non-negative and sums to 1
    within ``tolerance(table, eps)``; ``what`` names the table in the error."""
    tol = tolerance(table, eps)
    if any(v < -tol for v in table):
        raise ValueError(f"negative entry in {what}")
    if abs(sum(table) - 1) > tol:
        raise ValueError(f"{what} does not sum to 1")


def as_rational(value: RationalLike) -> Fraction:
    """Coerce ints, Fractions and numeric strings ("3/40", "0.25") to Fraction.

    Floats are rejected on purpose: a binary float rarely equals the decimal
    it prints as, so callers must rationalize explicitly.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"expected an exact rational value, got {type(value).__name__}")


@dataclass(frozen=True)
class RatVector:
    """Immutable vector of exact rationals."""

    entries: tuple[Fraction, ...]

    @classmethod
    def from_values(cls, values: Iterable[RationalLike]) -> "RatVector":
        return cls(tuple(as_rational(v) for v in values))

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> Fraction:
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    def dot(self, other: "RatVector") -> Fraction:
        if len(self) != len(other):
            raise ValueError(f"length mismatch: {len(self)} vs {len(other)}")
        return sum((a * b for a, b in zip(self.entries, other.entries)), Fraction(0))

    def scaled(self, k: RationalLike) -> "RatVector":
        k = as_rational(k)
        return RatVector(tuple(k * e for e in self.entries))

    def __sub__(self, other: "RatVector") -> "RatVector":
        if len(self) != len(other):
            raise ValueError(f"length mismatch: {len(self)} vs {len(other)}")
        return RatVector(tuple(a - b for a, b in zip(self.entries, other.entries)))

    def is_zero(self) -> bool:
        return all(e == 0 for e in self.entries)


@dataclass(frozen=True)
class RatMatrix:
    """Immutable dense matrix of exact rationals, stored row-major."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"entry count {len(self.entries)} != rows*cols = {self.rows * self.cols}"
            )

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[RationalLike]]) -> "RatMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        flat = []
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
            flat.extend(as_rational(v) for v in r)
        return cls(nrows, ncols, tuple(flat))

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls(n, n, tuple(Fraction(1 if i == j else 0) for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RatMatrix":
        return cls(rows, cols, (Fraction(0),) * (rows * cols))

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> RatVector:
        return RatVector(self.entries[i * self.cols : (i + 1) * self.cols])

    def row_lists(self) -> list[list[Fraction]]:
        """Mutable copy of the rows, for elimination algorithms."""
        return [list(self.entries[i * self.cols : (i + 1) * self.cols]) for i in range(self.rows)]

    def transpose(self) -> "RatMatrix":
        return RatMatrix(
            self.cols,
            self.rows,
            tuple(self.entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)),
        )

    def apply(self, v: Sequence[RationalLike]) -> RatVector:
        """Matrix-vector product."""
        if len(v) != self.cols:
            raise ValueError(f"vector length {len(v)} != cols {self.cols}")
        vals = [as_rational(x) for x in v]
        out = []
        for i in range(self.rows):
            base = i * self.cols
            out.append(sum((self.entries[base + j] * vals[j] for j in range(self.cols)), Fraction(0)))
        return RatVector(tuple(out))

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        flat = []
        for i in range(self.rows):
            for j in range(other.cols):
                acc = Fraction(0)
                for k in range(self.cols):
                    acc += self.entries[i * self.cols + k] * other.entries[k * other.cols + j]
                flat.append(acc)
        return RatMatrix(self.rows, other.cols, tuple(flat))


def _rref_rows(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """In-place reduced row echelon form; returns (rows, pivot column indices)."""
    nrows = len(rows)
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
        piv = rows[r][c]
        if piv != 1:
            rows[r] = [x / piv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def rref(m: RatMatrix) -> tuple[RatMatrix, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns (exact Gauss-Jordan)."""
    rows, pivots = _rref_rows(m.row_lists())
    return RatMatrix(m.rows, m.cols, tuple(e for row in rows for e in row)), tuple(pivots)


def rank(m: RatMatrix) -> int:
    """Exact rank via rational Gaussian elimination."""
    _, pivots = _rref_rows(m.row_lists())
    return len(pivots)


def _canonical_kernel_vector(v: Sequence[Fraction]) -> RatVector:
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
    return RatVector(tuple(Fraction(x) for x in ints))


def null_space(m: RatMatrix) -> list[RatVector]:
    """Basis of the right null space {x : m x = 0}, canonicalized."""
    rows, pivots = _rref_rows(m.row_lists())
    pivot_set = set(pivots)
    basis = []
    for free in range(m.cols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * m.cols
        vec[free] = Fraction(1)
        for j, pc in enumerate(pivots):
            vec[pc] = -rows[j][free]
        basis.append(_canonical_kernel_vector(vec))
    return basis


def left_null_space(m: RatMatrix) -> list[RatVector]:
    """Basis of {y : yᵀ m = 0}, the orthogonal complement of the column space."""
    return null_space(m.transpose())


def _invert(m: RatMatrix) -> RatMatrix:
    """Inverse of a square nonsingular matrix via Gauss-Jordan on [m | I]."""
    n = m.rows
    if m.cols != n:
        raise ValueError("matrix not square")
    aug = [list(m.row(i)) + [Fraction(1 if j == i else 0) for j in range(n)] for i in range(n)]
    rows, pivots = _rref_rows(aug)
    if list(pivots) != list(range(n)):
        raise ValueError("matrix is singular")
    return RatMatrix.from_rows([r[n:] for r in rows])


def pseudoinverse(m: RatMatrix) -> RatMatrix:
    """Exact Moore-Penrose pseudoinverse via full-rank factorization.

    With m = F G (F the pivot columns of m, G the nonzero rows of the RREF),
    the pseudoinverse is Gᵀ (G Gᵀ)⁻¹ (Fᵀ F)⁻¹ Fᵀ.  Satisfies all four
    Penrose identities exactly; never leaves rational arithmetic.
    """
    reduced, pivots = rref(m)
    r = len(pivots)
    if r == 0:
        return RatMatrix.zeros(m.cols, m.rows)
    f = RatMatrix.from_rows([[m.entry(i, c) for c in pivots] for i in range(m.rows)])
    g = RatMatrix.from_rows([list(reduced.row(i)) for i in range(r)])
    gt = g.transpose()
    ft = f.transpose()
    return gt @ _invert(g @ gt) @ _invert(ft @ f) @ ft


def solve_consistent(m: RatMatrix, b: RatVector) -> Optional[RatVector]:
    """One exact solution of m x = b, or None when the system is inconsistent.

    Free variables are set to zero, so the residual of the returned solution
    is exactly zero.  Used as an independent cross-check against
    pseudoinverse application.
    """
    if len(b) != m.rows:
        raise ValueError(f"rhs length {len(b)} != rows {m.rows}")
    aug = [list(m.row(i)) + [b[i]] for i in range(m.rows)]
    rows, pivots = _rref_rows(aug)
    if pivots and pivots[-1] == m.cols:
        return None  # a pivot in the rhs column: 0 = nonzero
    x = [Fraction(0)] * m.cols
    for j, pc in enumerate(pivots):
        x[pc] = rows[j][m.cols]
    return RatVector(tuple(x))
