"""Pairwise marginal tables of the two-spin singlet state.

Three measurement axes alpha, beta, gamma define observables A, B, C.
The quantity ``correlation(u, v)`` is the expectation of the product of
outcomes when axis ``u`` is measured on particle 1 and axis ``v`` on
particle 2; for the singlet it equals -u.v.

Sign convention, fixed here and nowhere else: the joint distribution
downstream modules solve for is over (A on particle 1, B on particle 2,
C on particle 2).  The B/C statistics that are actually measurable pair
B on particle 1 with C on particle 2, and the singlet forces the two B
readings to be opposite.  The BC table therefore carries a sign flip
relative to the AB and AC tables: ``pair_table(corr, flip=True)``.

All table builders accept either floats or exact ``Fraction`` values for
the correlations and preserve the type, so the downstream solvers can run
in exact-rational mode when correlations are supplied as rationals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exactla import Real, check_distribution, is_exact

#: Tolerance used for construction-time sanity checks of floating values.
NORM_TOL = 1e-12
#: Input vectors shorter than this are rejected instead of normalized.
MIN_NORM = 1e-9


@dataclass(frozen=True)
class Direction:
    """Unit 3-vector for a spin measurement axis.

    Inputs are normalized at construction; vectors with a non-finite
    component or with norm below ``MIN_NORM`` are rejected rather than
    silently blown up.
    """

    x: float
    y: float
    z: float

    def __post_init__(self):
        if not all(math.isfinite(c) for c in (self.x, self.y, self.z)):
            raise ValueError(f"direction vector ({self.x}, {self.y}, {self.z}) has a non-finite component")
        n = math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)
        if n < MIN_NORM:
            raise ValueError(f"direction vector ({self.x}, {self.y}, {self.z}) is too close to zero")
        object.__setattr__(self, "x", self.x / n)
        object.__setattr__(self, "y", self.y / n)
        object.__setattr__(self, "z", self.z / n)

    @classmethod
    def from_degrees(cls, theta: float) -> "Direction":
        """In-plane axis at ``theta`` degrees (coplanar parameterization)."""
        rad = math.radians(theta)
        return cls(math.cos(rad), math.sin(rad), 0.0)

    @classmethod
    def from_string(cls, text: str) -> "Direction":
        parts = text.split(",")
        if len(parts) != 3:
            raise ValueError(f"expected 'x,y,z', got {text!r}")
        return cls(*(float(p) for p in parts))

    def dot(self, other: "Direction") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z


def _checked_correlation(corr: Real) -> Real:
    """Validate corr is in [-1, 1]; clamp float round-off within NORM_TOL.

    Ints are promoted to Fraction so that exact inputs stay exact under
    the true division in the table formulas.
    """
    exact = is_exact((corr,))
    tol = 0 if exact else NORM_TOL
    if not -1 - tol <= corr <= 1 + tol:
        raise ValueError(f"correlation {corr} outside [-1, 1]")
    return Fraction(corr) if exact else min(1.0, max(-1.0, corr))


def correlation(u: Direction, v: Direction) -> float:
    """Singlet expectation of the product of outcomes along u (particle 1)
    and v (particle 2): -u.v."""
    return _checked_correlation(-u.dot(v))


@dataclass(frozen=True)
class PairTable:
    """2x2 outcome table for a pair of binary +/- observables."""

    pp: Real
    pm: Real
    mp: Real
    mm: Real

    def entry(self, a: int, b: int) -> Real:
        """Entry for outcomes a, b in {+1, -1}."""
        return {(1, 1): self.pp, (1, -1): self.pm, (-1, 1): self.mp, (-1, -1): self.mm}[(a, b)]

    def as_tuple(self) -> tuple[Real, Real, Real, Real]:
        return (self.pp, self.pm, self.mp, self.mm)

    def total(self) -> Real:
        return self.pp + self.pm + self.mp + self.mm


def pair_table(corr: Real, flip: bool = False) -> PairTable:
    """Two-outcome joint table from a product correlation.

    Without ``flip`` the entry for outcomes (a, b) is (1 + a*b*corr)/4.
    With ``flip`` it is (1 - a*b*corr)/4: the table of the pair whose first
    observable is the negated counterpart of the one ``corr`` refers to.
    The BC pair uses ``flip=True`` because the solved-for joint carries B
    on particle 2 while ``corr`` is the measurable particle-1/particle-2
    correlation.
    """
    return _pair_table(_checked_correlation(corr), flip)


def _pair_table(corr: Real, flip: bool) -> PairTable:
    """:func:`pair_table` for a correlation that is already checked."""
    sign = -1 if flip else 1
    same = (1 + sign * corr) / 4  # outcomes equal: (+,+) and (-,-)
    diff = (1 - sign * corr) / 4  # outcomes differ
    return PairTable(pp=same, pm=diff, mp=diff, mm=same)


@dataclass(frozen=True)
class CorrelationTriple:
    """The three product correlations <AB>, <AC>, <BC>.

    ``bc`` is the measurable correlation (B on particle 1, C on particle 2);
    the flip into the solved-for joint's convention happens in
    :func:`tables_from_correlations`, not here.
    """

    ab: Real
    ac: Real
    bc: Real

    def __post_init__(self):
        for name in ("ab", "ac", "bc"):
            object.__setattr__(self, name, _checked_correlation(getattr(self, name)))

    def as_tuple(self) -> tuple[Real, Real, Real]:
        return (self.ab, self.ac, self.bc)


@dataclass(frozen=True)
class BellMarginals:
    """The three prescribed pair tables plus the stacked 10-entry rhs vector.

    ``p_vector`` order: BC(++, +-, -+), AC(++, +-, -+), AB(++, +-, -+), 1.
    ``pbc`` is already the flipped table (B on particle 2 paired with C).
    """

    pab: PairTable
    pac: PairTable
    pbc: PairTable
    p_vector: tuple[Real, ...]

    def __post_init__(self):
        if len(self.p_vector) != 10:
            raise ValueError(f"p_vector must have 10 entries, got {len(self.p_vector)}")
        if self.p_vector[9] != 1:
            raise ValueError("last p_vector entry must be exactly 1")
        for table in (self.pab, self.pac, self.pbc):
            check_distribution(table.as_tuple(), "pair table", NORM_TOL)


def tables_from_correlations(corr: CorrelationTriple) -> BellMarginals:
    """Assemble the three singlet pair tables and the rhs vector.

    Exact when the correlations are Fractions: every table entry and the
    final normalization entry stay rational.  The correlations were checked
    when ``corr`` was built, so they are not checked again here.
    """
    pab = _pair_table(corr.ab, flip=False)
    pac = _pair_table(corr.ac, flip=False)
    pbc = _pair_table(corr.bc, flip=True)
    one: Real = Fraction(1) if is_exact(corr.as_tuple()) else 1.0
    p_vector = (
        pbc.pp, pbc.pm, pbc.mp,
        pac.pp, pac.pm, pac.mp,
        pab.pp, pab.pm, pab.mp,
        one,
    )
    return BellMarginals(pab=pab, pac=pac, pbc=pbc, p_vector=p_vector)


def correlations(alpha: Direction, beta: Direction, gamma: Direction) -> CorrelationTriple:
    """Measurable correlations of the singlet for the three axes; the
    triple checks and clamps them once."""
    return CorrelationTriple(ab=-alpha.dot(beta), ac=-alpha.dot(gamma), bc=-beta.dot(gamma))


def bell_marginals(alpha: Direction, beta: Direction, gamma: Direction) -> BellMarginals:
    """Quantum-mechanical pair marginals for three measurement axes."""
    return tables_from_correlations(correlations(alpha, beta, gamma))
