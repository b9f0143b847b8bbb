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
relative to the AB and AC tables: :attr:`CorrelationTriple.rhs` applies it
for a triple, ``pair_table(corr, flip=True)`` for one table.

All table builders accept either floats or exact ``Fraction`` values for
the correlations and preserve the type, so the downstream solvers can run
in exact-rational mode when correlations are supplied as rationals.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exactla import Real, _over_lcm, _scaled, is_exact

#: Tolerance used for construction-time sanity checks of floating values.
NORM_TOL = 1e-12
#: Input vectors shorter than this are rejected instead of normalized.
MIN_NORM = 1e-9


@dataclass(frozen=True)
class Direction:
    """Unit 3-vector for a spin measurement axis.

    Inputs are normalized at construction; vectors with a non-finite
    component, with norm below ``MIN_NORM`` or with a norm that overflows
    are rejected rather than silently blown up or collapsed to 0.
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
        if n == math.inf:  # x*x overflows above about 1.34e154, and x / inf would make the axis 0
            raise ValueError(f"direction vector ({self.x}, {self.y}, {self.z}) is too long: its norm overflows")
        object.__setattr__(self, "x", self.x / n)
        object.__setattr__(self, "y", self.y / n)
        object.__setattr__(self, "z", self.z / n)

    @classmethod
    def from_degrees(cls, theta: float) -> "Direction":
        """In-plane axis at ``theta`` degrees (coplanar parameterization)."""
        if not math.isfinite(theta):  # math.cos(inf) would fail with an error that does not name it
            raise ValueError(f"angle {theta} is not finite")
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

    A Fraction in range is returned as it is, checked on its numerator and
    denominator; ints are promoted to Fraction so that exact inputs stay exact.
    """
    if type(corr) is Fraction and abs(corr.numerator) <= corr.denominator:  # a float skips the ABC's isinstance
        return corr
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


def pair_table(corr: Real, flip: bool = False) -> PairTable:
    """Two-outcome joint table from a product correlation.

    Without ``flip`` the entry for outcomes (a, b) is (1 + a*b*corr)/4.
    With ``flip`` it is (1 - a*b*corr)/4: the table of the pair whose first
    observable is the negated counterpart of the one ``corr`` refers to.
    The BC pair uses ``flip=True`` because the solved-for joint carries B
    on particle 2 while ``corr`` is the measurable particle-1/particle-2
    correlation.
    """
    corr = _checked_correlation(corr)
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
        object.__setattr__(self, "ab", _checked_correlation(self.ab))
        object.__setattr__(self, "ac", _checked_correlation(self.ac))
        object.__setattr__(self, "bc", _checked_correlation(self.bc))

    def as_tuple(self) -> tuple[Real, Real, Real]:
        return (self.ab, self.ac, self.bc)

    @functools.cached_property
    def integers(self) -> tuple[int, tuple[int, int, int]] | None:
        """``(d, (u, v, w))``: an exact triple's numerators over one lcm d; None for floats."""
        if not is_exact(self.as_tuple()):
            return None
        d, numerators = _over_lcm(self.as_tuple())
        return d, tuple(numerators)

    @functools.cached_property
    def rhs(self) -> tuple[Real, ...]:
        """The 10-entry rhs vector, kept once built, in ``p_vector`` order: BC(++, +-, -+),
        AC(++, +-, -+), AB(++, +-, -+), 1.  Entries are (1 +- corr)/4, BC's sign flipped; exact
        n/d on one lcm d (``integers``) give the Fractions (d +- n)/(4 d), in a tuple that keeps
        them over their least denominator 4 d/g (g = 1 or 2) for the family and the LP to read."""
        if self.integers is None:
            return _rhs(self.ab, self.ac, self.bc, 1.0)
        d, (u, v, w) = self.integers
        num = (d - w, d + w, d + v, d - v, d + u, d - u, 4 * d)
        g = math.gcd(*num)  # 1 or 2, as d, u, v and w have gcd 1
        num = [n // g for n in num]
        return _scaled(_LAYOUT([Fraction(n, num[6]) for n in num[:6]] + [_ONE]), (num[6], _LAYOUT(num)))


@dataclass(frozen=True)
class BellMarginals:
    """The three prescribed pair tables plus the stacked 10-entry rhs vector.

    ``p_vector`` order: BC(++, +-, -+), AC(++, +-, -+), AB(++, +-, -+), 1.
    ``pbc`` is already the flipped table (B on particle 2 paired with C).
    The tables are not checked again: they come from a checked triple.
    """

    pab: PairTable
    pac: PairTable
    pbc: PairTable
    p_vector: tuple[Real, ...]

    def __post_init__(self):
        _check_p(self.p_vector)


def _check_p(p: Sequence[Real]) -> None:
    if len(p) != 10:
        raise ValueError(f"p must have 10 entries, got {len(p)}")
    if p[9] != 1:
        raise ValueError(f"last entry of p must be exactly 1, got {p[9]!r}")


#: The rhs in ``p_vector`` order from BC's, AC's and AB's same and diff entries, then 1.
_LAYOUT = operator.itemgetter(0, 1, 1, 2, 3, 3, 4, 5, 5, 6)
_ONE = Fraction(1)


def _rhs(ab: Real, ac: Real, bc: Real, one: Real) -> tuple[Real, ...]:
    return _LAYOUT(((1 - bc) / 4, (1 + bc) / 4, (1 + ac) / 4, (1 - ac) / 4, (1 + ab) / 4, (1 - ab) / 4, one))


def tables_from_correlations(corr: CorrelationTriple) -> BellMarginals:
    """Assemble the three singlet pair tables and the rhs vector, the
    tables from the entries of :attr:`CorrelationTriple.rhs`."""
    p = corr.rhs
    return BellMarginals(
        pab=PairTable(pp=p[6], pm=p[7], mp=p[8], mm=p[6]),
        pac=PairTable(pp=p[3], pm=p[4], mp=p[5], mm=p[3]),
        pbc=PairTable(pp=p[0], pm=p[1], mp=p[2], mm=p[0]),
        p_vector=p,
    )


def correlations(alpha: Direction, beta: Direction, gamma: Direction) -> CorrelationTriple:
    """Measurable correlations of the singlet for the three axes; the
    triple checks and clamps them once."""
    return CorrelationTriple(ab=-alpha.dot(beta), ac=-alpha.dot(gamma), bc=-beta.dot(gamma))
