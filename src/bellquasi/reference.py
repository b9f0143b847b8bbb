"""Published reference values for the fixed three-observable system.

The rank, kernel vector, left-null-space basis and pseudoinverse of the
10x8 constraint matrix are known in closed form; they are embedded here
as fixtures so the whole linear-algebra stack can be regression-checked
from scratch at any time (``bellquasi paper-check``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exactla import RatMatrix, left_null_space, null_space, pseudoinverse, rank
from .quasi import build_matrix

REFERENCE_RANK = 7

REFERENCE_HOMOGENEOUS = (-1, 1, 1, -1, 1, -1, -1, 1)

REFERENCE_LEFT_NULL = (
    (-1, -1, 0, 0, 0, 0, 1, 0, 1, 0),
    (0, 0, 0, -1, -1, 0, 1, 1, 0, 0),
    (-1, 0, -1, 1, 0, 1, 0, 0, 0, 0),
)

_F = Fraction
REFERENCE_PSEUDOINVERSE = (
    (_F(1, 4), _F(-1, 8), _F(-1, 8), _F(1, 4), _F(-1, 8), _F(-1, 8), _F(1, 4), _F(-1, 8), _F(-1, 8), _F(1, 8)),
    (_F(-1, 20), _F(13, 40), _F(1, 8), _F(-1, 20), _F(13, 40), _F(1, 8), _F(7, 20), _F(-3, 40), _F(-3, 40), _F(-1, 8)),
    (_F(-1, 20), _F(1, 8), _F(13, 40), _F(7, 20), _F(-3, 40), _F(-3, 40), _F(-1, 20), _F(13, 40), _F(1, 8), _F(-1, 8)),
    (_F(1, 20), _F(-9, 40), _F(-9, 40), _F(-3, 20), _F(3, 8), _F(-1, 40), _F(-3, 20), _F(3, 8), _F(-1, 40), _F(1, 8)),
    (_F(7, 20), _F(-3, 40), _F(-3, 40), _F(-1, 20), _F(1, 8), _F(13, 40), _F(-1, 20), _F(1, 8), _F(13, 40), _F(-1, 8)),
    (_F(-3, 20), _F(3, 8), _F(-1, 40), _F(1, 20), _F(-9, 40), _F(-9, 40), _F(-3, 20), _F(-1, 40), _F(3, 8), _F(1, 8)),
    (_F(-3, 20), _F(-1, 40), _F(3, 8), _F(-3, 20), _F(-1, 40), _F(3, 8), _F(1, 20), _F(-9, 40), _F(-9, 40), _F(1, 8)),
    (_F(-1, 4), _F(-3, 8), _F(-3, 8), _F(-1, 4), _F(-3, 8), _F(-3, 8), _F(-1, 4), _F(-3, 8), _F(-3, 8), _F(7, 8)),
)


@dataclass(frozen=True)
class CheckItem:
    """One regression item: what was compared and how it went."""

    name: str
    ok: bool
    detail: str


def _spans_match(computed: Sequence[Sequence[Fraction]], expected: Sequence[Sequence[int]]) -> bool:
    """True when two vector sets span the same subspace (exact ranks); False
    when their vectors differ in length, as no subspace holds both."""
    if len({len(v) for v in (*expected, *computed)}) > 1:
        return False
    r_exp = rank(RatMatrix.from_rows(expected))
    r_comp = rank(RatMatrix.from_rows(computed))
    r_both = rank(RatMatrix.from_rows([*expected, *computed]))
    return r_exp == r_comp == r_both


def run_reference_check() -> list[CheckItem]:
    """Recompute every structural quantity from scratch and diff it against
    the published values above."""
    m = build_matrix()
    items = []

    computed_rank = rank(m)
    items.append(
        CheckItem(
            name="rank",
            ok=computed_rank == REFERENCE_RANK,
            detail=f"computed {computed_rank}, expected {REFERENCE_RANK}",
        )
    )

    for name, basis, expected, what in (
        ("null space", null_space(m), [REFERENCE_HOMOGENEOUS], "the reference kernel direction"),
        ("left null space", left_null_space(m), REFERENCE_LEFT_NULL, "the reference complement"),
    ):
        ok = _spans_match(basis, expected)
        detail = f"{len(basis)} basis vector(s); span {'matches' if ok else 'does NOT match'} {what}"
        items.append(CheckItem(name, ok, detail))

    pinv = pseudoinverse(m)
    mismatches = [
        (i + 1, j + 1, pinv.entry(i, j), REFERENCE_PSEUDOINVERSE[i][j])
        for i in range(8)
        for j in range(10)
        if pinv.entry(i, j) != REFERENCE_PSEUDOINVERSE[i][j]
    ]
    if mismatches:
        shown = "; ".join(
            f"({i},{j}): computed {got}, expected {want}" for i, j, got, want in mismatches[:5]
        )
        detail = f"{len(mismatches)} of 80 entries differ: {shown}"
    else:
        detail = "all 80 entries match exactly"
    items.append(CheckItem(name="pseudoinverse", ok=not mismatches, detail=detail))
    return items
