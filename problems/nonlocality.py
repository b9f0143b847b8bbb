"""Write the bundled "nonlocality without inequalities" documents.

    python problems/nonlocality.py

* ``ghz_mermin.json`` - the GHZ-Mermin parities: observables X and Y for
  each of three parties A, B, C, and one table per context XXX, XYY, YXY,
  YYX, uniform over the outcomes of even parity on XXX and of odd parity
  on the other three (64 joint outcomes).  Every joint outcome breaks one
  of the four parities, so no table cell it hits may carry mass.
* ``hardy_box.json`` - half a Popescu-Rohrlich box plus half the
  deterministic box 0000, on the four pairs (Ax, By) of two binary
  settings per party (16 joint outcomes).  Only the all-0 outcome avoids
  every zero cell, and it cannot give the tables.

Both are QuasiOnly.  Every entry is an exact "p/q" string, so the output
is the same bytes on every run; standard library only.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent


def ghz_mermin() -> dict:
    observables = [party + s for party in "ABC" for s in "XY"]
    marginals = [
        ([f"A{a}", f"B{b}", f"C{c}"], [Fraction(parity == sum(o) % 2, 4) for o in itertools.product(range(2), repeat=3)])
        for (a, b, c), parity in (("XXX", 0), ("XYY", 1), ("YXY", 1), ("YYX", 1))
    ]
    return _document(observables, marginals)


def hardy_box() -> dict:
    observables = [party + s for party in "AB" for s in "01"]
    marginals = [
        (
            [f"A{x}", f"B{y}"],
            [Fraction((a ^ b) == x * y, 4) + Fraction(a == b == 0, 2) for a in range(2) for b in range(2)],
        )
        for x in range(2)
        for y in range(2)
    ]
    return _document(observables, marginals)


def _document(observables, marginals) -> dict:
    return {
        "schema": 1,
        "observables": [{"name": name, "cardinality": 2} for name in observables],
        "marginals": [{"over": over, "table": [f"{v.numerator}/{v.denominator}" for v in table]} for over, table in marginals],
    }


def render(doc: dict) -> str:
    """The layout of the other bundled documents: one line per observable
    and per marginal."""
    lines = ["{", '  "schema": 1,', '  "observables": [']
    lines.append(",\n".join("    " + json.dumps(o) for o in doc["observables"]))
    lines += ["  ],", '  "marginals": [']
    lines.append(",\n".join("    " + json.dumps(m) for m in doc["marginals"]))
    lines += ["  ]", "}"]
    return "\n".join(lines) + "\n"


DOCUMENTS = {"ghz_mermin.json": ghz_mermin, "hardy_box.json": hardy_box}


if __name__ == "__main__":
    for name, build in DOCUMENTS.items():
        (HERE / name).write_text(render(build()))
