"""Seeded n-cycle marginal problems whose verdict is fixed by construction.

Observables X0 .. X(n-1) share one cardinality k; the prescribed tables are
the n neighbouring pairs (Xi, Xi+1 mod n).  Three kinds of instance:

* ``Proper``: the pair marginals of a seeded mixture of deterministic
  assignments, so a non-negative joint (the mixture itself) is known.
* ``QuasiOnly``: every table puts its weight on the relation
  X(i+1) = Xi, except the closing table (X(n-1), X0), which puts it on
  X0 = X(n-1) + 1 mod k.  No assignment satisfies all n relations, so any
  joint distribution satisfies at most n - 1 of them on average; tables
  whose relation probabilities sum to more than n - 1 have no joint
  distribution, while their single marginals are all uniform, so a
  quasiprobability exists.  For k = 2 the tables are the chained-Bell
  singlet correlations, cos(pi/n) on every pair with the closing pair
  relabelled (Araujo et al., PRA 88, 022118 (2013)); for k = 3 they are
  the mod-k shift cycle mixed with a little uniform noise.
* ``Inconsistent``: a ``Proper`` instance with mass moved inside one table
  so that the marginal of one observable disagrees with its other table.

Everything here is stdlib and exact; nothing calls into ``bellquasi``.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

PROPER = "Proper"
QUASI_ONLY = "QuasiOnly"
INCONSISTENT = "Inconsistent"
VERDICTS = (PROPER, QUASI_ONLY, INCONSISTENT)


@dataclass(frozen=True)
class CycleProblem:
    n: int
    k: int
    verdict: str
    tables: tuple[tuple[Fraction, ...], ...]  # table i is over (Xi, Xi+1 mod n), row-major

    @property
    def label(self) -> str:
        return f"{self.n}-cycle k={self.k} {self.verdict}"

    def document(self) -> dict:
        """Schema-1 problem document, entries as exact 'p/q' strings."""
        names = [f"X{i}" for i in range(self.n)]
        return {
            "schema": 1,
            "observables": [{"name": name, "cardinality": self.k} for name in names],
            "marginals": [
                {"over": [names[i], names[(i + 1) % self.n]], "table": [str(v) for v in table]}
                for i, table in enumerate(self.tables)
            ],
        }

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.document(), fh)


def _pair_tables(n: int, k: int, weights: dict[tuple[int, ...], Fraction]):
    tables = []
    for i in range(n):
        j = (i + 1) % n
        cells = [Fraction(0)] * (k * k)
        for outcome, w in weights.items():
            cells[outcome[i] * k + outcome[j]] += w
        tables.append(tuple(cells))
    return tuple(tables)


def _mixture(rng: random.Random, n: int, k: int, terms: int = 6) -> dict[tuple[int, ...], Fraction]:
    weights: dict[tuple[int, ...], int] = {}
    for _ in range(terms):
        outcome = tuple(rng.randrange(k) for _ in range(n))
        weights[outcome] = weights.get(outcome, 0) + rng.randint(1, 97)
    total = sum(weights.values())
    return {o: Fraction(w, total) for o, w in weights.items()}


def proper(rng: random.Random, n: int, k: int) -> CycleProblem:
    return CycleProblem(n, k, PROPER, _pair_tables(n, k, _mixture(rng, n, k)))


def quasi_only(rng: random.Random, n: int, k: int) -> CycleProblem:
    # p = probability of each table's relation.  The mixture with the
    # uniform table keeps p above the joint-distribution bound 1 - 1/n.
    if k == 2:
        strength = Fraction(math.cos(math.pi / n)).limit_denominator(10**6)
        visibility = 1 - Fraction(rng.randint(0, 20), 1000)
        p = (1 + visibility * strength) / 2
    else:
        p = 1 - (1 - Fraction(1, k)) * Fraction(rng.randint(0, 60), 1000)
    off = (1 - p) / (k * (k - 1))
    on = p / k
    tables = []
    for i in range(n):
        shift = 1 if i == n - 1 else 0  # closing table: X0 = X(n-1) + 1
        tables.append(
            tuple(on if b == (a + shift) % k else off for a in range(k) for b in range(k))
        )
    return CycleProblem(n, k, QUASI_ONLY, tuple(tables))


def inconsistent(rng: random.Random, n: int, k: int) -> CycleProblem:
    base = proper(rng, n, k)
    i = rng.randrange(n)
    table = list(base.tables[i])
    src = max(range(k * k), key=lambda c: (table[c], -c))
    a, b = divmod(src, k)
    dst = ((a + 1) % k) * k + b  # same Xi+1 outcome, different Xi outcome
    moved = table[src] / 2
    table[src] -= moved
    table[dst] += moved
    tables = list(base.tables)
    tables[i] = tuple(table)
    return CycleProblem(n, k, INCONSISTENT, tuple(tables))


BUILDERS = {PROPER: proper, QUASI_ONLY: quasi_only, INCONSISTENT: inconsistent}


def generate(rng: random.Random, n: int, k: int, verdict: str) -> CycleProblem:
    return BUILDERS[verdict](rng, n, k)


def relation_weight(tables, k: int) -> Fraction:
    """Sum over tables of the probability of that table's cycle relation."""
    n = len(tables)
    total = Fraction(0)
    for i, table in enumerate(tables):
        shift = 1 if i == n - 1 else 0
        total += sum(table[a * k + (a + shift) % k] for a in range(k))
    return total


def single_marginals_agree(tables, k: int) -> bool:
    """Does every Xi get the same marginal from both tables it appears in?"""
    n = len(tables)
    for i in range(n):
        as_first = [sum(tables[i][a * k + b] for b in range(k)) for a in range(k)]
        as_second = [sum(tables[i - 1][b * k + a] for b in range(k)) for a in range(k)]
        if as_first != as_second:
            return False
    return True


def reproduces(witness, tables, n: int, k: int) -> bool:
    """Is ``witness`` (joint over X0..X(n-1), X0 slowest) a non-negative
    distribution whose pair marginals are exactly ``tables``?"""
    if len(witness) != k**n or any(w < 0 for w in witness):
        return False
    sums = [[Fraction(0)] * (k * k) for _ in range(n)]
    for index, w in enumerate(witness):
        if w == 0:
            continue
        outcome = [0] * n
        rest = index
        for i in reversed(range(n)):  # X(n-1) varies fastest
            rest, outcome[i] = divmod(rest, k)
        for i in range(n):
            sums[i][outcome[i] * k + outcome[(i + 1) % n]] += w
    return all(tuple(s) == tuple(t) for s, t in zip(sums, tables))


def label_holds(problem: CycleProblem) -> bool:
    """Check the construction label with an independent certificate."""
    agree = single_marginals_agree(problem.tables, problem.k)
    if problem.verdict == INCONSISTENT:
        return not agree
    if problem.verdict == QUASI_ONLY:
        return agree and relation_weight(problem.tables, problem.k) > problem.n - 1
    return agree

