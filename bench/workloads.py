"""The benchmark's workloads: seeded inputs, one operation, output checks.

A workload is a fixed *round* of operations built from the seed.  Each
operation is a pair ``(call, check)``: ``call()`` is the timed call into
bellquasi and returns its output; ``check(output)`` is untimed and returns
``(items, ok)``, where ``ok`` comes from an oracle that does not go through
the code path under test.

* ``scan_grid``    - ``cli.main(["scan", ...])`` over whole-degree windows:
  the float path of singlet -> quasi -> bellcheck plus CSV output; no LP.
* ``exact_sweep``  - rationalized correlation triples through the three
  exact deciders, in the acceptance-criterion-3 mix; thousands of 10x8 LPs.
* ``ncycle_small`` - n-cycle problem documents with joint size <= 81,
  loaded and solved; LP only, no singlet/quasi/bellcheck work.
* ``ncycle_large`` - the same for joint sizes 243 and 256.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import random
from fractions import Fraction

import ncycle
from bellquasi import bellcheck, cli, quasi, singlet
from bellquasi import marginal_general as mg

SCAN_WINDOW = 60  # degrees per side: 3,600 cells per scan call
SCAN_WINDOWS_PER_ROUND = 4
SWEEP_TRIPLES_PER_ROUND = 500  # 495 random, 3 with margin 0, 2 with margin +-1e-10
SMALL_SIZES = ((4, 2), (6, 2), (4, 3))  # joint sizes 16, 64, 81
SMALL_PER_CLASS = 2
LARGE_SIZES = ((8, 2), (5, 3))  # joint sizes 256, 243
SCAN_EPS = 1e-10  # the CLI's default tolerance
SCAN_HEADER = ["theta_ab", "theta_ac", "corr_ab", "corr_ac", "corr_bc", "margin", "classification"]

WORKLOADS = ("scan_grid", "exact_sweep", "ncycle_small", "ncycle_large")


class Workload:
    def __init__(self, name: str, item: str, ops: list, outputs=None):
        self.name = name
        self.item = item  # what one counted item is: cell, triple or problem
        self.ops = ops
        self.outputs = outputs  # sha256 of each operation's output file, or None

    def output_digest(self):
        """sha256 over the operations' output digests, or None."""
        if self.outputs is None:
            return None
        return hashlib.sha256("".join(self.outputs[i] for i in sorted(self.outputs)).encode()).hexdigest()


def build(name: str, seed: int, workdir: str) -> Workload:
    if name == "scan_grid":
        return _scan_grid(random.Random(seed), workdir)
    if name == "exact_sweep":
        return _exact_sweep(random.Random(seed))
    if name == "ncycle_small":
        return _ncycle(name, _cycle_problems(seed, SMALL_SIZES, SMALL_PER_CLASS), workdir)
    if name == "ncycle_large":
        return _ncycle(name, _cycle_problems(seed, LARGE_SIZES, 1), workdir)
    raise ValueError(f"unknown workload {name!r}")


# -- scan_grid --------------------------------------------------------------


def _reference_margin(theta_ab: float, theta_ac: float) -> float:
    u = -math.cos(math.radians(theta_ab))
    v = -math.cos(math.radians(theta_ac))
    w = -math.cos(math.radians(theta_ac - theta_ab))
    return min(1 + u - abs(v - w), 1 - u - abs(v + w))


def _scan_grid(rng: random.Random, workdir: str) -> Workload:
    outputs: dict[int, str] = {}
    ops = []
    for i in range(SCAN_WINDOWS_PER_ROUND):
        ab = rng.randrange(0, 361 - SCAN_WINDOW)
        ac = rng.randrange(0, 361 - SCAN_WINDOW)
        path = os.path.join(workdir, f"scan-{i}.csv")
        argv = ["scan", "--ab", f"{ab}:{ab + SCAN_WINDOW}:1", "--ac", f"{ac}:{ac + SCAN_WINDOW}:1", "--out", path]

        def call(argv=argv):
            return cli.main(argv)

        def check(code, i=i, ab=ab, ac=ac, path=path):
            cells = SCAN_WINDOW * SCAN_WINDOW
            if code != 0:
                return cells, False
            with open(path, "rb") as fh:
                data = fh.read()
            # Every repeat of a window must write the same bytes.
            sha = hashlib.sha256(data).hexdigest()
            if outputs.setdefault(i, sha) != sha:
                return cells, False
            return cells, _scan_rows_ok(data.decode(), ab, ac)

        ops.append((call, check))
    return Workload("scan_grid", "cell", ops, outputs)


def _scan_rows_ok(text: str, ab: int, ac: int) -> bool:
    rows = list(csv.reader(text.splitlines()))
    if rows[0] != SCAN_HEADER or len(rows) != 1 + SCAN_WINDOW * SCAN_WINDOW:
        return False
    expected = ((ab + i, ac + j) for i in range(SCAN_WINDOW) for j in range(SCAN_WINDOW))
    for row, (theta_ab, theta_ac) in zip(rows[1:], expected):
        if float(row[0]) != theta_ab or float(row[1]) != theta_ac:
            return False
        margin = float(row[5])
        # The row's Bell margin must be the singlet's, and the row's
        # classification must agree with the Bell verdict at the CLI's eps.
        if abs(margin - _reference_margin(theta_ab, theta_ac)) > 1e-9:
            return False
        if (row[6] == "Proper") != (margin >= -SCAN_EPS) or row[6] not in ("Proper", "QuasiOnly"):
            return False
    return True


# -- exact_sweep ------------------------------------------------------------


def _rational(x: float) -> Fraction:
    return Fraction(x).limit_denominator(10**6)


def _random_unit(rng: random.Random) -> tuple[float, float, float]:
    while True:
        v = [rng.gauss(0, 1) for _ in range(3)]
        n = math.sqrt(sum(x * x for x in v))
        if n > 1e-6:
            return tuple(x / n for x in v)


def _dot(a, b) -> float:
    return sum(x * y for x, y in zip(a, b))


def sweep_triples(rng: random.Random):
    """(ab, ac, bc, expected) with expected None, or the known verdict of a
    triple built on (or 1e-10 off) the boundary of the Bell inequalities."""
    triples = []
    for _ in range(SWEEP_TRIPLES_PER_ROUND - 5):
        a, b, c = (_random_unit(rng) for _ in range(3))
        triples.append((_rational(-_dot(a, b)), _rational(-_dot(a, c)), _rational(-_dot(b, c)), None))
    # first reduced inequality tight: 1 + 0 = |(s + 1/2) - (s - 1/2)|
    s = Fraction(rng.randint(-99, 99), 199)
    triples.append((Fraction(0), s + Fraction(1, 2), s - Fraction(1, 2), True))
    # second reduced inequality tight: 1 - u = |(1 - u)/2 + (1 - u)/2|
    for _ in range(2):
        u = Fraction(rng.randint(-99, 99), 101)
        triples.append((u, (1 - u) / 2, (1 - u) / 2, True))
    # the second family pushed 1e-10 inside and outside the boundary
    delta = Fraction(1, 10**10)
    for sign in (1, -1):
        u = Fraction(rng.randint(-99, 99), 101)
        triples.append((u, (1 - u) / 2, (1 - u) / 2 + sign * delta, sign < 0))
    rng.shuffle(triples)
    return triples


def _witness_reproduces(x, ab, ac, bc) -> bool:
    """Does the joint x over (A, B, C), outcome +1 first and A slowest, have
    the singlet pair tables of (ab, ac, bc)?  BC carries the sign flip."""
    if len(x) != 8 or any(v < 0 for v in x):
        return False
    signs = (1, -1)
    for (i, j), corr in (((0, 1), ab), ((0, 2), ac), ((1, 2), -bc)):
        for si in signs:
            for sj in signs:
                total = sum(
                    x[4 * ia + 2 * ib + ic]
                    for ia in range(2) for ib in range(2) for ic in range(2)
                    if signs[(ia, ib, ic)[i]] == si and signs[(ia, ib, ic)[j]] == sj
                )
                if total != (1 + si * sj * corr) / 4:
                    return False
    return True


def _exact_sweep(rng: random.Random) -> Workload:
    ops = []
    for ab, ac, bc, expected in sweep_triples(rng):

        def call(ab=ab, ac=ac, bc=bc):
            corr = singlet.CorrelationTriple(ab, ac, bc)
            marg = singlet.tables_from_correlations(corr)
            family = quasi.solve_family(marg.p_vector)
            bell = bellcheck.bell_pair(corr)
            lp = mg.solve_problem(quasi.bell_problem(corr))
            return family, bell, lp

        def check(out, ab=ab, ac=ac, bc=bc, expected=expected):
            family, bell, lp = out
            margin = min(1 + ab - abs(ac - bc), 1 - ab - abs(ac + bc))
            truth = margin >= 0 if expected is None else expected
            interval_ok = family is not None and family.t_lo <= family.t_hi
            lp_ok = lp.status is mg.Feasibility.PROPER
            ok = bell.margin == margin and bell.satisfied == interval_ok == lp_ok == truth
            if ok and lp_ok:
                ok = _witness_reproduces(lp.witness, ab, ac, bc)
            return 1, ok

        ops.append((call, check))
    return Workload("exact_sweep", "triple", ops)


# -- ncycle -----------------------------------------------------------------


def _cycle_problems(seed: int, sizes, per_class: int):
    """A fixed panel of ``per_class`` instances per size and verdict, in an
    order set by the seed.

    The instances do not depend on the seed: the exact simplex's cost
    varies up to 4x between random instances of one size and verdict (the
    mixture's support and weights, and even the QuasiOnly noise level, move
    it), and a run has time for only a few dozen problems, so seeded
    instances would measure instance hardness rather than the code.
    """
    problems = [
        ncycle.generate(random.Random(f"panel-{n}-{k}-{verdict}-{copy}"), n, k, verdict)
        for n, k in sizes
        for copy in range(per_class)
        for verdict in ncycle.VERDICTS
    ]
    random.Random(seed).shuffle(problems)
    return problems


def _ncycle(name: str, problems, workdir: str) -> Workload:
    ops = []
    for i, problem in enumerate(problems):
        if not ncycle.label_holds(problem):
            raise RuntimeError(f"generator produced a mislabelled {problem.label}")
        path = os.path.join(workdir, f"{name}-{i}.json")
        problem.write(path)

        def call(path=path):
            return mg.solve_problem(cli.load_problem_document(path))

        def check(result, problem=problem):
            ok = result.status.value == problem.verdict
            if ok and problem.verdict == ncycle.PROPER:
                ok = ncycle.reproduces(result.witness, problem.tables, problem.n, problem.k)
            return 1, ok

        ops.append((call, check))
    return Workload(name, "problem", ops)
