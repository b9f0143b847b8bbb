"""Command-line surface.

Subcommands:

* ``singlet``     - analyze one measurement configuration end to end.
* ``scan``        - sweep coplanar angle grids to a CSV violation map.
* ``solve``       - decide a general marginal problem from a JSON document.
* ``paper-check`` - regression-check the built-in matrix constants against
                    their published reference values.

Exit codes: 0 success/Proper, 2 usage or document error, 3 QuasiOnly
(violation detected, scriptable), 4 Inconsistent, 1 other failures.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from fractions import Fraction
from typing import Optional, Sequence

from . import bellcheck, quasi, reference, singlet
from .exactla import DEFAULT_EPS, Real
from .marginal_general import Feasibility, MarginalProblem, rationalize, solve_problem

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_QUASI_ONLY = 3
EXIT_INCONSISTENT = 4

#: Largest ``scan`` grid accepted: the full map at 0.1 degrees.
MAX_SCAN_CELLS = 3600 * 3600

_STATUS_EXIT = {
    Feasibility.PROPER: EXIT_OK,
    Feasibility.QUASI_ONLY: EXIT_QUASI_ONLY,
    Feasibility.INCONSISTENT: EXIT_INCONSISTENT,
}


class DocumentError(ValueError):
    """A problem document failed schema validation."""


def _fmt(value) -> str:
    """Human/CSV formatting: fractions verbatim, floats at 12 significant digits."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _jsonable(value):
    """Recursively convert to JSON-safe values; fractions become 'p/q' strings."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, Feasibility):
        return value.value
    return value


def _parse_directions(args) -> tuple[singlet.Direction, singlet.Direction, singlet.Direction]:
    if args.angles is not None:
        parts = args.angles.split(",")
        if len(parts) != 3:
            raise ValueError(f"--angles expects three comma-separated degrees, got {args.angles!r}")
        return tuple(singlet.Direction.from_degrees(float(p)) for p in parts)
    if args.alpha is None or args.beta is None or args.gamma is None:
        raise ValueError("provide either --angles or all of --alpha/--beta/--gamma")
    return tuple(singlet.Direction.from_string(text) for text in (args.alpha, args.beta, args.gamma))


def _table_dict(table: singlet.PairTable) -> dict:
    return {"++": table.pp, "+-": table.pm, "-+": table.mp, "--": table.mm}


def cmd_singlet(args) -> int:
    try:
        alpha, beta, gamma = _parse_directions(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    corr = singlet.correlations(alpha, beta, gamma)
    if args.exact:
        corr = singlet.CorrelationTriple(*(rationalize(v) for v in corr.as_tuple()))
    marg = singlet.tables_from_correlations(corr)
    consistency = quasi.check_consistency(marg.p_vector, args.eps)
    family = quasi.solve_family(marg.p_vector, args.eps)
    verdict = quasi.classify(marg.p_vector, args.eps)
    bell = bellcheck.bell_pair(corr, args.eps)
    empty = verdict.tag is Feasibility.QUASI_ONLY

    report = {
        "correlations": {"ab": corr.ab, "ac": corr.ac, "bc": corr.bc},
        "tables": {
            "ab": _table_dict(marg.pab),
            "ac": _table_dict(marg.pac),
            "bc": _table_dict(marg.pbc),
        },
        "consistency": {"ok": consistency.ok, "residuals": list(consistency.residuals)},
        "x0": list(family.x0) if family else None,
        "t_interval": None
        if family is None
        else {"lo": family.t_lo, "hi": family.t_hi, "empty": empty},
        "classification": verdict.tag,
        "witness": list(verdict.witness) if verdict.witness else None,
        "bell": {
            "ineq1": {"lhs": bell.ineq1_lhs, "rhs": bell.ineq1_rhs},
            "ineq2": {"lhs": bell.ineq2_lhs, "rhs": bell.ineq2_rhs},
            "satisfied": bell.satisfied,
            "margin": bell.margin,
        },
    }

    if args.json:
        print(json.dumps(_jsonable(report), indent=2))
    else:
        print(f"correlations: <AB> = {_fmt(corr.ab)}  <AC> = {_fmt(corr.ac)}  <BC> = {_fmt(corr.bc)}")
        for name, table in (("AB", marg.pab), ("AC", marg.pac), ("BC", marg.pbc)):
            cells = "  ".join(f"{k}={_fmt(v)}" for k, v in _table_dict(table).items())
            print(f"table {name}: {cells}")
        residuals = "  ".join(_fmt(r) for r in consistency.residuals)
        print(f"consistency: {'PASS' if consistency.ok else 'FAIL'}  residuals: {residuals}")
        if family is not None:
            print("x0: " + "  ".join(_fmt(v) for v in family.x0))
            print(f"t interval: [{_fmt(family.t_lo)}, {_fmt(family.t_hi)}]{'  (empty)' if empty else ''}")
        print(f"classification: {verdict.tag.value}")
        if verdict.witness is not None:
            print("witness: " + "  ".join(_fmt(v) for v in verdict.witness))
        print(
            f"bell 1: {_fmt(bell.ineq1_lhs)} >= {_fmt(bell.ineq1_rhs)}"
            f"  bell 2: {_fmt(bell.ineq2_lhs)} >= {_fmt(bell.ineq2_rhs)}"
            f"  satisfied: {bell.satisfied}  margin: {_fmt(bell.margin)}"
        )
    return _STATUS_EXIT[verdict.tag]


def _parse_range(text: str) -> tuple[float, float, int]:
    """(start, step, point count) of a half-open 'start:stop:step' axis."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"expected 'start:stop:step', got {text!r}")
    start, stop, step = (float(p) for p in parts)
    if not (0 <= start < 360) or not (start < stop <= 360):
        raise ValueError(f"range must satisfy 0 <= start < stop <= 360, got {text!r}")
    span = (stop - start) / step if step > 0 else math.nan
    if not math.isfinite(span):
        raise ValueError(f"step must be positive and not vanishingly small, got {step}")
    return start, step, max(math.ceil(span - 1e-12), 1)


def _axis(start: float, step: float, count: int):
    return (start + k * step for k in range(count))


def _scan_rows(ab: tuple[float, float, int], ac: tuple[float, float, int], eps: float):
    """CSV rows of the violation map, one per grid cell, computed lazily."""
    for theta_ab in _axis(*ab):
        for theta_ac in _axis(*ac):
            u = -math.cos(math.radians(theta_ab))
            v = -math.cos(math.radians(theta_ac))
            w = -math.cos(math.radians(theta_ac - theta_ab))
            corr = singlet.CorrelationTriple(u, v, w)
            verdict = quasi.classify(singlet.tables_from_correlations(corr).p_vector, eps)
            margin = bellcheck.bell_pair(corr, eps).margin
            yield [_fmt(x) for x in (theta_ab, theta_ac, corr.ab, corr.ac, corr.bc, margin)] + [verdict.tag.value]


def cmd_scan(args) -> int:
    try:
        ab, ac = _parse_range(args.ab), _parse_range(args.ac)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    cells = ab[2] * ac[2]
    if cells > MAX_SCAN_CELLS:
        print(f"error: grid has {cells} cells; at most {MAX_SCAN_CELLS} are allowed", file=sys.stderr)
        return EXIT_USAGE

    header = ["theta_ab", "theta_ac", "corr_ab", "corr_ac", "corr_bc", "margin", "classification"]
    try:
        out = sys.stdout if args.out in (None, "-") else open(args.out, "w", newline="")
        try:
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(_scan_rows(ab, ac, args.eps))
        finally:
            if out is not sys.stdout:
                out.close()
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_OK


def _parse_table_entry(value) -> Real:
    """Strings and ints become Fractions; finite floats pass through to
    :class:`MarginalProblem`, which checks and rationalizes the table once."""
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise DocumentError(f"bad table entry {value!r}: {exc}") from None
    if isinstance(value, bool):
        raise DocumentError(f"bad table entry {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise DocumentError(f"bad table entry {value!r}: not finite")
        return value
    raise DocumentError(f"bad table entry {value!r}")


def load_problem_document(path: str) -> MarginalProblem:
    """Parse a problem document (JSON) into a MarginalProblem.

    Schema (version 1): {"schema": 1,
      "observables": [{"name": str, "cardinality": int >= 2}, ...],
      "marginals":   [{"over": [names], "table": [entries]}, ...]}
    Table entries are strings parseable as decimals or "p/q" fractions
    (plain integers are accepted; a table with float entries is checked
    at ``DEFAULT_EPS`` and then rationalized once by ``MarginalProblem``).
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON in {path}: {exc}") from None
    if not isinstance(doc, dict) or doc.get("schema") != 1:
        raise DocumentError('document must be an object with "schema": 1')
    observables = doc.get("observables")
    marginals = doc.get("marginals")
    if not isinstance(observables, list) or not observables:
        raise DocumentError('"observables" must be a non-empty list')
    if not isinstance(marginals, list):
        raise DocumentError('"marginals" must be a list')
    obs = []
    for entry in observables:
        if not isinstance(entry, dict) or "name" not in entry or "cardinality" not in entry:
            raise DocumentError(f"bad observable entry: {entry!r}")
        card = entry["cardinality"]
        if not isinstance(card, int) or isinstance(card, bool):
            raise DocumentError(f"cardinality must be an integer, got {card!r}")
        obs.append((str(entry["name"]), card))
    constraints = []
    for entry in marginals:
        if not isinstance(entry, dict) or "over" not in entry or "table" not in entry:
            raise DocumentError(f"bad marginal entry: {entry!r}")
        over = entry["over"]
        table = entry["table"]
        if not isinstance(over, list) or not isinstance(table, list):
            raise DocumentError(f"bad marginal entry: {entry!r}")
        constraints.append((tuple(str(n) for n in over), tuple(_parse_table_entry(v) for v in table)))
    try:
        return MarginalProblem(observables=tuple(obs), constraints=tuple(constraints))
    except ValueError as exc:
        raise DocumentError(str(exc)) from None


def cmd_solve(args) -> int:
    try:
        problem = load_problem_document(args.path)
        result = solve_problem(problem)
    except ValueError as exc:  # DocumentError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    report = {
        "status": result.status,
        "homogeneous_dim": result.homogeneous_dim,
        "witness": list(result.witness) if result.witness else None,
    }
    if args.json:
        print(json.dumps(_jsonable(report), indent=2))
    else:
        print(f"status: {result.status.value}")
        print(f"homogeneous dimension: {result.homogeneous_dim}")
        if result.witness is not None:
            print("witness: " + "  ".join(_fmt(v) for v in result.witness))
    return _STATUS_EXIT[result.status]


def cmd_paper_check(args) -> int:
    items = reference.run_reference_check()
    for item in items:
        print(f"{item.name}: {'PASS' if item.ok else 'FAIL'} ({item.detail})")
    passed = sum(1 for item in items if item.ok)
    print(f"{passed}/{len(items)} checks passed")
    return EXIT_OK if passed == len(items) else EXIT_FAILURE


def _tolerance(text: str) -> float:
    """argparse type of ``--eps``: a finite float >= 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellquasi",
        description="Joint quasiprobabilities from pairwise marginals, exact "
        "feasibility tests, and violation maps for singlet-state measurements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_singlet = sub.add_parser("singlet", help="analyze one three-axis configuration")
    p_singlet.add_argument("--angles", help="coplanar axes, degrees: 'a,b,c'")
    p_singlet.add_argument("--alpha", help="axis for A as 'x,y,z' (use --alpha=-1,0,0 for a leading minus)")
    p_singlet.add_argument("--beta", help="axis for B as 'x,y,z'")
    p_singlet.add_argument("--gamma", help="axis for C as 'x,y,z'")
    p_singlet.add_argument("--eps", type=_tolerance, default=DEFAULT_EPS, help="feasibility tolerance (finite, >= 0)")
    p_singlet.add_argument("--exact", action="store_true", help="rationalize correlations and run exactly")
    p_singlet.add_argument("--json", action="store_true", help="machine-readable output")
    p_singlet.set_defaults(func=cmd_singlet)

    p_scan = sub.add_parser("scan", help="angle-grid scan to CSV")
    p_scan.add_argument("--ab", default="0:360:1", help="theta_ab range 'start:stop:step' (degrees)")
    p_scan.add_argument("--ac", default="0:360:1", help="theta_ac range 'start:stop:step' (degrees)")
    p_scan.add_argument("--eps", type=_tolerance, default=DEFAULT_EPS, help="feasibility tolerance (finite, >= 0)")
    p_scan.add_argument("--out", help="output CSV path (default stdout)")
    p_scan.set_defaults(func=cmd_scan)

    p_solve = sub.add_parser("solve", help="solve a marginal problem document")
    p_solve.add_argument("path", help="problem document (JSON)")
    p_solve.add_argument("--json", action="store_true", help="machine-readable output")
    p_solve.set_defaults(func=cmd_solve)

    p_check = sub.add_parser(
        "paper-check", help="recompute the fixed-matrix constants and diff against published values"
    )
    p_check.set_defaults(func=cmd_paper_check)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    return args.func(args)


def app() -> None:
    sys.exit(main())


if __name__ == "__main__":
    app()
