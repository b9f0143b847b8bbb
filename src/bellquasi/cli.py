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
import json
import math
import sys
from fractions import Fraction
from functools import lru_cache
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
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _json_default(value):
    """``json.dumps`` hook: fractions become 'p/q' strings, verdicts their value."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, Feasibility):
        return value.value
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _parse_directions(args) -> tuple[singlet.Direction, singlet.Direction, singlet.Direction]:
    axes = (args.alpha, args.beta, args.gamma)
    if axes.count(None) != (0 if args.angles is None else 3):  # one form, whole, and never both
        raise ValueError("provide either --angles or all of --alpha/--beta/--gamma")
    if args.angles is None:
        return tuple(singlet.Direction.from_string(text) for text in axes)
    parts = args.angles.split(",")
    if len(parts) != 3:
        raise ValueError(f"--angles expects three comma-separated degrees, got {args.angles!r}")
    return tuple(singlet.Direction.from_degrees(float(p)) for p in parts)


def _table_dict(table: singlet.PairTable) -> dict:
    return {"++": table.pp, "+-": table.pm, "-+": table.mp, "--": table.mm}


def cmd_singlet(args) -> int:
    alpha, beta, gamma = _parse_directions(args)
    corr = singlet.correlations(alpha, beta, gamma)
    if args.exact:
        corr = singlet.CorrelationTriple(*(rationalize(v) for v in corr.as_tuple()))
    marg = singlet.tables_from_correlations(corr)
    verdict = quasi.classify(marg.p_vector, args.eps)
    family = verdict.family
    consistency = quasi.check_consistency(marg.p_vector, args.eps)
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
        print(json.dumps(report, indent=2, default=_json_default))
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
    span = (stop - start) / step if 0 < step < math.inf else math.nan
    if not math.isfinite(span):
        raise ValueError(f"step must be positive, finite and not vanishingly small, got {step}")
    return start, step, max(math.ceil(span - 1e-12), 1)


def _axis(start: float, step: float, count: int):
    """Per grid point: the angle, its correlation -cos(angle) once checked
    (as the triple holds it), and both as the CSV prints them."""
    for k in range(count):
        theta = start + k * step
        corr = singlet._checked_correlation(-math.cos(math.radians(theta)))
        yield theta, corr, _fmt(theta), _fmt(corr)


def _scan_rows(ab: tuple[float, float, int], ac: tuple[float, float, int], eps: float):
    """CSV lines of the violation map, one per grid cell, computed lazily.
    Every field is a number or a fixed tag, so a line is the fields joined
    by commas: csv would quote none of them.  Only the verdict and the margin
    depend on both angles: the rest of a line is worked out once per row, or
    once per scan for the inner axis, and <BC> with its text once per angle
    difference theta_ac - theta_ab.  That memo is keyed on the float
    difference itself and holds at most two rows' worth of differences: with
    one whole-degree step on both axes, consecutive rows share all but one
    difference; with uneven steps they share hardly any, and old ones are
    evicted instead of the memo growing with the grid.
    A cell computes the Bell margin inline, with the float operations of
    ``bellcheck._inequalities`` (the formula behind ``bell_pair``) in their
    order, prints it at .12g as ``_fmt`` would, and takes ``classify``'s tag
    from it: ``classify`` compares the family's 4 * (t_hi - t_lo) with
    -eps, and in floats that value is within ``bellcheck._FAMILY_GAP`` of
    the margin.  So a margin at least that far above -eps is Proper, one
    that far below is QuasiOnly, and only a margin inside the band makes the
    two calls ``classify`` makes, ``quasi.solve_family`` and
    ``QuasiFamily.interval_nonempty``, at tolerance ``eps`` (its values are
    floats; their residuals are exactly 0, so the family is never None); any
    other cell makes no call but the memo's.  Both band edges are rounded
    outward, so the band holds for every finite eps >= 0."""
    inner = list(_axis(*ac))
    proper_from = math.nextafter(-eps + bellcheck._FAMILY_GAP, math.inf)
    quasi_below = math.nextafter(-eps - bellcheck._FAMILY_GAP, -math.inf)
    proper, quasi_only = Feasibility.PROPER.value, Feasibility.QUASI_ONLY.value

    @lru_cache(maxsize=2 * len(inner))
    def bc(difference: float) -> tuple[float, str]:
        w = singlet._checked_correlation(-math.cos(math.radians(difference)))
        return w, f"{w:.12g}"

    for theta_ab, u, fmt_ab, fmt_u in _axis(*ab):
        lhs1, lhs2 = 1 + u, 1 - u
        for theta_ac, v, fmt_ac, fmt_v in inner:
            w, fmt_w = bc(theta_ac - theta_ab)
            # bellcheck._inequalities(u, v, w)[4]: the same float operations
            # in the same order, and a <= b picks what min(a, b) picks
            a, b = lhs1 - abs(v - w), lhs2 - abs(v + w)
            margin = a if a <= b else b
            if margin >= proper_from:
                tag = proper
            elif margin < quasi_below:
                tag = quasi_only
            else:
                tag = proper if quasi.solve_family(singlet._rhs(u, v, w, 1.0), eps).interval_nonempty(eps) else quasi_only
            yield f"{fmt_ab},{fmt_ac},{fmt_u},{fmt_v},{fmt_w},{margin:.12g},{tag}\n"


def cmd_scan(args) -> int:
    ab, ac = _parse_range(args.ab), _parse_range(args.ac)
    cells = ab[2] * ac[2]
    if cells > MAX_SCAN_CELLS:
        raise ValueError(f"grid has {cells} cells; at most {MAX_SCAN_CELLS} are allowed")

    to_stdout = args.out in (None, "-")
    try:
        out = sys.stdout if to_stdout else open(args.out, "w", newline="")
        try:
            out.write("theta_ab,theta_ac,corr_ab,corr_ac,corr_bc,margin,classification\n")
            for line in _scan_rows(ab, ac, args.eps):
                out.write(line)
        finally:
            if not to_stdout:
                out.close()
    except OSError as exc:
        if to_stdout:
            raise  # reported once, in main
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_OK


def _parse_table_entry(i: int, j: int, value, parsed: dict[str, Fraction]) -> Real:
    """Entry ``j`` of marginal ``i``: strings and ints become Fractions; finite
    floats pass through to :class:`MarginalProblem`, which checks and
    rationalizes the table once.  Errors name the position, not the value.
    A decimal exponent is checked from the text first: ``Fraction`` would
    expand it in full, so an entry whose exact value needs more digits than
    the int/str limit (CPython's default, 4,300, before Python 3.10.7) is
    rejected like a longer digit string.  ``parsed`` maps each string already
    read to its (immutable) Fraction, so a string that repeats is parsed
    once; a bad one is never stored, so it fails at its first position."""
    if isinstance(value, str):
        number = parsed.get(value)
        if number is not None:
            return number
        mantissa, _, exponent = value.strip().lower().partition("e")
        try:
            # Fraction reads "_" from Python 3.11 on and spaces around "/" from 3.12 on: refused on every version
            if "_" in value or len(value.split()) > 1:
                raise ValueError("not in the grammar of every supported Python")
            if exponent and len(mantissa) + abs(int(exponent)) > getattr(sys, "get_int_max_str_digits", lambda: 4300)():
                raise ValueError("exponent too large")
            number = parsed[value] = Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise DocumentError(f"marginal {i}, table entry {j}: not a decimal or p/q string") from None
        return number
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, float) and math.isfinite(value):
        return value
    raise DocumentError(f"marginal {i}, table entry {j}: not a finite number or numeric string")


def load_problem_document(path: str) -> MarginalProblem:
    """Parse a problem document (JSON) into a MarginalProblem.

    Schema (version 1): {"schema": 1,
      "observables": [{"name": str, "cardinality": int >= 2}, ...],
      "marginals":   [{"over": [names], "table": [entries]}, ...]}
    Table entries are strings parseable as decimals or "p/q" fractions
    (plain integers are accepted; a table with float entries is checked
    at ``DEFAULT_EPS`` and then rationalized once by ``MarginalProblem``).
    Each distinct entry string is parsed once per document: tables share
    its Fraction.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, int digit limit; nested too deeply
        raise DocumentError(f"invalid JSON in {path}: {exc}") from None
    if not isinstance(doc, dict) or type(doc.get("schema")) is not int or doc["schema"] != 1:
        raise DocumentError('document must be an object with "schema": 1')
    observables = doc.get("observables")
    marginals = doc.get("marginals")
    if not isinstance(observables, list) or not observables:
        raise DocumentError('"observables" must be a non-empty list')
    if not isinstance(marginals, list):
        raise DocumentError('"marginals" must be a list')
    obs = []
    for i, entry in enumerate(observables):
        if not isinstance(entry, dict) or "name" not in entry or "cardinality" not in entry:
            raise DocumentError(f'observable {i}: expected an object with "name" and "cardinality"')
        obs.append((str(entry["name"]), entry["cardinality"]))
    constraints = []
    parsed: dict[str, Fraction] = {}
    for i, entry in enumerate(marginals):
        if not isinstance(entry, dict) or not all(isinstance(entry.get(k), list) for k in ("over", "table")):
            raise DocumentError(f'marginal {i}: expected an object with "over" and "table" lists')
        table = tuple(_parse_table_entry(i, j, v, parsed) for j, v in enumerate(entry["table"]))
        constraints.append((tuple(str(n) for n in entry["over"]), table))
    try:
        return MarginalProblem(observables=tuple(obs), constraints=tuple(constraints))
    except ValueError as exc:
        raise DocumentError(str(exc)) from None


def cmd_solve(args) -> int:
    result = solve_problem(load_problem_document(args.path))
    report = {
        "status": result.status,
        "homogeneous_dim": result.homogeneous_dim,
        "witness": list(result.witness) if result.witness else None,
    }
    # built whole before it is written: a witness entry past the int/str digit limit raises ValueError
    if args.json:
        text = json.dumps(report, indent=2, default=_json_default)
    else:
        text = f"status: {result.status.value}\nhomogeneous dimension: {result.homogeneous_dim}"
        if result.witness is not None:
            text += "\nwitness: " + "  ".join(_fmt(v) for v in result.witness)
    print(text)
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
    """Run one subcommand; its exit code.  A command raises ``ValueError`` on bad input before it
    writes stdout, and only this function reports it: one ``error:`` line on stderr, exit 2."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        code = args.func(args)
        sys.stdout.flush()
    except ValueError as exc:  # bad input, DocumentError included; no command has written stdout yet
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # stdout's: every other file is handled where it is opened
        print(f"error: cannot write stdout: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    return code


def app() -> None:
    sys.exit(main())


if __name__ == "__main__":
    app()
