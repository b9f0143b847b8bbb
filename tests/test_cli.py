import csv
import functools
import hashlib
import importlib.util
import io
import json
import math
import os
import random
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import oracles
import pytest

from bellquasi import bellcheck, cli, quasi, reference, singlet
from bellquasi.cli import (
    EXIT_INCONSISTENT,
    EXIT_QUASI_ONLY,
    EXIT_USAGE,
    DocumentError,
    load_problem_document,
    main,
)
from bellquasi.marginal_general import MarginalProblem
from bellquasi.reference import REFERENCE_PSEUDOINVERSE, run_reference_check
from bellquasi.singlet import CorrelationTriple, tables_from_correlations

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
BENCH = Path(__file__).resolve().parent.parent / "bench"
SRC = Path(__file__).resolve().parent.parent / "src"
#: Every pinned output, by argv: (exit code, sha256 of stdout).  CI runs the
#: same table through the installed console script.
PINS = {
    tuple(pin["argv"]): (pin["exit"], pin["sha256"])
    for pin in json.loads((Path(__file__).resolve().parent / "pins.json").read_text())
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSingletCommand:
    def test_canonical_violation(self, capsys):
        code, out, _ = run(capsys, "singlet", "--angles", "0,60,120", "--json")
        assert code == EXIT_QUASI_ONLY
        report = json.loads(out)
        assert report["classification"] == "QuasiOnly"
        assert report["bell"]["margin"] == pytest.approx(-0.5, abs=1e-12)
        assert report["t_interval"]["empty"] is True

    def test_coincident_axes_proper(self, capsys):
        code, out, _ = run(capsys, "singlet", "--angles", "0,0,0")
        assert code == 0
        assert "classification: Proper" in out

    def test_boundary_margin_zero(self, capsys):
        code, out, _ = run(capsys, "singlet", "--angles", "0,90,180", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["classification"] == "Proper"
        assert report["bell"]["margin"] == pytest.approx(0.0, abs=1e-12)

    def test_parallel_axes_at_eps_0_agree_with_their_margin(self, capsys):
        # B and C parallel: the margin is exactly 0, and at eps 0 the family
        # must not call the same input QuasiOnly; a zero bound prints as 0
        code, out, _ = run(capsys, "singlet", "--angles", "0,90,90", "--eps", "0")
        assert code == 0
        assert "classification: Proper" in out
        assert "satisfied: True  margin: 0\n" in out
        assert "-0" not in re.split(r"[\s\[\],]+", out)

    def test_vector_mode(self, capsys):
        code, out, _ = run(
            capsys,
            "singlet",
            "--alpha", "1,0,0",
            "--beta", "0,1,0",
            "--gamma=-1,0,0",  # '=' form required for a leading minus
            "--json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["correlations"]["ac"] == pytest.approx(1.0)

    def test_malformed_vector_exits_2(self, capsys):
        code, _, err = run(capsys, "singlet", "--alpha", "1,0", "--beta", "0,1,0", "--gamma", "0,0,1")
        assert code == EXIT_USAGE
        assert "error" in err

    def test_missing_arguments_exit_2(self, capsys):
        code, _, err = run(capsys, "singlet")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "axes",
        [
            ("--angles", "nan,0,0"),
            ("--alpha", "nan,0,0", "--beta", "0,1,0", "--gamma", "0,0,1"),
            pytest.param(("--angles", "0,90"), id="two-angles"),
            # one form or the other: --angles never silently wins over the axes
            pytest.param(("--angles", "0,60,120", "--alpha", "1,0,0", "--beta", "0,1,0", "--gamma", "0,0,1"), id="angles-and-axes"),
            pytest.param(("--angles", "0,60,120", "--alpha", "1,0,0"), id="angles-and-alpha"),
        ],
    )
    def test_non_finite_axis_exits_2(self, capsys, axes):
        code, out, err = run(capsys, "singlet", *axes)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "angles, name", [("inf,0,0", "inf"), ("1e309,0,0", "inf"), ("0,-inf,0", "-inf"), ("0,0,nan", "nan")]
    )
    def test_non_finite_angle_is_named(self, capsys, angles, name):
        # math.cos(inf) fails with "math domain error", and a nan angle gave
        # the axis (nan, nan, 0.0): the error names the angle instead
        code, out, err = run(capsys, "singlet", "--angles", angles)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"angle {name} " in err
        assert "Traceback" not in err

    def test_overflowing_axis_exits_2(self, capsys):
        # the same axis as --alpha=1,0,0, whose correlations are -1 and -1;
        # its norm overflows, which once made it (0, 0, 0) and printed -0
        code, out, err = run(capsys, "singlet", "--alpha=1e155,0,0", "--beta", "1,0,0", "--gamma", "1,0,0")
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_exact_mode_outputs_fractions(self, capsys):
        code, out, _ = run(capsys, "singlet", "--angles", "0,60,120", "--exact", "--json")
        assert code == EXIT_QUASI_ONLY
        report = json.loads(out)
        assert report["correlations"]["ab"] == "-1/2"
        assert report["x0"][0] == "3/16"

    @pytest.mark.parametrize(
        "angles, expected_code, digest",
        [(argv[2], *pin) for argv, pin in PINS.items() if argv[0] == "singlet" and "--exact" in argv],
    )
    def test_exact_json_reports_are_pinned(self, capsys, angles, expected_code, digest):
        # the whole exact report byte for byte: tables, residuals, x0, the t
        # interval, the witness and both Bell sides, each printed as p/q
        code, out, _ = run(capsys, "singlet", "--angles", angles, "--exact", "--json")
        assert code == expected_code
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_float_json_report_is_pinned(self, capsys):
        # the float report byte for byte: floats as json writes them, the verdict as its value
        argv = ("singlet", "--angles", "0,60,120", "--json")
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_QUASI_ONLY
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == PINS[argv]

    def test_json_hook_writes_fractions_and_verdicts_and_refuses_the_rest(self):
        assert cli._json_default(F(-3, 16)) == "-3/16"
        assert cli._json_default(cli.Feasibility.QUASI_ONLY) == "QuasiOnly"
        for value in (object(), {1, 2}, 1j):
            with pytest.raises(TypeError):
                cli._json_default(value)
        with pytest.raises(TypeError):
            json.dumps({"x": [object()]}, default=cli._json_default)

    def test_empty_interval_reported_as_decided(self, capsys):
        code, out, _ = run(capsys, "singlet", "--angles", "0,90,179.9999", "--exact", "--eps", "1e-6", "--json")
        report = json.loads(out)
        assert report["classification"] == "QuasiOnly" and code == EXIT_QUASI_ONLY
        assert report["t_interval"]["empty"] is True
        code, out, _ = run(capsys, "singlet", "--angles", "0,90,179.9999", "--exact", "--eps", "1e-6")
        assert "classification: QuasiOnly" in out
        assert "(empty)" in out

    def test_family_solved_once(self, capsys, monkeypatch):
        calls = {"solve_family": 0, "check_consistency": 0}

        def counted(name):
            original = getattr(quasi, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(quasi, name, counted(name))
        assert cli.main(["singlet", "--angles", "0,60,120"]) == EXIT_QUASI_ONLY
        capsys.readouterr()
        assert calls == {"solve_family": 1, "check_consistency": 1}

    def test_json_contains_every_report_field(self, capsys):
        _, out, _ = run(capsys, "singlet", "--angles", "10,20,30", "--json")
        report = json.loads(out)
        assert set(report) == {
            "correlations", "tables", "consistency", "x0",
            "t_interval", "classification", "witness", "bell",
        }
        assert set(report["tables"]) == {"ab", "ac", "bc"}
        assert set(report["bell"]) == {"ineq1", "ineq2", "satisfied", "margin"}


class TestScanCommand:
    def test_header_and_target_row(self, capsys, tmp_path):
        out_path = tmp_path / "scan.csv"
        code, _, _ = run(capsys, "scan", "--ab", "60:61:1", "--ac", "120:121:1", "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "theta_ab,theta_ac,corr_ab,corr_ac,corr_bc,margin,classification"
        assert len(lines) == 2  # degenerate one-point scan: single data row
        fields = lines[1].split(",")
        assert fields[0] == "60" and fields[1] == "120"
        assert float(fields[5]) == pytest.approx(-0.5, abs=1e-12)
        assert fields[6] == "QuasiOnly"

    def test_byte_identical_runs(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "scan", "--ab", "0:90:7.5", "--ac", "0:180:12.5", "--out", str(a))
        run(capsys, "scan", "--ab", "0:90:7.5", "--ac", "0:180:12.5", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_five_degree_scan_digest(self, capsys, tmp_path):
        # the published 5-degree map, the 2-degree map at a wide eps and at
        # eps 0, and an uneven grid whose angle differences are almost all
        # distinct (so <BC> is rarely found in the scan's memo): any change
        # to a float path shows here.  These digests are the same on Python
        # 3.10 to 3.13, the --eps 0 map too: x0 is computed in a fixed order
        # of float operations.  Its 1,072 cells within _FAMILY_GAP of 0 are
        # the only pinned ones that ask the family.  The --out file holds
        # stdout's bytes.
        cases = [(argv, pin) for argv, pin in PINS.items() if argv[0] == "scan" and argv != ("scan",)]
        assert len(cases) == 4
        out_path = tmp_path / "scan.csv"
        for argv, (expected_code, expected) in cases:
            code, _, _ = run(capsys, *argv, "--out", str(out_path))
            assert code == expected_code == 0
            assert hashlib.sha256(out_path.read_bytes()).hexdigest() == expected, argv

    def test_cells_build_no_result_objects(self, capsys, tmp_path, monkeypatch):
        # a cell runs the deciders' formulas, not the deciders: with every
        # result type unusable the map is still written, byte for byte
        args = ("scan", "--ab", "0:360:15", "--ac", "0:360:15", "--eps", "1e-3")
        before, after = tmp_path / "before.csv", tmp_path / "after.csv"
        assert run(capsys, *args, "--out", str(before))[0] == 0

        def refuse(*args, **kwargs):
            raise AssertionError("a scan cell built a result object")

        for module, name in ((quasi, "Classification"), (quasi, "QuasiFamily"), (quasi, "ConsistencyCheck"),
                             (bellcheck, "BellVerdict"), (singlet, "CorrelationTriple")):
            monkeypatch.setattr(module, name, refuse)
        assert run(capsys, *args, "--out", str(after))[0] == 0
        assert after.read_bytes() == before.read_bytes()

    def test_bc_computed_once_per_angle_difference(self, monkeypatch):
        # the full default map: 360 + 360 axis correlations and one <BC> per
        # distinct theta_ac - theta_ab (-359 to 359), not one per cell
        calls = []
        checked = singlet._checked_correlation

        def counting(corr):
            calls.append(corr)
            return checked(corr)

        monkeypatch.setattr(singlet, "_checked_correlation", counting)
        grid = cli._parse_range("0:360:1")
        assert sum(1 for _ in cli._scan_rows(grid, grid, 1e-10)) == 129_600
        assert len(calls) <= 360 + 360 + 719

    def test_bc_memo_stays_within_its_bound(self, monkeypatch):
        # uneven steps make almost every angle difference distinct: the memo
        # evicts instead of growing with the grid
        memos = []

        def recording(maxsize):
            def wrap(function):
                memos.append(functools.lru_cache(maxsize=maxsize)(function))
                return memos[-1]

            return wrap

        monkeypatch.setattr(cli, "lru_cache", recording)
        ab, ac = cli._parse_range("0.5:360:0.73"), cli._parse_range("1.25:360:0.61")
        bound = 2 * ac[2]
        for k, _ in enumerate(cli._scan_rows(ab, ac, 1e-10)):
            if k % ac[2] == 0:  # once per row
                assert memos[0].cache_info().currsize <= bound
        info = memos[0].cache_info()
        assert len(memos) == 1 and info.maxsize == bound
        assert info.currsize == bound < info.misses  # full, and evicting

    def test_row_order_and_count(self, capsys, tmp_path):
        out_path = tmp_path / "scan.csv"
        run(capsys, "scan", "--ab", "0:30:10", "--ac", "0:20:10", "--out", str(out_path))
        rows = out_path.read_text().splitlines()[1:]
        assert len(rows) == 3 * 2
        pairs = [(float(r.split(",")[0]), float(r.split(",")[1])) for r in rows]
        assert pairs == [(0, 0), (0, 10), (10, 0), (10, 10), (20, 0), (20, 10)]

    def test_full_degree_scan_consistency(self, capsys, tmp_path):
        # 360x360 grid: margin and classification must tell the same story
        out_path = tmp_path / "full.csv"
        code, _, _ = run(capsys, "scan", "--out", str(out_path))
        assert code == 0
        digest = hashlib.sha256(out_path.read_bytes()).hexdigest()
        assert (code, digest) == PINS[("scan",)]
        rows = out_path.read_text().splitlines()[1:]
        assert len(rows) == 129_600
        eps = 1e-10
        for row in rows:
            fields = row.split(",")
            margin, verdict = float(fields[5]), fields[6]
            if margin >= -eps:
                assert verdict == "Proper"
            if margin < -1e-6:
                assert verdict == "QuasiOnly"

    EPS = ["0", "1e-16", "1e-10", "1e-3", "0.5", "2", "4", "1e300"]

    @pytest.mark.parametrize(
        "ab, ac, eps",
        [pytest.param((0.5, 7.3, 50), (1.25, 6.1, 59), eps, id=eps) for eps in EPS]
        + [pytest.param((0, 15, 24), (0, 15, 24), eps, id=f"15deg-{eps}") for eps in EPS],
    )
    def test_rows_agree_with_singlet_pipeline(self, capsys, tmp_path, ab, ac, eps):
        # every cell of a non-integer grid, at any eps: the scan prints what
        # the triple, its pair tables, classify and bell_pair give for it,
        # and --out and stdout hold the bytes csv.writer makes of those
        # fields.  The 15-degree grid adds the cells with margin 0 (two
        # parallel or antiparallel axes), where the scan consults the family
        # at eps 0.
        (start_ab, step_ab, n_ab), (start_ac, step_ac, n_ac) = ab, ac
        out_path = tmp_path / "scan.csv"
        argv = ("scan", "--ab", f"{start_ab}:360:{step_ab}", "--ac", f"{start_ac}:360:{step_ac}", "--eps", eps)
        code, _, _ = run(capsys, *argv, "--out", str(out_path))
        assert code == 0
        code, stdout, _ = run(capsys, *argv)
        assert code == 0
        thetas_ab = [start_ab + k * step_ab for k in range(n_ab)]
        thetas_ac = [start_ac + k * step_ac for k in range(n_ac)]
        assert thetas_ab[-1] < 360 <= start_ab + n_ab * step_ab and thetas_ac[-1] < 360 <= start_ac + n_ac * step_ac
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(["theta_ab", "theta_ac", "corr_ab", "corr_ac", "corr_bc", "margin", "classification"])
        for theta_ab in thetas_ab:
            for theta_ac in thetas_ac:
                corr = CorrelationTriple(
                    -math.cos(math.radians(theta_ab)),
                    -math.cos(math.radians(theta_ac)),
                    -math.cos(math.radians(theta_ac - theta_ab)),
                )
                tag = quasi.classify(tables_from_correlations(corr).p_vector, float(eps)).tag
                margin = bellcheck.bell_pair(corr, float(eps)).margin
                writer.writerow([format(x, ".12g") for x in (theta_ab, theta_ac, *corr.as_tuple(), margin)]
                                + [tag.value])
        assert out_path.read_bytes() == expected.getvalue().encode()
        assert stdout == expected.getvalue()

    @pytest.mark.parametrize(
        "ab, ac, eps",
        [pytest.param("0:360:1", "0:360:1", "1e-10", id="1deg")]
        + [pytest.param("0:360:2", "0:360:2", eps, id=f"2deg-{eps}") for eps in ("0", "1e-16", "1e-3")]
        + [pytest.param("0.5:360:0.73", "1.25:360:0.61", "1e-10", id="uneven")]
        + [pytest.param("0:360:15", "0:360:15", eps, id=f"15deg-{eps}") for eps in ("0.5", "2", "1e300")],
    )
    def test_cells_match_reference_scan_rows(self, ab, ac, eps):
        # the inline margin and its .12g text against the loop that called
        # bellcheck._inequalities and cli._fmt, line for line: a reordered
        # float operation changes printed margins on the 2-degree and uneven
        # maps, and this also covers the unpinned --eps 0 and 1e-16 maps
        ab, ac, eps = cli._parse_range(ab), cli._parse_range(ac), float(eps)
        lines, expected = list(cli._scan_rows(ab, ac, eps)), list(oracles.reference_scan_rows(ab, ac, eps))
        assert len(lines) == len(expected) == ab[2] * ac[2]
        assert [(k, a, b) for k, (a, b) in enumerate(zip(lines, expected)) if a != b][:3] == []

    def test_bad_range_exits_2(self, capsys):
        code, _, err = run(capsys, "scan", "--ab", "0:400:1")
        assert code == EXIT_USAGE
        code, _, err = run(capsys, "scan", "--ab", "10:5:1")
        assert code == EXIT_USAGE
        code, _, err = run(capsys, "scan", "--ab", "0:360:0")
        assert code == EXIT_USAGE
        # an empty axis (start == stop): exit 2 with one error line, not a one-point row
        code, out, err = run(capsys, "scan", "--ab", "10:10:1")
        assert code == EXIT_USAGE
        assert out == "" and err.startswith("error:") and err.count("\n") == 1
        # no step field: exit 2 with one error line
        code, out, err = run(capsys, "scan", "--ab", "0:10")
        assert code == EXIT_USAGE
        assert out == "" and err.startswith("error: expected 'start:stop:step'") and err.count("\n") == 1

    def test_classification_agrees_with_margin_at_default_eps(self, capsys):
        code, out, _ = run(capsys, "scan", "--ab", "90:90.5:1", "--ac", "179.99999999:180:1")
        assert code == 0
        rows = out.splitlines()[1:]
        assert len(rows) == 1
        fields = rows[0].split(",")
        assert -4e-10 < float(fields[5]) < -1e-10
        assert (fields[6] == "Proper") == (float(fields[5]) >= -1e-10)

    @pytest.mark.parametrize("ab", ["0:1:1e-9", "0:360:1e-320"])
    def test_huge_grid_exits_2_before_any_row(self, capsys, ab):
        code, out, err = run(capsys, "scan", "--ab", ab)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("axis", ["--ab", "--ac"])
    @pytest.mark.parametrize("step", ["inf", "1e309"])
    def test_infinite_step_exits_2_before_any_row(self, capsys, axis, step):
        # 360 / inf is 0, a finite span, but the axis would hold 0 * inf = nan
        code, out, err = run(capsys, "scan", "--ab", "0:1:1", "--ac", "0:1:1", axis, f"0:360:{step}")
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_grid_cap_counts_cells(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_SCAN_CELLS", 6)
        code, out, _ = run(capsys, "scan", "--ab", "0:3:1", "--ac", "0:2:1")
        assert code == 0 and len(out.splitlines()) == 1 + 6
        code, out, err = run(capsys, "scan", "--ab", "0:3:1", "--ac", "0:3:1")
        assert code == EXIT_USAGE and out == ""
        assert err == "error: grid has 9 cells; at most 6 are allowed\n"

    def test_write_error_mid_stream_reports_error_and_closes_file(self, capsys, tmp_path, monkeypatch):
        out_path = tmp_path / "scan.csv"
        opened = []

        class FailingFile:
            """Accepts the header, then fails the first row's write."""

            def __init__(self, fh):
                self.fh = fh
                self.writes = 0

            def write(self, text):
                self.writes += 1
                if self.writes > 1:
                    raise OSError(28, "No space left on device")
                return self.fh.write(text)

            def close(self):
                self.fh.close()

        def failing_open(path, *args, **kwargs):
            opened.append(FailingFile(open(path, *args, **kwargs)))
            return opened[-1]

        monkeypatch.setattr(cli, "open", failing_open, raising=False)
        code, _, err = run(capsys, "scan", "--ab", "0:2:1", "--ac", "0:2:1", "--out", str(out_path))
        assert code == 1
        assert err.startswith(f"error: cannot write {out_path}")
        assert len(opened) == 1 and opened[0].fh.closed
        assert out_path.read_text().startswith("theta_ab,")

    def test_unwritable_path_reports_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "scan", "--ab", "0:1:1", "--ac", "0:1:1",
                           "--out", str(tmp_path / "missing" / "x.csv"))
        assert code == 1
        assert "x.csv" in err


@pytest.mark.parametrize("command", [["singlet", "--angles", "0,60,120"], ["scan", "--ab", "0:1:1", "--ac", "0:1:1"]])
@pytest.mark.parametrize("eps", ["-1", "nan", "inf", "abc"])
def test_invalid_eps_exits_2(capsys, command, eps):
    code, out, err = run(capsys, *command, "--eps", eps)
    assert code == EXIT_USAGE
    assert "error:" in err and "--eps" in err
    assert out == ""


@pytest.mark.parametrize("eps", ["0", "1e-6"])
def test_valid_eps_accepted(capsys, eps):
    code, _, _ = run(capsys, "singlet", "--angles", "0,60,120", "--eps", eps)
    assert code == EXIT_QUASI_ONLY


class TestSolveCommand:
    def test_bundled_uniform(self, capsys):
        code, out, _ = run(capsys, "solve", str(PROBLEMS / "bell_uniform.json"))
        assert code == 0
        assert "status: Proper" in out

    def test_bundled_violation(self, capsys):
        code, out, _ = run(capsys, "solve", str(PROBLEMS / "bell_0_60_120.json"), "--json")
        assert code == EXIT_QUASI_ONLY
        report = json.loads(out)
        assert report["status"] == "QuasiOnly"
        assert report["homogeneous_dim"] == 1
        assert report["witness"] is None

    def test_bundled_contradictory(self, capsys):
        code, out, _ = run(capsys, "solve", str(PROBLEMS / "contradictory.json"))
        assert code == EXIT_INCONSISTENT
        assert "status: Inconsistent" in out

    def test_witness_serialized_as_fractions(self, capsys):
        code, out, _ = run(capsys, "solve", str(PROBLEMS / "bell_uniform.json"), "--json")
        assert code == 0
        report = json.loads(out)
        for value in report["witness"]:
            F(value)  # every entry parses back as an exact fraction

    @pytest.mark.parametrize(
        "name, expected_code, digest", [(Path(argv[1]).stem, *pin) for argv, pin in PINS.items() if argv[0] == "solve"]
    )
    def test_bundled_json_reports_are_pinned(self, capsys, name, expected_code, digest):
        # the whole --json report, witness included, byte for byte: a change
        # to the exact LP's pivot path or witness read-out shows here
        code, out, _ = run(capsys, "solve", str(PROBLEMS / f"{name}.json"), "--json")
        assert code == expected_code
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_schema_violation_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": 2, "observables": [], "marginals": []}))
        code, _, err = run(capsys, "solve", str(bad))
        assert code == EXIT_USAGE
        assert "schema" in err

    @pytest.mark.parametrize("schema", [True, 1.0], ids=["bool", "float"])
    def test_non_integer_schema_exits_2(self, capsys, tmp_path, schema):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "schema": schema,
                    "observables": [{"name": "A", "cardinality": 2}],
                    "marginals": [{"over": ["A"], "table": ["1/2", "1/2"]}],
                }
            )
        )
        code, _, err = run(capsys, "solve", str(bad))
        assert code == EXIT_USAGE
        assert "schema" in err

    def test_deeply_nested_document_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "deep.json"
        bad.write_text("[" * 200000 + "]" * 200000)
        with pytest.raises(DocumentError):
            load_problem_document(str(bad))
        code, _, err = run(capsys, "solve", str(bad))
        assert code == EXIT_USAGE
        assert err.startswith("error:")

    def test_integer_over_the_digit_limit_names_the_document(self, capsys, tmp_path):
        # json.load raises a plain ValueError, not a JSONDecodeError, for an int past the int/str limit
        bad = tmp_path / "bad.json"
        bad.write_text(
            '{"schema": 1, "observables": [{"name": "A", "cardinality": 2}], '
            '"marginals": [{"over": ["A"], "table": [' + "1" * 5000 + ", 0]}]}"
        )
        with pytest.raises(DocumentError, match=r"^invalid JSON in "):
            load_problem_document(str(bad))
        code, _, err = run(capsys, "solve", str(bad))
        assert code == EXIT_USAGE
        assert err.startswith(f"error: invalid JSON in {bad}: ") and err.count("\n") == 1

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "solve", str(tmp_path / "nope.json"))
        assert code == EXIT_USAGE

    def test_float_table_checked_as_a_table(self, capsys, tmp_path):
        # the float sum is exactly 1.0; the entries rationalized one by one are not
        doc = tmp_path / "floats.json"
        doc.write_text(
            json.dumps(
                {
                    "schema": 1,
                    "observables": [{"name": "A", "cardinality": 3}],
                    "marginals": [{"over": ["A"], "table": [0.1234567, 0.2345678, 0.6419755]}],
                }
            )
        )
        code, out, err = run(capsys, "solve", str(doc), "--json")
        assert (code, err) == (0, "")
        assert json.loads(out)["status"] == "Proper"

    def test_unrepairable_float_table_is_named(self, capsys, tmp_path):
        # the float table passes its check at eps, but no exact repair is near it
        table = oracles.unrepairable_float_table()
        doc = tmp_path / "unrepairable.json"
        doc.write_text(
            json.dumps(
                {
                    "schema": 1,
                    "observables": [{"name": "B", "cardinality": 2}, {"name": "A", "cardinality": len(table)}],
                    "marginals": [{"over": ["B"], "table": ["1/2", "1/2"]}, {"over": ["A"], "table": table}],
                }
            )
        )
        code, out, err = run(capsys, "solve", str(doc))
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: table of constraint 1: cannot rationalize: ") and err.count("\n") == 1

    def test_float_table_summing_past_the_float_range_exits_2(self, capsys, tmp_path):
        # finite entries whose sum overflows: one error line naming the table, no traceback
        doc = tmp_path / "overflow.json"
        doc.write_text('{"schema": 1, "observables": [{"name": "A", "cardinality": 2}], "marginals": [{"over": ["A"], "table": [1e308, 1e308]}]}')
        code, out, err = run(capsys, "solve", str(doc))
        assert (code, out, err) == (EXIT_USAGE, "", "error: table of constraint 0 does not sum to 1\n")

    def test_bad_table_length_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "schema": 1,
                    "observables": [{"name": "A", "cardinality": 2}],
                    "marginals": [{"over": ["A"], "table": ["1/2", "1/4", "1/4"]}],
                }
            )
        )
        code, _, err = run(capsys, "solve", str(bad))
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "observables, table",
        [
            pytest.param('{"name": "A", "cardinality": 2}', '["' + "1/2" * 2500 + '", "1/2"]', id="long-table-string"),
            pytest.param("[" * 900 + "]" * 900, '["1/2", "1/2"]', id="deep-observable-entry"),
        ],
    )
    def test_bad_entry_error_is_one_short_line(self, capsys, tmp_path, observables, table):
        # the message names the entry's position; it does not repeat the entry
        bad = tmp_path / "bad.json"
        bad.write_text(f'{{"schema": 1, "observables": [{observables}], "marginals": [{{"over": ["A"], "table": {table}}}]}}')
        code, _, err = run(capsys, "solve", str(bad))
        assert code == EXIT_USAGE
        assert err.startswith("error:") and err.count("\n") == 1 and len(err) <= 201

    @pytest.mark.parametrize("n", [14000, 20000])
    def test_joint_size_refusal_is_one_short_line(self, capsys, tmp_path, n):
        # 2^n joint outcomes: the count has 4,215 or 6,021 digits, and past
        # the int/str digit limit writing it out would replace the refusal
        doc = tmp_path / "wide.json"
        observables = [{"name": f"O{i}", "cardinality": 2} for i in range(n)]
        doc.write_text(json.dumps({"schema": 1, "observables": observables, "marginals": []}))
        code, out, err = run(capsys, "solve", str(doc))
        assert (code, out, err) == (EXIT_USAGE, "", "error: joint outcome count exceeds cap 1000000\n")

    @pytest.mark.parametrize(
        "over, table",
        [
            pytest.param(["A", "X" * 5000], ["1/4"] * 4, id="unknown-observable"),
            pytest.param(["B" * 5000, "B" * 5000], ["1/4"] * 4, id="repeated-observable"),
            pytest.param(["A", "B" * 5000], ["1/2"] * 2, id="table-length"),
            pytest.param(["A", "B" * 5000], ["1/2"] * 4, id="not-a-distribution"),
        ],
    )
    def test_constraint_error_is_one_short_line(self, capsys, tmp_path, over, table):
        # the message names the constraint by position, not by its observable names
        bad = tmp_path / "bad.json"
        observables = [{"name": "A", "cardinality": 2}, {"name": "B" * 5000, "cardinality": 2}]
        bad.write_text(
            json.dumps(
                {
                    "schema": 1,
                    "observables": observables,
                    "marginals": [{"over": ["A"], "table": ["1/2", "1/2"]}, {"over": over, "table": table}],
                }
            )
        )
        code, _, err = run(capsys, "solve", str(bad))
        assert code == EXIT_USAGE
        assert err.startswith("error: ") and "constraint 1" in err
        assert err.count("\n") == 1 and len(err) <= 201

    @pytest.mark.parametrize(
        "entry",
        [
            pytest.param("1e3000000", id="large"),
            pytest.param("1e-3000000", id="small"),
            pytest.param(" 1E+3000000", id="spaced-upper-case"),
            pytest.param("1e" + "9" * 5000, id="exponent-over-digit-limit"),
        ],
    )
    def test_huge_exponent_rejected_from_the_text(self, capsys, tmp_path, monkeypatch, entry):
        # Fraction would expand the exponent in full; the entry must be refused before that
        def no_fraction(*args):
            raise AssertionError("Fraction called on a table entry with a huge exponent")

        monkeypatch.setattr(cli, "Fraction", no_fraction)
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "schema": 1,
                    "observables": [{"name": "A", "cardinality": 2}],
                    "marginals": [{"over": ["A"], "table": [entry, "1/2"]}],
                }
            )
        )
        with pytest.raises(DocumentError, match=r"^marginal 0, table entry 0: "):
            load_problem_document(str(bad))
        code, _, err = run(capsys, "solve", str(bad))
        assert code == EXIT_USAGE
        assert err.startswith("error: marginal 0, table entry 0: ") and err.count("\n") == 1

    def test_exponent_guard_without_the_digit_limit_function(self, capsys, tmp_path, monkeypatch):
        # sys.get_int_max_str_digits arrived in Python 3.10.7; without it the
        # guard reads CPython's default limit, 4,300 digits
        monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
        doc = tmp_path / "doc.json"

        def solve(*table):
            observables, marginals = [{"name": "A", "cardinality": 2}], [{"over": ["A"], "table": list(table)}]
            doc.write_text(json.dumps({"schema": 1, "observables": observables, "marginals": marginals}))
            return run(capsys, "solve", str(doc))

        assert solve("1e-1", "9e-1") == (0, "status: Proper\nhomogeneous dimension: 0\nwitness: 1/10  9/10\n", "")
        # 4,300 digits pass the guard, and the table is then refused for its sum
        assert solve("1e4299", "0") == (EXIT_USAGE, "", "error: table of constraint 0 does not sum to 1\n")

        def no_fraction(*args):
            raise AssertionError("Fraction called on a table entry with a huge exponent")

        monkeypatch.setattr(cli, "Fraction", no_fraction)
        for entry in ("1e4300", "1e-4300", "1e3000000"):
            code, out, err = solve(entry, "1/2")
            assert (code, out) == (EXIT_USAGE, "")
            assert err.startswith("error: marginal 0, table entry 0: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "cardinality, table, changes",
        [
            # json writes non-finite floats as Infinity/-Infinity/NaN, which json.load accepts
            pytest.param(2, [float("inf"), 0], {}, id="infinity-entry"),
            pytest.param(2, [float("-inf"), 1], {}, id="minus-infinity-entry"),
            pytest.param(2, [float("nan"), 1], {}, id="nan-entry"),
            pytest.param(2, [1.5, -0.5], {}, id="negative-float-entry"),
            # Fraction reads these from Python 3.11 ("_") and 3.12 (spaces around "/") on
            pytest.param(2, ["1_0/2_0", "1/2"], {}, id="underscore-entry"),
            pytest.param(2, ["1 / 2", "1/2"], {}, id="spaced-slash-entry"),
            pytest.param(2.9, ["1/2", "1/2"], {}, id="float-cardinality"),
            pytest.param("2", ["1/2", "1/2"], {}, id="string-cardinality"),
            pytest.param(True, ["1/2", "1/2"], {}, id="bool-cardinality"),
            pytest.param(None, ["1/2", "1/2"], {}, id="null-cardinality"),
            # the document's other fields, each replaced on a valid document
            pytest.param(2, ["1/2", "1/2"], {"observables": []}, id="no-observables"),
            pytest.param(2, ["1/2", "1/2"], {"marginals": {}}, id="marginals-object"),
            pytest.param(2, ["1/2", "1/2"], {"marginals": [{"over": "A", "table": ["1/2", "1/2"]}]}, id="over-string"),
            pytest.param(2, ["1/2", "1/2"], {"marginals": [{"over": [], "table": ["1"]}]}, id="over-empty"),
            pytest.param(2, ["1/2", "1/2"], {"observables": [{"name": "A", "cardinality": 2}] * 2}, id="repeated-name"),
        ],
    )
    def test_bad_document_exits_2(self, capsys, tmp_path, cardinality, table, changes):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "schema": 1,
                    "observables": [{"name": "A", "cardinality": cardinality}],
                    "marginals": [{"over": ["A"], "table": table}],
                    **changes,
                }
            )
        )
        with pytest.raises(DocumentError):
            load_problem_document(str(bad))
        code, out, err = run(capsys, "solve", str(bad))
        assert code == EXIT_USAGE
        assert err.startswith("error:")
        assert out == "" and err.count("\n") == 1 and "Traceback" not in err

    def test_elimination_over_the_cap_exits_2(self, capsys, tmp_path):
        # one binary table 4,000 times: 4,001 x 2 entries, but the elimination
        # [A | I] holds 4,001 x 4,003, over the cap (solved, it peaks near 270 MB)
        doc = tmp_path / "copies.json"
        copies = [{"over": ["A"], "table": ["1/2", "1/2"]}] * 4000
        doc.write_text(json.dumps({"schema": 1, "observables": [{"name": "A", "cardinality": 2}], "marginals": copies}))
        code, out, err = run(capsys, "solve", str(doc))
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: constraint matrix of 4001 x (2 + 4001) entries exceeds cap 10000000\n"

    @pytest.mark.parametrize("flags", [(), ("--json",)])
    def test_unprintable_witness_exits_2_before_any_output(self, capsys, tmp_path, flags):
        # two tables with coprime 4,001-digit denominators: a witness entry has
        # about 8,000 digits, past the int/str limit, so it cannot be written
        p, q = 10**4000 + 1, 10**4000 + 3
        doc = tmp_path / "wide.json"
        tables = [{"over": [name], "table": [f"1/{d}", f"{d - 1}/{d}"]} for name, d in (("A", p), ("B", q))]
        observables = [{"name": name, "cardinality": 2} for name in "AB"]
        doc.write_text(json.dumps({"schema": 1, "observables": observables, "marginals": tables}))
        code, out, err = run(capsys, "solve", *flags, str(doc))
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and len(err) <= 201


class TestLoadProblemDocument:
    def test_parses_fraction_and_decimal_strings(self, tmp_path):
        doc = tmp_path / "doc.json"
        doc.write_text(
            json.dumps(
                {
                    "schema": 1,
                    "observables": [{"name": "A", "cardinality": 2}],
                    "marginals": [{"over": ["A"], "table": ["1/4", "0.75"]}],
                }
            )
        )
        prob = load_problem_document(str(doc))
        assert prob.constraints[0][1] == (F(1, 4), F(3, 4))

    def test_integer_entries_load_as_fractions(self, capsys, tmp_path):
        doc = tmp_path / "doc.json"
        doc.write_text(
            json.dumps(
                {
                    "schema": 1,
                    "observables": [{"name": "A", "cardinality": 2}],
                    "marginals": [{"over": ["A"], "table": [1, 0]}],
                }
            )
        )
        table = load_problem_document(str(doc)).constraints[0][1]
        assert table == (1, 0) and all(type(v) is F for v in table)
        code, out, _ = run(capsys, "solve", str(doc))
        assert code == 0 and "status: Proper" in out

    def test_parses_exponents_within_the_digit_limit(self, tmp_path):
        doc = tmp_path / "doc.json"
        doc.write_text(
            json.dumps(
                {
                    "schema": 1,
                    "observables": [{"name": "A", "cardinality": 2}],
                    "marginals": [{"over": ["A"], "table": ["25E-2", "0.0075e2"]}],
                }
            )
        )
        prob = load_problem_document(str(doc))
        assert prob.constraints[0][1] == (F(1, 4), F(3, 4))

    def test_dense_matrix_over_the_cap_is_refused(self, tmp_path):
        # two tables over 1,000 x 1,000 outcomes ask for a 1,999 x 10**6
        # constraint matrix: refused while loading, before any of it is built
        # (the document is never solved)
        doc = tmp_path / "two_tables.json"
        uniform = ["1/1000"] * 1000
        doc.write_text(
            json.dumps(
                {
                    "schema": 1,
                    "observables": [{"name": "A", "cardinality": 1000}, {"name": "B", "cardinality": 1000}],
                    "marginals": [{"over": ["A"], "table": uniform}, {"over": ["B"], "table": uniform}],
                }
            )
        )
        with pytest.raises(DocumentError, match=r"^constraint matrix of 1999 x 1000000 entries exceeds cap 10000000$"):
            load_problem_document(str(doc))

    def test_matches_one_fraction_per_entry(self, tmp_path, monkeypatch):
        # the bundled documents and both n-cycle panels, all three verdicts
        panels = bench_cycle_documents(tmp_path, monkeypatch)
        for path in sorted(PROBLEMS.glob("*.json")) + panels["ncycle_small"] + panels["ncycle_large"]:
            assert load_problem_document(str(path)) == fraction_per_entry_problem(path), path

    def test_each_distinct_string_parsed_once(self, tmp_path, monkeypatch):
        calls = []

        def counted_fraction(value):
            calls.append(value)
            return F(value)

        panels = {"bundled": sorted(PROBLEMS.glob("*.json")), **bench_cycle_documents(tmp_path, monkeypatch)}
        monkeypatch.setattr(cli, "Fraction", counted_fraction)
        totals = Counter()  # entries and Fraction calls per panel
        for panel, paths in panels.items():
            for path in paths:
                entries = [v for m in json.loads(path.read_text())["marginals"] for v in m["table"]]
                calls.clear()
                load_problem_document(str(path))
                assert calls == list(dict.fromkeys(entries)), path
                totals[panel, "entries"] += len(entries)
                totals[panel, "calls"] += len(calls)
        assert (totals["bundled", "entries"], totals["bundled", "calls"]) == (132, 13)
        assert (totals["ncycle_small", "entries"], totals["ncycle_small", "calls"]) == (456, 160)
        assert (totals["ncycle_large", "entries"], totals["ncycle_large", "calls"]) == (231, 58)

    def test_repeated_bad_string_fails_at_its_first_position(self, tmp_path):
        doc = tmp_path / "bad.json"
        doc.write_text(
            json.dumps(
                {
                    "schema": 1,
                    "observables": [{"name": "A", "cardinality": 2}, {"name": "B", "cardinality": 2}],
                    "marginals": [{"over": ["A"], "table": ["1/2", "1/x"]}, {"over": ["B"], "table": ["1/x", "1/2"]}],
                }
            )
        )
        with pytest.raises(DocumentError, match=r"^marginal 0, table entry 1: "):
            load_problem_document(str(doc))

    def test_repeated_huge_exponent_refused_before_fraction(self, tmp_path, monkeypatch):
        def no_fraction(*args):
            raise AssertionError("Fraction called on a table entry with a huge exponent")

        monkeypatch.setattr(cli, "Fraction", no_fraction)
        doc = tmp_path / "bad.json"
        doc.write_text(
            json.dumps(
                {
                    "schema": 1,
                    "observables": [{"name": "A", "cardinality": 2}, {"name": "B", "cardinality": 2}],
                    "marginals": [{"over": ["A"], "table": ["1e3000000"] * 2}, {"over": ["B"], "table": ["1e3000000"] * 2}],
                }
            )
        )
        with pytest.raises(DocumentError, match=r"^marginal 0, table entry 0: "):
            load_problem_document(str(doc))


def fraction_per_entry_problem(path) -> MarginalProblem:
    """The problem of a document with ``Fraction`` called on every string or
    int entry, each on its own: what the loader returned before it parsed a
    repeated string once."""
    doc = json.loads(Path(path).read_text())
    return MarginalProblem(
        observables=tuple((o["name"], o["cardinality"]) for o in doc["observables"]),
        constraints=tuple(
            (tuple(m["over"]), tuple(v if isinstance(v, float) else F(v) for v in m["table"])) for m in doc["marginals"]
        ),
    )


def bench_cycle_documents(tmp_path, monkeypatch) -> dict:
    """The panel documents of the benchmark's ``ncycle_small`` (4- and
    6-cycles with k = 2 and the 4-cycle with k = 3, two copies) and
    ``ncycle_large`` (8-cycle with k = 2, 5-cycle with k = 3, one copy)
    workloads, each verdict, written to ``tmp_path``: paths by workload."""
    spec = importlib.util.spec_from_file_location("bench_ncycle", BENCH / "ncycle.py")
    ncycle = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, ncycle)  # its dataclass looks the module up
    spec.loader.exec_module(ncycle)
    panels = {"ncycle_small": (((4, 2), (6, 2), (4, 3)), 2), "ncycle_large": (((8, 2), (5, 3)), 1)}
    paths = {name: [] for name in panels}
    for name, (sizes, copies) in panels.items():
        for n, k in sizes:
            for copy in range(copies):
                for verdict in ncycle.VERDICTS:
                    problem = ncycle.generate(random.Random(f"panel-{n}-{k}-{verdict}-{copy}"), n, k, verdict)
                    path = tmp_path / f"{n}-{k}-{verdict}-{copy}.json"
                    problem.write(str(path))
                    paths[name].append(path)
    return paths


def test_every_pin_is_read():
    # the pin tests read tests/pins.json by command: a pin of another kind would go unchecked
    kinds = Counter(argv[0] + " --exact" * ("--exact" in argv) for argv in PINS)
    assert kinds == {"paper-check": 1, "solve": 6, "singlet --exact": 2, "singlet": 1, "scan": 5}


class TestPaperCheckCommand:
    def test_fresh_run_all_pass(self, capsys):
        code, out, _ = run(capsys, "paper-check")
        assert code == 0
        assert out.count("PASS") == 4
        assert "4/4 checks passed" in out
        assert "80 entries match" in out

    def test_report_is_pinned(self, capsys):
        # the four items byte for byte: a failed item prints FAIL, so the digest changes
        code, out, _ = run(capsys, "paper-check")
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == PINS[("paper-check",)]

    def test_altered_pseudoinverse_entry_detected(self, monkeypatch):
        altered = [list(row) for row in REFERENCE_PSEUDOINVERSE]
        altered[1][1] = F(12, 40)
        monkeypatch.setattr(reference, "REFERENCE_PSEUDOINVERSE", altered)
        items = run_reference_check()
        by_name = {item.name: item for item in items}
        assert not by_name["pseudoinverse"].ok
        assert "1 of 80 entries differ" in by_name["pseudoinverse"].detail
        assert "(2,2)" in by_name["pseudoinverse"].detail
        assert all(item.ok for name, item in by_name.items() if name != "pseudoinverse")

    def test_altered_rank_detected(self, monkeypatch):
        monkeypatch.setattr(reference, "REFERENCE_RANK", 8)
        items = run_reference_check()
        by_name = {item.name: item for item in items}
        assert not by_name["rank"].ok
        assert by_name["pseudoinverse"].ok

    @pytest.mark.parametrize(
        "name, altered, item",
        [
            ("REFERENCE_HOMOGENEOUS", (1, 1, 1, -1, 1, -1, -1, 1), "null space"),
            (
                "REFERENCE_LEFT_NULL",
                ((-1, -1, 0, 0, 0, 0, 1, 0, 1, 0), (0, 0, 0, -1, -1, 0, 1, 1, 0, 0), (-1, 0, -1, 1, 0, 1, 0, 0, 0, 1)),
                "left null space",
            ),
            ("REFERENCE_HOMOGENEOUS", (1, 1, 1), "null space"),  # another length: FAIL, not a traceback
        ],
    )
    def test_altered_null_space_detected(self, capsys, monkeypatch, name, altered, item):
        # one entry changed: that span check fails, the others pass, and paper-check exits 1
        assert getattr(reference, name) != altered
        monkeypatch.setattr(reference, name, altered)
        code, out, _ = run(capsys, "paper-check")
        assert code == 1 and "3/4 checks passed" in out and f"{item}: FAIL" in out
        by_name = {i.name: i for i in run_reference_check()}
        assert not by_name[item].ok and "does NOT match" in by_name[item].detail
        assert all(i.ok for n, i in by_name.items() if n != item)


class TestExitCodeContract:
    def test_unknown_command_exits_2(self, capsys):
        assert run(capsys, "frobnicate")[0] == EXIT_USAGE

    def test_no_command_exits_2(self, capsys):
        assert run(capsys)[0] == EXIT_USAGE


CLOSED_STDOUT_COMMANDS = [
    ["paper-check"],
    ["singlet", "--angles", "0,60,120"],
    ["solve", str(PROBLEMS / "bell_uniform.json")],
    ["scan", "--ab", "0:2:1", "--ac", "0:2:1"],
]


class TestClosedStdout:
    @pytest.mark.parametrize("argv", CLOSED_STDOUT_COMMANDS, ids=lambda argv: argv[0])
    def test_broken_pipe_is_one_error_line(self, capsys, monkeypatch, argv):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        code = main(argv)
        assert code == 1
        assert capsys.readouterr().err == "error: cannot write stdout: [Errno 32] Broken pipe\n"

    def test_closed_pipe_leaves_no_traceback_at_exit(self):
        # the read end is closed before the start, so every write gets EPIPE;
        # the interpreter's own exit-time flush of stdout must not fail either
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            for argv in CLOSED_STDOUT_COMMANDS:
                proc = subprocess.run(
                    [sys.executable, "-m", "bellquasi.cli", *argv],
                    stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
                )
                assert proc.returncode == 1, (argv, proc.stderr)
                assert "Traceback" not in proc.stderr, (argv, proc.stderr)
                assert proc.stderr == "error: cannot write stdout: [Errno 32] Broken pipe\n", (argv, proc.stderr)
        finally:
            os.close(write_end)
