import hashlib
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from bellquasi import bellcheck, cli, quasi, reference
from bellquasi.cli import (
    EXIT_INCONSISTENT,
    EXIT_QUASI_ONLY,
    EXIT_USAGE,
    DocumentError,
    load_problem_document,
    main,
)
from bellquasi.reference import REFERENCE_PSEUDOINVERSE, run_reference_check
from bellquasi.singlet import CorrelationTriple, tables_from_correlations

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
SRC = Path(__file__).resolve().parent.parent / "src"


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
        [("--angles", "nan,0,0"), ("--alpha", "nan,0,0", "--beta", "0,1,0", "--gamma", "0,0,1")],
    )
    def test_non_finite_axis_exits_2(self, capsys, axes):
        code, _, err = run(capsys, "singlet", *axes)
        assert code == EXIT_USAGE
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_exact_mode_outputs_fractions(self, capsys):
        code, out, _ = run(capsys, "singlet", "--angles", "0,60,120", "--exact", "--json")
        assert code == EXIT_QUASI_ONLY
        report = json.loads(out)
        assert report["correlations"]["ab"] == "-1/2"
        assert report["x0"][0] == "3/16"

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
        assert calls == {"solve_family": 1, "check_consistency": 2}

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
        # the published 5-degree map, and the 2-degree map at a wide eps: any
        # change to a float path shows here.  Both digests are the same on
        # Python 3.10 to 3.13; the --eps 0 maps are not (sum() rounds
        # differently since 3.12), so none is pinned.
        cases = [
            (("--ab", "0:360:5", "--ac", "0:360:5"),
             "82dca9cc60a054141913603a4e6f31aac303d3ed808a643b13715c04e0724354"),
            (("--ab", "0:360:2", "--ac", "0:360:2", "--eps", "1e-3"),
             "58a8fdd20624035161b0c3f2c81ee1399f1e0ac7d0c457d5a3ec64739b1cc66c"),
        ]
        out_path = tmp_path / "scan.csv"
        for args, expected in cases:
            code, _, _ = run(capsys, "scan", *args, "--out", str(out_path))
            assert code == 0
            assert hashlib.sha256(out_path.read_bytes()).hexdigest() == expected, args

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
        assert digest == "c8f6b612aca422dab9ec2f7c8132ba5fc55498173207dae3bf50917715d43030"
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

    @pytest.mark.parametrize("eps", ["0", "1e-16", "1e-10", "1e-3"])
    def test_rows_agree_with_singlet_pipeline(self, capsys, tmp_path, eps):
        # every cell of a non-integer grid, at any eps: the scan prints what
        # the triple, its pair tables, classify and bell_pair give for it
        out_path = tmp_path / "scan.csv"
        code, _, _ = run(capsys, "scan", "--ab", "0.5:360:7.3", "--ac", "1.25:360:6.1",
                         "--eps", eps, "--out", str(out_path))
        assert code == 0
        thetas_ab = [0.5 + k * 7.3 for k in range(50)]
        thetas_ac = [1.25 + k * 6.1 for k in range(59)]
        assert thetas_ab[-1] < 360 <= 0.5 + 50 * 7.3 and thetas_ac[-1] < 360 <= 1.25 + 59 * 6.1
        expected = []
        for theta_ab in thetas_ab:
            for theta_ac in thetas_ac:
                corr = CorrelationTriple(
                    -math.cos(math.radians(theta_ab)),
                    -math.cos(math.radians(theta_ac)),
                    -math.cos(math.radians(theta_ac - theta_ab)),
                )
                tag = quasi.classify(tables_from_correlations(corr).p_vector, float(eps)).tag
                margin = bellcheck.bell_pair(corr, float(eps)).margin
                fields = [format(x, ".12g") for x in (theta_ab, theta_ac, *corr.as_tuple(), margin)]
                expected.append(",".join(fields + [tag.value]))
        assert out_path.read_text().splitlines()[1:] == expected

    def test_bad_range_exits_2(self, capsys):
        code, _, err = run(capsys, "scan", "--ab", "0:400:1")
        assert code == EXIT_USAGE
        code, _, err = run(capsys, "scan", "--ab", "10:5:1")
        assert code == EXIT_USAGE
        code, _, err = run(capsys, "scan", "--ab", "0:360:0")
        assert code == EXIT_USAGE

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
        "name, expected_code, digest",
        [
            ("bell_0_60_120", EXIT_QUASI_ONLY, "b39c0559bd8aff40ca3c5dd4778bc61c779be9549b5947d45ece24d587701d18"),
            ("bell_uniform", 0, "881422e2ec5ada6d6b2a142b43815e24c49195aa1d10707e1e1b97125dd51199"),
            ("contradictory", EXIT_INCONSISTENT, "d0f82e7390cabcf20c2e31b6943fad8eecd223cf60b150197170ae969397565a"),
            ("uniform_ternary_6cycle", 0, "9c4c262c0d3b891436df69b9c2d6b97a163dd2c8a4f7b02cc09947d6e268001c"),
        ],
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

    @pytest.mark.parametrize(
        "cardinality, table",
        [
            # json writes non-finite floats as Infinity/-Infinity/NaN, which json.load accepts
            pytest.param(2, [float("inf"), 0], id="infinity-entry"),
            pytest.param(2, [float("-inf"), 1], id="minus-infinity-entry"),
            pytest.param(2, [float("nan"), 1], id="nan-entry"),
            pytest.param(2.9, ["1/2", "1/2"], id="float-cardinality"),
            pytest.param("2", ["1/2", "1/2"], id="string-cardinality"),
            pytest.param(True, ["1/2", "1/2"], id="bool-cardinality"),
            pytest.param(None, ["1/2", "1/2"], id="null-cardinality"),
        ],
    )
    def test_bad_document_exits_2(self, capsys, tmp_path, cardinality, table):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "schema": 1,
                    "observables": [{"name": "A", "cardinality": cardinality}],
                    "marginals": [{"over": ["A"], "table": table}],
                }
            )
        )
        with pytest.raises(DocumentError):
            load_problem_document(str(bad))
        code, _, err = run(capsys, "solve", str(bad))
        assert code == EXIT_USAGE
        assert err.startswith("error:")


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


class TestPaperCheckCommand:
    def test_fresh_run_all_pass(self, capsys):
        code, out, _ = run(capsys, "paper-check")
        assert code == 0
        assert out.count("PASS") == 4
        assert "4/4 checks passed" in out
        assert "80 entries match" in out

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
