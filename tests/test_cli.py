import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from bellquasi import cli
from bellquasi.cli import (
    EXIT_INCONSISTENT,
    EXIT_QUASI_ONLY,
    EXIT_USAGE,
    DocumentError,
    load_problem_document,
    main,
)
from bellquasi.reference import REFERENCE_PSEUDOINVERSE, run_reference_check

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


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

    def test_schema_violation_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": 2, "observables": [], "marginals": []}))
        code, _, err = run(capsys, "solve", str(bad))
        assert code == EXIT_USAGE
        assert "schema" in err

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


class TestPaperCheckCommand:
    def test_fresh_run_all_pass(self, capsys):
        code, out, _ = run(capsys, "paper-check")
        assert code == 0
        assert out.count("PASS") == 4
        assert "4/4 checks passed" in out
        assert "80 entries match" in out

    def test_altered_pseudoinverse_entry_detected(self):
        altered = [list(row) for row in REFERENCE_PSEUDOINVERSE]
        altered[1][1] = F(12, 40)
        items = run_reference_check(expected_pseudoinverse=altered)
        by_name = {item.name: item for item in items}
        assert not by_name["pseudoinverse"].ok
        assert "1 of 80 entries differ" in by_name["pseudoinverse"].detail
        assert "(2,2)" in by_name["pseudoinverse"].detail
        assert all(item.ok for name, item in by_name.items() if name != "pseudoinverse")

    def test_altered_rank_detected(self):
        items = run_reference_check(expected_rank=8)
        by_name = {item.name: item for item in items}
        assert not by_name["rank"].ok
        assert by_name["pseudoinverse"].ok


class TestExitCodeContract:
    def test_unknown_command_exits_2(self, capsys):
        assert run(capsys, "frobnicate")[0] == EXIT_USAGE

    def test_no_command_exits_2(self, capsys):
        assert run(capsys)[0] == EXIT_USAGE
