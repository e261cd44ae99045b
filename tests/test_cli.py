"""End-to-end tests of the command-line interface and its JSON/CSV output."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import lincontrol
from lincontrol.cli import main, run_validation, sweep_lambda, table1_report, table2_report
from oracles import sta_optimum_mp

COTH1 = 1.0 / np.tanh(1.0)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestStaCommand:
    def test_poly_order4_summary(self, capsys):
        code, out, _ = run_cli(capsys, "sta", "poly", "--order", "4")
        assert code == 0
        doc = json.loads(out)
        assert doc["method"] == "sta-poly"
        assert doc["coefficients"]["a"] == pytest.approx(-0.8076923, abs=1e-7)
        assert doc["cost"] == pytest.approx(1.55797, rel=5e-5)
        assert max(abs(v) for v in doc["boundary_residuals"].values()) <= 1e-10

    def test_exp_k100_summary(self, capsys):
        code, out, _ = run_cli(capsys, "sta", "exp", "--k", "100")
        assert code == 0
        doc = json.loads(out)
        assert doc["cost"] == pytest.approx(1.325271, rel=5e-5)

    def test_below_minimum_order_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "sta", "poly", "--order", "2")
        assert code == 2
        assert out == ""
        doc = json.loads(err)
        assert doc["error"] == "InvalidOrder"

    def test_near_unit_exp_rate_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "sta", "exp", "--k", "1.00000001")
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "DegenerateBasis"

    def test_unit_exp_rate_stderr_is_one_json_error(self):
        # a fresh process, so any warning printed to stderr would show up
        src = os.path.dirname(os.path.dirname(os.path.abspath(lincontrol.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "lincontrol", "sta", "exp", "--k", "1"],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        # json.loads rejects any text before or after the one document
        assert json.loads(proc.stderr)["error"] == "DegenerateBasis"

    def test_poly_order12_long_horizon_matches_oracle(self, capsys):
        code, out, _ = run_cli(capsys, "sta", "poly", "--order", "12", "--T", "6.31")
        assert code == 0
        want = sta_optimum_mp("polynomial", 12, 6.31)
        assert json.loads(out)["cost"] == pytest.approx(want, rel=1e-12)

    def test_poly_order20_solves(self, capsys):
        code, out, _ = run_cli(capsys, "sta", "poly", "--order", "20", "--T", "10")
        assert code == 0
        assert max(abs(v) for v in json.loads(out)["boundary_residuals"].values()) <= 1e-8

    def test_trig_order14_stderr_is_one_json_error(self):
        # the sines' reduced Gram form fails the conditioning gate from N = 14
        src = os.path.dirname(os.path.dirname(os.path.abspath(lincontrol.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "lincontrol", "sta", "trig", "--order", "14"],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert json.loads(proc.stderr)["error"] == "SingularMatrix"

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(capsys, "sta", "trig", "--order", "5", "--format", "csv", "--points", "11")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "t,x,xdot,u,v,y,z0"
        assert len(lines) == 12


class TestOctCommand:
    def test_singular_impulses(self, capsys):
        code, out, _ = run_cli(capsys, "oct", "singular")
        assert code == 0
        doc = json.loads(out)
        assert doc["impulses"][0]["time"] == 0.0
        assert doc["impulses"][0]["area"] == pytest.approx(0.8509181, abs=1e-7)
        assert doc["impulses"][1]["time"] == 1.0
        assert doc["impulses"][1]["area"] == pytest.approx(-1.3130353, abs=1e-7)

    def test_regular_bare_cost_bracket(self, capsys):
        code, out, _ = run_cli(capsys, "oct", "regular", "--lambda", "1e-4")
        assert code == 0
        doc = json.loads(out)
        bare = doc["cost_breakdown"]["state"] + doc["cost_breakdown"]["derivative"]
        assert abs(bare - 1.3130) <= 0.05

    def test_higher_order3_boundaries(self, capsys):
        code, out, _ = run_cli(capsys, "oct", "higher", "--n", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["lambda"] == pytest.approx(5e-9)
        assert max(abs(v) for v in doc["boundary_residuals"].values()) <= 1e-6

    @pytest.mark.parametrize(
        "argv", [("--n", "8", "--lambda", "1e-3"), ("--n", "3", "--lambda", "1e-4", "--T", "1e-3")]
    )
    def test_short_horizon_modal_system_exits_2(self, capsys, argv):
        # the flow modes are nearly dependent on [0, T], so the modal system
        # fails the conditioning gate instead of giving a residual of order 1
        code, out, err = run_cli(capsys, "oct", "higher", *argv)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "ShootingSingular"

    def test_long_horizon_first_order_stderr_is_one_json_error(self):
        # e^T is not representable at T = 800; a fresh process, so a numpy
        # overflow warning printed to stderr would show up
        src = os.path.dirname(os.path.dirname(os.path.abspath(lincontrol.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "lincontrol", "oct", "regular", "--lambda", "1e-4", "--T", "800"],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert json.loads(proc.stderr)["error"] == "Overflow"

    def test_long_horizon_singular_prints_no_warning(self):
        # sinh(800) overflows to inf and the kick area 1/sinh(800) rounds to
        # 0 correctly; -W error turns any numpy warning into a failed exit
        src = os.path.dirname(os.path.dirname(os.path.abspath(lincontrol.__file__)))
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "lincontrol", "oct", "singular", "--T", "800"],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""

    def test_near_unit_first_order_weight_exits_2(self, capsys):
        # k = 1/sqrt(lambda) sits next to the slow rate 1, where the
        # exponential family degenerates
        code, out, err = run_cli(capsys, "oct", "regular", "--lambda", "0.999999")
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "DegenerateBasis"

    def test_adjoint_columns_in_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "oct", "regular", "--lambda", "1e-3", "--format", "csv", "--points", "5"
        )
        assert code == 0
        assert out.split("\n")[0] == "t,x,xdot,u,v,y,z0,py,pz"

    def test_out_file_plus_summary(self, capsys, tmp_path):
        path = tmp_path / "singular.csv"
        code, out, _ = run_cli(capsys, "oct", "singular", "--out", str(path), "--points", "7")
        assert code == 0
        doc = json.loads(out)
        assert doc["method"] == "oct-singular"
        text = path.read_text()
        assert text.startswith("t,x,xdot,u,v,y,z0,py,pz\n")
        assert len(text.strip().split("\n")) == 8


class TestTables:
    def test_cost_table_all_rows_pass(self):
        report = table2_report()
        assert len(report.rows) == 10
        assert report.passed
        optimal = report.rows[0]
        assert optimal["cost"] == pytest.approx(1.3130, abs=1e-4)
        poly5 = next(r for r in report.rows if r["method"] == "polynomial" and r["order"] == 5)
        assert poly5["cost"] == pytest.approx(1.40276, rel=5e-5)

    def test_coefficient_table_all_rows_pass(self):
        report = table1_report()
        assert report.passed
        trig4 = next(r for r in report.rows if r["method"] == "trigonometric" and r["order"] == 4)
        assert trig4["checks"]["a"]["value"] == pytest.approx(0.0202, abs=1e-3)

    def test_table2_cli_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, "table2")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert len(doc["rows"]) == 10

    def test_table1_cli_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, "table1")
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_costs_recomputable_from_parameters(self):
        # summary self-check: rebuilding each row's solution reproduces its cost
        from lincontrol.cli import _sta_solution

        report = table2_report()
        for row in report.rows:
            if row["method"] == "optimal":
                continue
            sol = _sta_solution(row["method"], order=row["order"], k=100.0)
            assert sol.cost == pytest.approx(row["cost"], abs=1e-9)


class TestSweep:
    def test_default_sweep_exponent(self):
        rows, fit = sweep_lambda()
        assert len(rows) == 6
        assert all("gap" in r for r in rows)
        assert 0.45 <= fit["exponent"] <= 0.55

    def test_gap_positive_and_monotone(self):
        rows, _ = sweep_lambda()
        gaps = [r["gap"] for r in rows]
        assert all(g > 0 for g in gaps)
        assert all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))

    def test_single_weight(self):
        rows, _ = sweep_lambda((1e-4,))
        assert rows[0]["gap"] > 0

    def test_smallest_tabulated_weight_computable(self):
        rows, _ = sweep_lambda((2e-6,))
        assert np.isfinite(rows[0]["cost_regularized"])

    def test_cli_csv_output(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        code, out, _ = run_cli(capsys, "sweep-lambda", "--out", str(path))
        assert code == 0
        fit = json.loads(out)["fit"]
        assert 0.45 <= fit["exponent"] <= 0.55
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "lambda,cost_regularized,cost_bare,gap"
        assert len(lines) == 7

    def test_cli_custom_lambdas_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep-lambda", "--lambdas", "1e-4,1e-5", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["rows"]) == 2


class TestValidate:
    def test_all_checks_pass(self):
        checks = run_validation()
        failed = [c for c in checks if not c["passed"]]
        assert failed == []

    def test_cli_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, "validate")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True


class TestDeterminism:
    def test_byte_identical_json(self, capsys):
        _, out1, _ = run_cli(capsys, "sta", "poly", "--order", "6")
        _, out2, _ = run_cli(capsys, "sta", "poly", "--order", "6")
        assert out1 == out2

    def test_byte_identical_csv_files(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(capsys, "oct", "regular", "--lambda", "1e-4", "--out", str(a))
        run_cli(capsys, "oct", "regular", "--lambda", "1e-4", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_json_floats_17_digits(self, capsys):
        _, out, _ = run_cli(capsys, "oct", "singular")
        doc = json.loads(out)
        # 17 significant digits round-trip exactly
        assert doc["cost"] == 1.0 / np.tanh(1.0)
