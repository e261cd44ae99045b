"""End-to-end tests of the command-line interface and its JSON/CSV output."""

import contextlib
import gc
import io
import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lincontrol
from lincontrol import model as modelmod, oct as octmod, sta
from lincontrol.cli import (
    DEFAULT_SWEEP,
    REFERENCE_OPTIMA,
    _json,
    main,
    run_validation,
    solution_summary,
    sweep_lambda,
    table1_report,
    table2_report,
)
from lincontrol.model import BoundaryReport, BoundaryResidual, CostBreakdown, NegativeCostPart
from lincontrol.numerics import NumericsError
from oracles import (
    arc_parts_mp, json_reference, modal_solution, order1_optimum_mp, order_n_optimum_mp, order_n_parts_mp,
    sta_optimum_mp,
)

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

    def test_rate_with_overflowing_square_exits_2(self, capsys):
        # x'' scales a term by k^2, which is not representable at k = 1e308
        code, out, err = run_cli(capsys, "sta", "exp", "--k", "1e308", "--T", "5")
        assert code == 2
        assert out == ""
        doc = json.loads(err)
        assert doc["error"] == "Overflow"
        assert "k^2 overflows" in doc["message"]

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

    @pytest.mark.parametrize("n", ["1", "3"])
    def test_unit_weight_odd_order_exits_2(self, capsys, n):
        # at weight 1 and odd n a fast rate coincides with each slow rate +-1,
        # so the modal system is singular, and at n = 1 the exponential
        # family's basis; it used to print a wrong cost
        code, out, err = run_cli(capsys, "oct", "higher", "--n", n, "--lambda", "1")
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == ("DegenerateBasis" if n == "1" else "ShootingSingular")

    @pytest.mark.parametrize(
        "argv", [("--n", "3", "--lambda", "5"), ("--n", "2"), ("--lambda", "1e-4")], ids=["n3-lam5", "n2", "lam"]
    )
    def test_singular_refuses_order_and_weight(self, capsys, argv):
        # the impulsive optimum is first order at weight 0; both flags used to be ignored
        code, out, err = run_cli(capsys, "oct", "singular", *argv)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "ValueError"

    def test_singular_accepts_its_own_order_and_weight(self, capsys):
        assert run_cli(capsys, "oct", "singular", "--n", "1", "--lambda", "0") == run_cli(capsys, "oct", "singular")

    def test_vanishing_horizon_singular_exits_2(self, capsys):
        # x(T) - 1 = -1 in float64; it used to exit 0.  The library refuses the
        # arc, and the CLI prints the refusal as it prints every other
        code, out, err = run_cli(capsys, "oct", "singular", "--T", "1e-200")
        assert code == 2
        assert out == ""
        assert json.loads(err) == {
            "error": "BoundaryResidual", "message": "boundary residual x(T)-1 = -1 exceeds the tolerance 1e-08",
        }

    @pytest.mark.parametrize("T", ["0", "-1", "inf", "nan"])
    def test_bad_horizon_exits_2_with_value_error(self, capsys, T):
        # ControlProblem's one check answers every solver; oct singular used
        # to print its own "horizon must be positive" for nan
        for argv in (("oct", "higher", "--n", "2"), ("oct", "singular"), ("sta", "poly")):
            code, out, err = run_cli(capsys, *argv, "--T", T)
            assert code == 2
            assert out == ""
            doc = json.loads(err)
            assert doc["error"] == "ValueError"
            assert doc["message"] == f"horizon must be finite and positive, got {float(T)}"

    @pytest.mark.parametrize(
        "argv,error",
        [
            (("--n", "0"), "InvalidOrder"),
            (("--n", "-1"), "InvalidOrder"),
            (("--n", "0", "--lambda", "1e-3"), "InvalidOrder"),
            (("--n", "4"), "LambdaOutOfRange"),
        ],
        ids=["n0", "n-1", "n0-lam", "n4"],
    )
    def test_higher_refuses_order_before_default_weight(self, capsys, argv, error):
        # --n 0 without --lambda used to report the missing default weight
        code, out, err = run_cli(capsys, "oct", "higher", *argv)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == error

    def test_long_horizon_first_order_prints_no_stderr(self):
        # e^T is not representable at T = 800, but every growing term is
        # anchored at T; a fresh process, so a numpy overflow warning printed
        # to stderr would show up
        src = os.path.dirname(os.path.dirname(os.path.abspath(lincontrol.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "lincontrol", "oct", "regular", "--lambda", "1e-4", "--T", "800"],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        doc = json.loads(proc.stdout)
        assert doc["cost"] == pytest.approx(float(order_n_optimum_mp(1, 1e-4, 800.0)), rel=1e-9)
        assert max(abs(v) for v in doc["boundary_residuals"].values()) <= 1e-8

    def test_subnormal_weight_prints_no_warning(self):
        # 1/lambda overflows at a subnormal weight; the modal solve never
        # divides by it, so it refuses the problem without a numpy warning
        src = os.path.dirname(os.path.dirname(os.path.abspath(lincontrol.__file__)))
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "lincontrol", "oct", "higher", "--n", "2",
             "--lambda", "1e-320", "--T", "1e-79"],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert json.loads(proc.stderr)["error"] == "ShootingSingular"

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

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("regular", "--lambda", "1e-300"), "non-finite p0_py: nan"),
            (("regular", "--lambda", "1e-320"), "k^2 overflows"),
            (("singular", "--T", "1e-320"), "non-finite cost: inf"),
        ],
    )
    def test_non_finite_solution_exits_2(self, capsys, argv, message):
        # a value outside the float range is a typed error, never a printed nan or inf
        code, out, err = run_cli(capsys, "oct", *argv)
        assert code == 2
        assert out == ""
        doc = json.loads(err)
        assert doc["error"] == "Overflow"
        assert message in doc["message"]

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

    def test_unwritable_out_exits_2(self, capsys, tmp_path):
        path = tmp_path / "missing" / "poly.csv"
        code, out, err = run_cli(capsys, "sta", "poly", "--out", str(path))
        assert code == 2
        assert out == ""
        doc = json.loads(err)
        assert doc["error"] == "FileNotFoundError"
        assert str(path) in doc["message"]


#: well-posed requests that used to exit 2 with LambdaOutOfRange, with their (n, weight, horizon)
FORMERLY_REFUSED = {
    "higher-n1-1e-7": (("oct", "higher", "--n", "1", "--lambda", "1e-7"), (1, 1e-7, 1.0)),
    "regular-2": (("oct", "regular", "--lambda", "2"), (1, 2.0, 1.0)),
    "higher-n2-1e-9-T5": (("oct", "higher", "--n", "2", "--lambda", "1e-9", "--T", "5"), (2, 1e-9, 5.0)),
    "higher-n2-1e-12-T10": (("oct", "higher", "--n", "2", "--lambda", "1e-12", "--T", "10"), (2, 1e-12, 10.0)),
}


class TestOneRoute:
    """``oct regular`` and ``oct higher`` route through ``solve_regular`` alike."""

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("n,lam", [("1", "1e-4"), ("1", "2"), ("2", "5e-7"), ("3", "5e-9")])
    def test_regular_and_higher_print_the_same_bytes(self, capsys, n, lam, fmt):
        outputs = []
        for mode in ("regular", "higher"):
            code, out, err = run_cli(capsys, "oct", mode, "--n", n, "--lambda", lam, "--format", fmt, "--points", "51")
            assert (code, err) == (0, "")
            outputs.append(out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("argv,problem", FORMERLY_REFUSED.values(), ids=FORMERLY_REFUSED.keys())
    def test_formerly_refused_request_within_oracle(self, capsys, argv, problem):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        doc = json.loads(out)
        n, lam, T = problem
        want = order1_optimum_mp(lam, T) if n == 1 else order_n_optimum_mp(n, lam, T)
        assert doc["cost"] == pytest.approx(want, rel=1e-9)
        assert max(abs(v) for v in doc["boundary_residuals"].values()) <= 1e-8

    @pytest.mark.parametrize("mode", ["regular", "higher"])
    def test_near_unit_first_order_weight_exits_2_in_both_modes(self, capsys, mode):
        # the higher mode used to take the modal path and print a cost 4.7e-3 off
        code, out, err = run_cli(capsys, "oct", mode, "--n", "1", "--lambda", "0.999999")
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "DegenerateBasis"

    @pytest.mark.parametrize("lam", ["inf", "nan", "0", "-1"])
    def test_weight_that_is_not_finite_and_positive_exits_2(self, capsys, lam):
        code, out, err = run_cli(capsys, "oct", "regular", "--lambda", lam)
        assert (code, out) == (2, "")
        doc = json.loads(err)
        assert doc["error"] == "LambdaOutOfRange"
        assert doc["message"].startswith("energy weight must be finite and positive")


class TestTables:
    def test_cost_table_all_rows_pass(self):
        report = table2_report()
        assert len(report["rows"]) == 10
        assert report["passed"] is True
        optimal = report["rows"][0]
        assert optimal["cost"] == pytest.approx(1.3130, abs=1e-4)
        poly5 = next(r for r in report["rows"] if r["method"] == "polynomial" and r["order"] == 5)
        assert poly5["cost"] == pytest.approx(1.40276, rel=5e-5)

    def test_coefficient_table_all_rows_pass(self):
        report = table1_report()
        assert report["passed"] is True
        trig4 = next(r for r in report["rows"] if r["method"] == "trigonometric" and r["order"] == 4)
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

    @pytest.mark.parametrize("table,rows", [("table1", 6), ("table2", 10)])
    def test_csv_cells_are_never_nan(self, capsys, table, rows):
        # a table1 row keeps its targets per check, so its target cell is empty
        code, out, _ = run_cli(capsys, table, "--format", "csv")
        lines = out.splitlines()
        assert (code, lines[0], len(lines)) == (0, "method,order,cost,target,passed", rows + 1)
        cells = [line.split(",") for line in lines[1:]]
        assert all(len(row) == 5 and "nan" not in map(str.lower, row) for row in cells)
        assert all((row[3] == "") == (table == "table1") for row in cells)

    def test_costs_recomputable_from_parameters(self):
        # summary self-check: rebuilding each row's solution reproduces its cost
        from lincontrol.cli import _sta_solution

        report = table2_report()
        for row in report["rows"]:
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

    def test_cli_unwritable_out_exits_2(self, capsys, tmp_path):
        path = tmp_path / "missing" / "sweep.csv"
        code, out, err = run_cli(capsys, "sweep-lambda", "--out", str(path))
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "FileNotFoundError"

    def test_cli_custom_lambdas_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep-lambda", "--lambdas", "1e-4,1e-5", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["rows"]) == 2

    @pytest.mark.parametrize("lams", ["", ","], ids=["empty", "comma"])
    def test_cli_empty_weight_list_exits_2(self, capsys, lams):
        # an empty --lambdas used to print the default sweep and exit 0; only
        # a missing --lambdas selects it
        code, out, err = run_cli(capsys, "sweep-lambda", "--lambdas", lams)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "ValueError", "message": "could not convert string to float: ''"}

    def test_sweep_routes_like_oct_regular(self, capsys):
        # a weight above 1 is the exponential family too, as oct regular --lambda 2 is
        rows, _ = sweep_lambda((0.5, 2.0))
        assert rows[1]["cost_regularized"] == pytest.approx(order1_optimum_mp(2.0, 1.0), rel=0, abs=1e-9)
        _, out, _ = run_cli(capsys, "oct", "regular", "--lambda", "2")
        assert rows[1]["cost_regularized"] == json.loads(out)["cost"]

    @pytest.mark.parametrize(
        "lam,error",
        [
            ("0.999999", "DegenerateBasis"),
            ("1", "DegenerateBasis"),
            ("nan", "LambdaOutOfRange"),
            ("inf", "LambdaOutOfRange"),
            ("-1", "LambdaOutOfRange"),
            ("1e-300", "Overflow"),
        ],
    )
    def test_refused_weight_is_an_error_row(self, capsys, lam, error):
        good, bad = sweep_lambda((1e-4, float(lam)))[0]
        assert "gap" in good
        assert bad["error"].startswith(error + ": ")
        code, out, err = run_cli(capsys, "sweep-lambda", "--lambdas", f"1e-4,{lam}")
        if lam in ("nan", "inf"):
            # the CLI refuses a non-finite weight before solving: a JSON row could not print it
            assert (code, out) == (2, "")
            assert json.loads(err) == {"error": error, "message": f"energy weight must be finite and positive, got {lam}"}
            return
        # the sweep goes on and exits 0; it used to abort on DegenerateBasis
        assert code == 0
        assert out.split("\n")[2].endswith(",error,error,error")
        assert json.loads(err)["fit"] == {}

    def test_failing_boundary_report_is_an_error_row(self, monkeypatch):
        # the sweep's solver refuses a solution that misses its ends, and the
        # refusal is a row; order 8 at weight 1e-12 misses x^(8) by 1e-4
        monkeypatch.setattr(
            "lincontrol.cli.solve_regular", lambda lq: octmod.solve_regular(octmod.build_lq(8, 1e-12))
        )
        (row,), fit = sweep_lambda((1e-4,))
        assert re.fullmatch(r"BoundaryResidual: boundary residual \S+ = \S+ exceeds the tolerance 1e-08", row["error"])
        assert fit == {}

    @pytest.mark.parametrize("lams", [DEFAULT_SWEEP, (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)], ids=["default", "bench"])
    def test_first_order_weights_keep_their_values(self, lams):
        # below weight 1 the routing takes the exponential family, the sweep's old route
        rows, _ = sweep_lambda(lams)
        for row, lam in zip(rows, lams):
            sol = octmod.regular_order1_analytic(lam)
            assert (row["cost_regularized"], row["cost_bare"]) == (sol.cost, sol.cost_breakdown.bare)


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

    def test_spectral_checks_cover_every_order_at_1e_12(self):
        rows = {c["check"]: c for c in run_validation()}
        for n in range(1, 9):
            for name in (f"spectral-pairing-n{n}", f"spectrum-agreement-n{n}"):
                assert rows[name]["passed"] and rows[name]["threshold"] == 1e-12

    @pytest.mark.parametrize("row", REFERENCE_OPTIMA, ids=lambda r: f"n{r[0]}-{r[1]:g}-T{r[2]:g}")
    def test_reference_optimum_is_the_oracle_to_the_last_digit(self, row):
        # 17 significant digits round-trip a float, so each printed part is float() of the oracle exactly
        n, lam, T, *parts = row
        want = order_n_parts_mp(n, lam, T, dps=80) if lam else arc_parts_mp(T, dps=80)
        assert tuple(parts) == want

    def test_scaled_cost_parts_fail_every_reference_row(self, monkeypatch, capsys):
        # parts 1e-9 off the truth, which every other row passes, planted in
        # the exact cost that the packaging calls
        cost_parts = modelmod.exact_cost

        def planted(problem, stack, rates):
            state, derivative, control_energy = cost_parts(problem, stack, rates)
            return CostBreakdown(state * (1 + 1e-9), derivative, control_energy * (1 + 1e-9))

        monkeypatch.setattr(modelmod, "exact_cost", planted)
        checks = run_validation()
        rows = [c for c in checks if c["check"].startswith("reference-optimum-")]
        assert len(rows) == len(REFERENCE_OPTIMA) + 2
        assert not any(c["passed"] for c in rows)
        assert all(c["passed"] for c in checks if c not in rows)
        assert run_cli(capsys, "validate")[0] == 1

    @pytest.mark.parametrize("argv", [("sta", "exp"), ("oct", "regular"), ("oct", "higher", "--n", "3"),
                                      ("oct", "singular")], ids=" ".join)
    def test_planted_exact_cost_moves_the_printed_parts(self, monkeypatch, capsys, argv):
        # every route's printed parts come from the one exact cost
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        exact_cost = modelmod.exact_cost
        monkeypatch.setattr(modelmod, "exact_cost", lambda *args: CostBreakdown(*(2.0 * p for p in exact_cost(*args))))
        code, planted, _ = run_cli(capsys, *argv)
        assert code == 0
        parts, moved = json.loads(out)["cost_breakdown"], json.loads(planted)["cost_breakdown"]
        assert moved == {name: 2.0 * value for name, value in parts.items()}
        assert moved["state"] > 0

    @staticmethod
    def _planted(monkeypatch, plant):
        spectrum = octmod.PontryaginFlow.spectrum

        def planted(self):
            w, V = spectrum(self)
            w = w.copy()
            plant(w)
            return w, V

        monkeypatch.setattr(octmod.PontryaginFlow, "spectrum", planted)

    def test_scaled_fast_pair_fails_the_agreement(self, monkeypatch, capsys):
        # one fast conjugate pair 1e-10 off its roots: the old 1e-9 gate passed it
        def scale(w):
            upper = np.flatnonzero(w.imag > 0)
            if upper.size:  # order 1 has no complex rate
                w[[upper[0], np.flatnonzero(w == w[upper[0]].conj())[0]]] *= 1 + 1e-10

        self._planted(monkeypatch, scale)
        rows = {c["check"]: c for c in run_validation()}
        for n in range(2, 9):
            row = rows[f"spectrum-agreement-n{n}"]
            assert not row["passed"] and 1e-12 < row["value"] <= 1e-9
        assert run_cli(capsys, "validate")[0] == 1

    def test_flipped_real_rate_fails_the_pairing(self, monkeypatch, capsys):
        def flip(w):
            i = np.flatnonzero(w.imag == 0)[0]
            w[i] = -w[i]

        self._planted(monkeypatch, flip)
        rows = {c["check"]: c for c in run_validation()}
        assert not any(rows[f"spectral-pairing-n{n}"]["passed"] for n in range(1, 9))
        assert run_cli(capsys, "validate")[0] == 1


#: solutions whose largest boundary residual is above 1e-8 (its size in the id)
FAILING_REPORTS = {
    "oct-higher-n8-1e-4": ("oct", "higher", "--n", "8", "--lambda", "1e-12"),
    "oct-higher-n4-9.5e-7": (
        "oct", "higher", "--n", "4", "--lambda", "7.498942093324552e-06", "--T", "0.17782794100389232",
    ),
}

#: read 1.47e-8 while the sine family's boundary rows were eliminated at each horizon
TRIG_13_NEAR_TOLERANCE = ("sta", "trig", "--order", "13", "--T", "0.1468")


class TestBoundaryRefusal:
    """No solution that misses a boundary condition by more than 1e-8 is printed or written."""

    @pytest.mark.parametrize("output", [(), ("--format", "csv")], ids=["json", "csv"])
    @pytest.mark.parametrize("argv", FAILING_REPORTS.values(), ids=FAILING_REPORTS.keys())
    def test_failing_report_exits_2(self, capsys, argv, output):
        code, out, err = run_cli(capsys, *argv, *output)
        assert code == 2
        assert out == ""
        # json.loads rejects any text before or after the one document
        doc = json.loads(err)
        assert doc["error"] == "BoundaryResidual"
        assert doc["message"].endswith("exceeds the tolerance 1e-08")

    @pytest.mark.parametrize("argv", FAILING_REPORTS.values(), ids=FAILING_REPORTS.keys())
    def test_library_refuses_the_solution(self, argv):
        # the refusal is the solver's own, not the command's
        options = dict(zip(argv[2::2], argv[3::2]))
        problem = octmod.build_lq(int(options["--n"]), float(options["--lambda"]), float(options.get("--T", 1.0)))
        with pytest.raises(BoundaryResidual) as info:
            octmod.solve_regular(problem)
        assert not info.value.report.passed
        assert info.value.report.tol == 1e-8

    def test_out_file_is_not_written(self, capsys, tmp_path):
        path = tmp_path / "higher.csv"
        code, out, err = run_cli(capsys, *FAILING_REPORTS["oct-higher-n8-1e-4"], "--out", str(path))
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "BoundaryResidual"
        assert not path.exists()

    @pytest.mark.parametrize("output", [(), ("--format", "csv")], ids=["json", "csv"])
    def test_trig_order13_near_tolerance_certifies(self, capsys, output):
        code, out, err = run_cli(capsys, *TRIG_13_NEAR_TOLERANCE, *output)
        assert (code, err) == (0, "")
        if output:
            # x and xdot, the CSV's second and third columns, at t = 0 and t = T
            lines = out.splitlines()
            assert lines[0].startswith("t,x,xdot,")
            first, last = (np.array(line.split(",")[1:3], dtype=float) for line in (lines[1], lines[-1]))
            residuals = [*first, last[0] - 1.0, last[1]]
        else:
            residuals = list(json.loads(out)["boundary_residuals"].values())
        assert max(abs(v) for v in residuals) <= 1e-8

    def test_message_names_largest_residual(self):
        report = BoundaryReport({"x(0)": 2e-9, "x^(1)(T)": -3e-6, "x(T)-1": 1e-6}, tol=1e-8)
        exc = BoundaryResidual(report)
        assert isinstance(exc, NumericsError)
        assert exc.report is report
        assert str(exc) == "boundary residual x^(1)(T) = -3e-06 exceeds the tolerance 1e-08"

    @pytest.mark.parametrize(
        "T", list(dict.fromkeys(float(T) for T in [*np.geomspace(0.1, 10.0, 25), *np.linspace(0.1, 0.18, 17)]))
    )
    def test_trig_order13_refuses_or_certifies(self, capsys, T):
        # the sine family's last order below the conditioning gate, where its
        # residuals come closest to the tolerance
        code, out, err = run_cli(capsys, "sta", "trig", "--order", "13", "--T", repr(T))
        if code == 2:
            assert out == ""
            assert json.loads(err)["error"] == "BoundaryResidual"
            return
        assert code == 0
        assert err == ""
        assert max(abs(v) for v in json.loads(out)["boundary_residuals"].values()) <= 1e-8


#: requests whose exact cost integral cancels below 0 in one part: (argv, the library's solve, the part)
NEGATIVE_PARTS = {
    "sta-exp-0.99999": (("sta", "exp", "--k", "0.99999"), lambda: sta.solve_sta(sta.build_exponential(0.99999)), "state"),
    "sta-exp-1.00001": (("sta", "exp", "--k", "1.00001"), lambda: sta.solve_sta(sta.build_exponential(1.00001)), "state"),
    "oct-regular-0.99999": (
        ("oct", "regular", "--lambda", "0.99999"), lambda: octmod.solve_regular(octmod.build_lq(1, 0.99999)),
        "derivative",
    ),
    "oct-singular-1e-6": (("oct", "singular", "--T", "1e-6"), lambda: octmod.singular_solution(1e-6), "state"),
}


class TestNegativeCostPart:
    """No command prints a cost part below 0: each part is the integral of a square."""

    @pytest.mark.parametrize("output", [(), ("--format", "csv")], ids=["json", "csv"])
    @pytest.mark.parametrize("argv,solve,part", NEGATIVE_PARTS.values(), ids=NEGATIVE_PARTS.keys())
    def test_exits_2_naming_the_part(self, capsys, argv, solve, part, output):
        code, out, err = run_cli(capsys, *argv, *output)
        assert (code, out) == (2, "")
        doc = json.loads(err)
        assert doc["error"] == "NegativeCostPart"
        assert re.fullmatch(rf"cost part {part} = -\S+ is negative, but it is the integral of a square", doc["message"])

    @pytest.mark.parametrize("argv,solve,part", NEGATIVE_PARTS.values(), ids=NEGATIVE_PARTS.keys())
    def test_library_refuses_the_solution(self, argv, solve, part):
        # the refusal is the solver's own certificate, a NumericsError
        with pytest.raises(NegativeCostPart, match=f"^cost part {part} = -"):
            solve()
        assert issubclass(NegativeCostPart, NumericsError)

    def test_ci_exits_2_on_three_of_them(self):
        _, exit2 = ci_command_lists()
        listed = [key for key, (argv, _, _) in NEGATIVE_PARTS.items() if list(argv) in exit2]
        assert listed == ["sta-exp-0.99999", "oct-regular-0.99999", "oct-singular-1e-6"]


#: requests past the float range of the basis tables, the end values or the
#: modes, with the message of their refusal; each used to print numpy warnings
#: ahead of its error
OUT_OF_RANGE = {
    "sta-poly-T1e-300": (("sta", "poly", "--T", "1e-300"), "horizon T=1e-300 is too small: (2/T)^2 overflows"),
    "sta-poly-T1e-320": (("sta", "poly", "--T", "1e-320"), "horizon T=1e-320 is too small: (2/T)^2 overflows"),
    "sta-poly-T1e308": (("sta", "poly", "--T", "1e308"), "horizon T=1e+308 is too large: 2T overflows"),
    "sta-trig-T1e-300": (("sta", "trig", "--order", "5", "--T", "1e-300"),
                         "horizon T=1e-300 is too small: (2/T)^2 overflows"),
    "sta-trig-T1e308": (("sta", "trig", "--order", "5", "--T", "1e308"), "horizon T=1e+308 is too large: 2T overflows"),
    "sta-exp-T1e308": (("sta", "exp", "--T", "1e308"),
                       "rate k=100.0 at horizon T=1e+308 is too large: k T overflows"),
    "oct-higher-n3-T1e308": (("oct", "higher", "--n", "3", "--T", "1e308"),
                             "rate x horizon of the modes overflows at weight 5e-09 and horizon T=1e+308"),
    "oct-higher-n2-lambda1e308": (("oct", "higher", "--n", "2", "--lambda", "1e308"),
                                  "energy weight 1e+308 is too large: the adjoint 2 lam of the mode s = 1 overflows"),
}

#: short horizons inside the range the horizon checks accept, where the
#: polynomial tables, the cost or the monomial conversion leave the float range;
#: each is refused with a typed error, and each used to print numpy warnings ahead of it
SHORT_HORIZONS = {
    "sta-poly-T1e-100": (("sta", "poly", "--T", "1e-100"), "sta-poly solution has a non-finite a: nan"),
    "sta-poly-T1e-153": (("sta", "poly", "--T", "1e-153"), "sta-poly solution has a non-finite cost: nan"),
    "sta-trig-T1e-120": (("sta", "trig", "--order", "5", "--T", "1e-120"),
                         "sta-trig solution has a non-finite cost: nan"),
}


class TestOutOfRange:
    """A request past the float range is a typed refusal, with no numpy warning ahead of it."""

    @pytest.mark.parametrize("argv,message", OUT_OF_RANGE.values(), ids=OUT_OF_RANGE.keys())
    def test_exits_2_with_one_error_document(self, capsys, argv, message):
        # the suite turns a RuntimeWarning into an error, so a warning fails the command
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == json_reference({"error": "Overflow", "message": message}) + "\n"

    def test_ci_exits_2_on_every_one(self):
        _, exit2 = ci_command_lists()
        assert [key for key, (argv, _) in OUT_OF_RANGE.items() if list(argv) not in exit2] == []
        assert [key for key, (argv, _) in SHORT_HORIZONS.items() if list(argv) not in exit2] == []

    @pytest.mark.parametrize("argv,message", SHORT_HORIZONS.values(), ids=SHORT_HORIZONS.keys())
    def test_short_horizon_exits_2_with_one_error_document(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == json_reference({"error": "Overflow", "message": message}) + "\n"

    @pytest.mark.parametrize("argv", [("sta", "poly"), ("sta", "trig", "--order", "5")], ids=["poly", "trig-5"])
    def test_every_short_horizon_is_refused_without_a_warning(self, capsys, argv):
        # T = 1e-61 .. 1e-160 in decades: 73 polynomial and 51 sine requests used to warn
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for k in range(61, 161):
                code, out, err = run_cli(capsys, *argv, "--T", f"1e-{k}")
                assert (code, out) == (2, ""), k
                assert json.loads(err)["error"] in ("Overflow", "BoundaryResidual"), k

    @pytest.mark.parametrize("solve", [
        lambda: sta.build_polynomial(4, 1e-300),
        lambda: sta.build_trigonometric(5, 1e308),
        lambda: sta.build_exponential(100.0, 1e308),
        lambda: octmod.solve_regular(octmod.build_lq(3, 5e-9, 1e308)),
        lambda: octmod.solve_regular(octmod.build_lq(2, 1e308)),
    ], ids=["poly-small-T", "trig-large-T", "exp-kT", "modal-rate-T", "modal-weight"])
    def test_refused_before_any_array_is_formed(self, monkeypatch, solve):
        def refused(*args, **kwargs):
            raise AssertionError("an array was formed")

        tables = [(sta, "_reference_tables"), (sta, "end_values"), (octmod, "end_values"), (octmod, "_mode_tables")]
        for module, name in tables:
            monkeypatch.setattr(module, name, refused)
        with pytest.raises(lincontrol.Overflow):
            solve()


#: ``{key: (long request, shorter request, the shorter one's printed cost)}``: at these horizons the
#: optimum no longer depends on T, so the longer request prints the shorter one's cost.  Each
#: used to fail on the pair kernel's exponent ``S T - P``, whose rounding residue is an ulp of
#: ``S T``: the first two exited 2 with a NaN cost, the third printed 1.0254060810121417
LONG_HORIZONS = {
    "sta-exp-T1e26": (("sta", "exp", "--T", "1e26"), ("sta", "exp", "--T", "1e25"), 1.0050000000000001),
    "oct-higher-n3-T1e30": (("oct", "higher", "--n", "3", "--T", "1e30"), ("oct", "higher", "--n", "3", "--T", "1e20"),
                            1.0827037108394151),
    "sta-exp-T1e29": (("sta", "exp", "--T", "1e29"), ("sta", "exp", "--T", "1e25"), 1.0050000000000001),
}

#: routes at their CLI default weight whose optimum no longer depends on T from T = 1e3 on
LONG_HORIZON_ROUTES = (("sta", "exp", "--k", "100"), ("oct", "higher", "--n", "2"), ("oct", "higher", "--n", "3"))


class TestLongHorizons:
    """Requests past the horizon where the optimum stops depending on it print the shorter horizon's cost."""

    @pytest.mark.parametrize("argv,reference,cost", LONG_HORIZONS.values(), ids=LONG_HORIZONS.keys())
    def test_the_shorter_horizon_prints_the_cost(self, capsys, argv, reference, cost):
        code, out, _ = run_cli(capsys, *reference)
        assert code == 0 and json.loads(out)["cost"] == cost

    @pytest.mark.parametrize("argv,reference,cost", LONG_HORIZONS.values(), ids=LONG_HORIZONS.keys())
    def test_the_long_horizon_prints_the_same_cost(self, capsys, argv, reference, cost):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert json.loads(out)["cost"] == pytest.approx(cost, rel=1e-12, abs=0.0)

    @settings(derandomize=True, deadline=None, max_examples=100, database=None)
    @given(log_T=st.floats(3.0, 306.0))
    @example(log_T=306.0)
    def test_every_horizon_past_1e3_prints_the_1e3_cost(self, log_T):
        # the growing terms' exponents are exactly 0 at T, so no horizon up to
        # 1e306 leaves a residue; only 1e307 and up are refused, before any array
        for route in LONG_HORIZON_ROUTES:
            code, out, err = _in_process([*route, "--T", repr(10.0**log_T)])
            assert code == 0, err
            short = _in_process([*route, "--T", "1e3"])[1]
            assert json.loads(out)["cost"] == pytest.approx(json.loads(short)["cost"], rel=1e-12, abs=0.0)


SRC = os.path.dirname(os.path.dirname(os.path.abspath(lincontrol.__file__)))
PYPROJECT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "pyproject.toml")

#: stands for a per-route output path in :data:`ENTRY_COMMANDS`
OUT = "{out}"

#: (argv, exit code) of every command the entry routes must agree on
ENTRY_COMMANDS = {
    "version": (("--version",), 0),
    "sta-poly-7": (("sta", "poly", "--order", "7"), 0),
    "oct-higher-csv": (("oct", "higher", "--n", "3", "--format", "csv", "--points", "11"), 0),
    "sta-poly-out": (("sta", "poly", "--out", OUT), 0),
    "sta-trig-17": (("sta", "trig", "--order", "17"), 2),
}


def console_script_target():
    """``(module, function)`` that ``[project.scripts]`` installs as ``lincontrol``."""
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        module, _, function = tomllib.load(fh)["project"]["scripts"]["lincontrol"].partition(":")
    return module, function


def _process(*args):
    proc = subprocess.run([sys.executable, *args], env={**os.environ, "PYTHONPATH": SRC},
                          capture_output=True)
    return proc.returncode, proc.stdout, proc.stderr


def _in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse's --version
            code = exc.code
    return code, out.getvalue().encode(), err.getvalue().encode()


class TestEntryPoint:
    """``python -m lincontrol``, the console script's function and ``cli.main`` agree byte for byte."""

    @pytest.mark.parametrize("argv,code", ENTRY_COMMANDS.values(), ids=ENTRY_COMMANDS.keys())
    def test_routes_print_the_same_bytes(self, tmp_path, argv, code):
        module, function = console_script_target()
        routes = {
            "python-m": lambda a: _process("-m", "lincontrol", *a),
            "console-script": lambda a: _process(
                "-c", f"import sys; from {module} import {function}; sys.exit({function}())", *a
            ),
            "in-process": _in_process,
        }
        results, files = {}, {}
        for name, route in routes.items():
            out = tmp_path / f"{name}.csv"
            results[name] = route([str(out) if a == OUT else a for a in argv])
            if OUT in argv:
                files[name] = out.read_bytes()
        first = results.pop("python-m")
        assert first[0] == code
        assert first[1 if code == 0 else 2]  # empty output would agree trivially
        assert all(result == first for result in results.values())
        if files:
            assert files["python-m"] and len(set(files.values())) == 1

    def test_console_script_is_run(self):
        assert console_script_target() == ("lincontrol.cli", "run")

    def test_run_freezes_the_import_heap(self):
        probe = (
            "import gc, sys; from lincontrol import cli; "
            "cli.main = lambda: print(gc.get_freeze_count()) or 0; sys.exit(cli.run())"
        )
        code, out, err = _process("-c", probe)
        assert (code, err) == (0, b"")
        # numpy and the package alone make well over ten thousand objects
        assert int(out) > 10_000

    def test_main_leaves_the_gc_state_alone(self, capsys):
        frozen, enabled = gc.get_freeze_count(), gc.isenabled()
        code, _, _ = run_cli(capsys, "sta", "poly", "--order", "7")
        assert code == 0
        assert (gc.get_freeze_count(), gc.isenabled()) == (frozen, enabled)


WORKFLOW = os.path.join(os.path.dirname(PYPROJECT), ".github", "workflows", "tests.yml")

#: runs ``cli.main`` on each argv of ``argv[2]`` (JSON), scipy blocked when ``argv[1]`` says so
_RUN_COMMANDS = (
    "import contextlib, io, json, sys\n"
    "if sys.argv[1] == 'blocked':\n"
    "    sys.modules['scipy'] = None  # every import of scipy or a submodule raises ImportError\n"
    "from lincontrol import cli\n"
    "results = []\n"
    "for argv in json.loads(sys.argv[2]):\n"
    "    out, err = io.StringIO(), io.StringIO()\n"
    "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
    "        results.append([argv, cli.main(argv), out.getvalue(), err.getvalue()])\n"
    "json.dump(results, sys.stdout)\n"
)


def ci_command_lists():
    """The two lists of commands CI runs on the installed package: exit 0, then exit 2.

    Each is the heredoc named by its exit code, ``<<'EXIT0'`` and ``<<'EXIT2'``.
    """
    with open(WORKFLOW) as fh:
        text = fh.read()
    blocks = [re.search(rf"<<'{name}'\n(.*?)\n\s*{name}\n", text, re.S).group(1) for name in ("EXIT0", "EXIT2")]
    return [[line.split() for line in block.splitlines()] for block in blocks]


def test_commands_run_without_scipy():
    # numpy is the only runtime dependency: with scipy unimportable every CI
    # command and the default sweep print what they print with it
    exit0, exit2 = ci_command_lists()
    commands = exit0 + exit2 + [["sweep-lambda"]]
    procs = {
        mode: subprocess.Popen(
            [sys.executable, "-c", _RUN_COMMANDS, mode, json.dumps(commands)],
            env={**os.environ, "PYTHONPATH": SRC}, stdout=subprocess.PIPE, text=True,
        )
        for mode in ("blocked", "open")
    }
    outputs = {mode: proc.communicate()[0] for mode, proc in procs.items()}
    assert all(proc.returncode == 0 for proc in procs.values())
    results = {mode: json.loads(text) for mode, text in outputs.items()}
    assert results["blocked"] == results["open"]
    codes = [code for _, code, _, _ in results["blocked"]]
    assert codes == [0] * len(exit0) + [2] * len(exit2) + [0]


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


#: one solution of every solver kind
SUMMARY_SOLVERS = {
    "sta-poly": lambda: sta.solve_sta(sta.build_polynomial(6, 2.5)),
    "sta-trig": lambda: sta.solve_sta(sta.build_trigonometric(5)),
    "sta-exp": lambda: sta.solve_sta(sta.build_exponential(100.0, 0.3)),
    "oct-singular": lambda: octmod.singular_solution(1.0),
    "oct-regular-analytic": lambda: octmod.regular_order1_analytic(1e-4),
    "oct-regular-modal": lambda: modal_solution(1, 2.0),
    "oct-higher": lambda: octmod.solve_regular(octmod.build_lq(3, 5e-9)),
}


class TestJsonRendering:
    """``_json`` against the one-call-per-value renderer, byte for byte."""

    @pytest.mark.parametrize("solve", SUMMARY_SOLVERS.values(), ids=SUMMARY_SOLVERS.keys())
    def test_solution_summaries(self, solve):
        doc = solution_summary(solve())
        assert _json(doc) == json_reference(doc)

    def test_table_and_validation_documents(self):
        docs = [table1_report(), table2_report()]
        docs.append({"passed": True, "checks": run_validation()})
        for doc in docs:
            assert _json(doc) == json_reference(doc)

    def test_cli_error_document(self, capsys):
        code, _, err = run_cli(capsys, "oct", "higher", "--n", "8", "--lambda", "1e-3")
        assert code == 2
        doc = json.loads(err)
        assert err == json_reference(doc) + "\n"

    def test_hand_built_leaves_and_containers(self):
        doc = {
            "f64": np.float64(0.1), "f32": np.float32(0.1), "float": 1.0 / 3.0,
            "nan": float("nan"), "inf": np.inf, "-inf": np.float64(-np.inf),
            "-0": -0.0, "np-0": np.float64(-0.0), "tiny": 5e-324, "huge": 1.7976931348623157e308,
            "int": 7, "np-int": np.int64(-3), "true": True, "false": False, "none": None,
            "str": 'quote " and \\ backslash', "empty-dict": {}, "empty-list": [], "empty-tuple": (),
            "list": [np.float64(2.5), -0.0, None, True, [], {"x": np.float32(1e-8)}],
            "nested": {"a": {"b": {"c": [1, (2.0, np.nan)], "d": {}}}},
        }
        for obj in (doc, [doc, doc["list"]], np.float64(1e300), np.float32(3.0), -0.0, {}, [], None):
            assert _json(obj) == json_reference(obj)
        assert _json(doc, indent=3) == json_reference(doc, indent=3)

    @pytest.mark.parametrize("char", [chr(c) for c in range(32)] + ['"', "\\"], ids=lambda c: f"U+{ord(c):04X}")
    def test_escaped_string_round_trips(self, char):
        text = f"a{char}b{char}"
        assert _json(text) == json_reference(text)
        assert json.loads(_json(text)) == text
        doc = {"path": text, "rows": [text]}
        assert _json(doc) == json_reference(doc)
        assert json.loads(_json(doc)) == doc

    def test_sweep_receipt_with_a_tab_in_its_path_parses(self, capsys, tmp_path):
        path = str(tmp_path / "a\tb.csv")
        code, out, _ = run_cli(capsys, "sweep-lambda", "--lambdas", "1e-4,1e-5", "--out", path)
        assert code == 0
        receipt = json.loads(out)
        assert receipt["path"] == path and receipt["rows_written"] == 2
        assert os.path.exists(path)
