"""Run one benchmark op against ``lincontrol`` and check its output.

:func:`execute` returns the program time (seconds spent inside the
package's public functions, or the wall time of a CLI process) and a list of
failure reasons; an empty list means the op passed every check.  A raise, a
non-zero exit and a failed check are all failures, so a silent wrong answer
counts against the program exactly like an error does.

Every package function is looked up on its module at call time
(``model.csv_text``, not a name imported once), so the span wrappers in
:mod:`spans` see the calls.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import subprocess
import sys
import time

import lincontrol
from lincontrol import cli, model, oct as octmod, sta

#: the CLI's own verify_boundaries tolerance
BOUNDARY_TOL = 1e-8
#: allowed undershoot of the impulsive minimum coth(T)
COTH_SLACK = 1e-6
#: |cost - cost_breakdown.total| <= COST_RTOL * max(1, |cost|)
COST_RTOL = 1e-9
#: quadrature oracle against the exact cost, relative
ORACLE_RTOL = 1e-9
#: the endpoint values x(0) = 0 and x(T) = 1 in a CSV table
CSV_ENDPOINT_TOL = 1e-8


def solve(op):
    """Build and solve the protocol an in-process op names."""
    kind, T = op["kind"], op["T"]
    if kind in ("sta-poly", "sta-trig", "sta-exp"):
        if kind == "sta-poly":
            family = sta.build_polynomial(op["N"], T)
        elif kind == "sta-trig":
            family = sta.build_trigonometric(op["N"], T)
        else:
            family = sta.build_exponential(op["k"], T)
        return sta.solve_sta(family, model.ControlProblem(T=T, n=1, lam=op.get("lam", 0.0)))
    if kind == "oct-singular":
        return octmod.singular_solution(T)
    if kind == "oct-order1":
        return octmod.regular_order1_analytic(op["lam"], T)
    return octmod.solve_regular(octmod.build_lq(op["n"], op["lam"], T))


def _finite(obj):
    if isinstance(obj, dict):
        return all(_finite(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return all(_finite(v) for v in obj)
    if isinstance(obj, float):
        return math.isfinite(obj)
    return True


def check_summary(summary):
    """Failure reasons for a solution summary (the CLI's JSON document)."""
    reasons = []
    if not _finite(summary):
        reasons.append("non-finite")
    residuals = summary["boundary_residuals"].values()
    if not all(abs(r) <= BOUNDARY_TOL for r in residuals):
        reasons.append("boundary-residual")
    parts = summary["cost_breakdown"]
    bare = parts["state"] + parts["derivative"]
    if not bare >= 1.0 / math.tanh(summary["T"]) - COTH_SLACK:
        reasons.append("below-coth")
    cost = summary["cost"]
    total = bare + parts["control_energy"]
    if not abs(cost - total) <= COST_RTOL * max(1.0, abs(cost)):
        reasons.append("cost-mismatch")
    return reasons


def expected_header(kind, n):
    """CSV columns for a solution of ``kind`` at boundary order ``n``."""
    header = ["t", "x", "xdot", "u", "v"] + (["y"] if n == 1 else []) + [f"z{k}" for k in range(n)]
    if kind.startswith("oct"):
        header += ["py", "pz"] if n == 1 else [f"px{n}"] + [f"pz{k}" for k in range(n - 1, -1, -1)]
    return header


def check_csv(text, header, points, T):
    """Failure reasons for a trajectory CSV: schema, row count, endpoints, finiteness."""
    lines = text.split("\n")
    if lines[-1] != "" or lines[0].split(",") != header:
        return ["csv-schema"]
    rows = lines[1:-1]
    if len(rows) != points:
        return ["csv-row-count"]
    try:
        table = [[float(v) for v in row.split(",")] for row in rows]
    except ValueError:
        return ["csv-schema"]
    if any(len(r) != len(header) for r in table):
        return ["csv-schema"]
    reasons = []
    if not all(math.isfinite(v) for r in table for v in r):
        reasons.append("non-finite")
    x = header.index("x")
    if not (abs(table[0][x]) <= CSV_ENDPOINT_TOL and abs(table[-1][x] - 1.0) <= CSV_ENDPOINT_TOL):
        reasons.append("csv-endpoint")
    if not (table[0][0] == 0.0 and abs(table[-1][0] - T) <= 1e-12 * T):
        reasons.append("csv-grid")
    return reasons


def solve_sweep_program(op):
    """Build, solve, then the CLI's summary and its JSON rendering."""
    sol = solve(op)
    summary = cli.solution_summary(sol)
    return summary, cli._json(summary)


def solve_sweep_check(op, result):
    summary, text = result
    return check_summary(summary) + ([] if text.startswith("{") else ["json"])


def trajectory_csv_program(op):
    """Solve, then tabulate the trajectory as CSV."""
    sol = solve(op)
    return sol, model.csv_text(sol, op["points"])


def trajectory_csv_check(op, result):
    sol, text = result
    header = expected_header(sol.kind, sol.problem.n)
    return check_summary(cli.solution_summary(sol)) + check_csv(text, header, op["points"], sol.problem.T)


def oracle_check_program(op):
    """Solve, then the quadrature oracle, the boundary report and, at first order, the arc fit."""
    sol = solve(op)
    quad, _ = model.cost_functional(sol.trajectory, lam=sol.problem.lam, T=sol.problem.T,
                                    nodes=64, panels=op["panels"])
    report = model.verify_boundaries(sol, tol=BOUNDARY_TOL)
    first_order = op["kind"] in ("oct-singular", "oct-order1")
    dev = octmod.singular_consistency_check(sol) if first_order else 0.0
    return sol, quad, report, dev


def oracle_check_check(op, result):
    sol, quad, report, dev = result
    reasons = check_summary(cli.solution_summary(sol))
    if not report.passed and "boundary-residual" not in reasons:
        reasons.append("boundary-residual")
    if not abs(quad - sol.cost) <= ORACLE_RTOL * abs(sol.cost):
        reasons.append("quadrature-mismatch")
    if not math.isfinite(dev):
        reasons.append("non-finite")
    return reasons


_NONFINITE = re.compile(r"(?<![\w.])-?(nan|inf)(?![\w.])")


def _parse_json(text):
    """The CLI prints ``nan``/``inf`` bare; map them to JSON's spelling so the check can see them."""
    return json.loads(_NONFINITE.sub(lambda m: {"nan": "NaN", "-nan": "NaN", "inf": "Infinity",
                                                "-inf": "-Infinity"}[m.group(0)], text))


def _option(argv, name, default):
    return argv[argv.index(name) + 1] if name in argv else default


def check_cli(op, code, out, err):
    """Failure reasons for one CLI invocation from its exit code and output."""
    if code != 0:
        return [f"exit-{code}"]
    argv, check = op["argv"], op["check"]
    try:
        if check == "version":
            return [] if out == f"lincontrol {lincontrol.__version__}\n" else ["version"]
        if check == "solution":
            return check_summary(_parse_json(out))
        if check == "csv":
            n = 1 if argv[0] == "sta" else int(_option(argv, "--n", "1"))
            header = expected_header(argv[0], n)
            return check_csv(out, header, int(_option(argv, "--points", "1001")),
                             float(_option(argv, "--T", "1.0")))
        if check == "table":
            doc = _parse_json(out)
            return [] if doc["passed"] and all(r["passed"] for r in doc["rows"]) else ["table-row"]
        if check == "table-csv":
            rows = out.strip().split("\n")[1:]
            return [] if rows and all(r.endswith(",True") for r in rows) else ["table-row"]
        if check == "validate":
            doc = _parse_json(out)
            return [] if doc["passed"] and all(c["passed"] for c in doc["checks"]) else ["validate-check"]
        if check == "sweep-csv":
            rows = [r.split(",") for r in out.strip().split("\n")[1:]]
            if len(rows) != len(_option(argv, "--lambdas", "").split(",")):
                return ["sweep-rows"]
            values = [float(v) for r in rows for v in r]
            if not (all(math.isfinite(v) for v in values) and _finite(_parse_json(err))):
                return ["non-finite"]
            coth1 = 1.0 / math.tanh(1.0)
            return [] if all(float(r[2]) >= coth1 - COTH_SLACK and float(r[3]) > 0 for r in rows) else ["sweep-gap"]
    except (ValueError, KeyError, IndexError, TypeError):
        return ["unparseable-output"]
    raise ValueError(f"unknown check {check!r}")


def cli_process_program(op, env, cwd):
    """One ``python -m lincontrol`` process, output captured."""
    proc = subprocess.run([sys.executable, "-m", "lincontrol", *op["argv"]], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def cli_inprocess_program(op):
    """``cli.main(argv)`` in this process with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(op["argv"]))
        except SystemExit as exc:  # argparse's --version and usage errors
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


PROGRAMS = {
    "solve-sweep": (solve_sweep_program, solve_sweep_check),
    "trajectory-csv": (trajectory_csv_program, trajectory_csv_check),
    "oracle-check": (oracle_check_program, oracle_check_check),
    "cli-mix": (cli_inprocess_program, lambda op, result: check_cli(op, *result)),
}

#: what a check may raise when it re-reads a broken solution; anything else is a harness bug
PROGRAM_ERRORS = (lincontrol.NumericsError, ValueError, ArithmeticError)


def execute(workload, op, recorder, program=None):
    """Run one op; return ``(seconds, reasons)``.

    Only the program call is timed.  A raise inside it is the failure
    ``raised:<Type>``; the check then runs with span recording paused.
    ``program`` replaces the workload's program (cli-mix passes the
    subprocess runner).
    """
    run, check = PROGRAMS[workload]
    run = program or run
    t0 = time.perf_counter()
    try:
        result = run(op)
    except Exception as exc:  # any raise inside the package is a failed op, tallied by type
        return time.perf_counter() - t0, [f"raised:{type(exc).__name__}"]
    dt = time.perf_counter() - t0
    with recorder.paused():
        try:
            return dt, check(op, result)
        except PROGRAM_ERRORS as exc:
            return dt, [f"raised:{type(exc).__name__}"]
