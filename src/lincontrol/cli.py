"""Command-line front end: solve protocols, emit CSV/JSON, run validations.

Subcommands
-----------
``sta {poly|trig|exp}``
    Solve one basis-family protocol and print its JSON summary (or CSV).
``oct {singular|regular|higher}``
    Solve an optimal-control protocol; impulses and adjoints included.
``table1`` / ``table2``
    Recompute the reference coefficient/cost tables and flag each row
    PASS/FAIL against the frozen target values.
``sweep-lambda``
    Cost of the regularized optimum over a weight sweep plus a power-law
    fit of the gap to the impulsive-limit cost.
``validate``
    Run the full validation battery; exit 1 if anything fails.

All numeric output is serialized with 17 significant digits and LF line
endings, so identical invocations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import gc
import sys

import numpy as np

from . import __version__
from .model import (
    ControlProblem,
    csv_text,
    verify_boundaries,
    write_csv,
)
from .numerics import NumericsError
from .oct import (
    LambdaOutOfRange,
    PontryaginFlow,
    build_lq,
    regular_order1_analytic,
    singular_consistency_check,
    singular_solution,
    solve_regular,
)
from .sta import build_exponential, build_polynomial, build_trigonometric, solve_sta

COTH1 = 1.0 / np.tanh(1.0)

#: frozen cost targets: (method, order, target, kind of tolerance, tolerance)
TABLE2_TARGETS = [
    ("optimal", None, 1.3130, "abs", 1e-4),
    ("polynomial", 3, 1.57143, "rel", 5e-5),
    ("polynomial", 4, 1.55797, "rel", 5e-5),
    ("polynomial", 5, 1.40276, "rel", 5e-5),
    ("polynomial", 6, 1.39986, "rel", 5e-5),
    ("trigonometric", 3, 1.70041, "rel", 5e-5),
    ("trigonometric", 4, 1.69843, "rel", 5e-5),
    ("trigonometric", 5, 1.48104, "rel", 5e-5),
    ("trigonometric", 6, 1.48099, "rel", 5e-5),
    ("exponential", None, 1.325271, "rel", 5e-5),
]

#: true optima: (n, lam, T, state, derivative, control_energy), the parts of
#: the exact optimum at 17 significant digits, from the exact-rate oracle
#: ``tests/oracles.py::order_n_parts_mp`` at 80 digits; weight 0 is the
#: impulsive arc, whose parts are ``(sinh 2T / 4 -+ T/2) / sinh^2 T``
REFERENCE_OPTIMA = [
    (1, 1e-2, 1.0, 0.33557583770738914, 1.0930491793655641, 0.17813367218790138),
    (1, 1e-4, 1.0, 0.29981776174823754, 1.0254536786831787, 0.012634094506641968),
    (2, 1e-4, 10.0, 0.64111423122393496, 0.46495179218411165, 0.035355340073466163),
    (3, 1e-4, 10.0, 0.92933181929205311, 0.42974064544496698, 0.071814496083783846),
    (4, 1e-4, 10.0, 1.3224282308548847, 0.40062195959744556, 0.10329288788016312),
    (5, 1e-4, 10.0, 1.7813523859039488, 0.37811958499286336, 0.12883093729514219),
    (6, 1e-4, 10.0, 2.2832301977556146, 0.36083679355847625, 0.14945575058856078),
    (7, 1e-4, 10.0, 2.8161658111629264, 0.34518773453724338, 0.16815570797937213),
    (8, 1e-4, 10.0, 3.3807476079927641, 0.33631046647799473, 0.18166861603922013),
    (1, 0.0, 1.0, 0.29448681226651041, 1.0185484732328209, 0.0),
]

#: the exponential family's rate in the cost table; its target holds at this rate only
TABLE2_K = 100.0

#: frozen coefficient targets: (method, order, {name: (target, tol)}); the
#: five-parameter polynomial row is validated through its cost instead
#: because its printed second coefficient is ambiguous
TABLE1_TARGETS = [
    ("polynomial", 4, {"a": (-21.0 / 26.0, 1e-7)}),
    ("polynomial", 5, {"cost": (1.40276, 1e-4)}),
    ("polynomial", 6, {"a": (6.956942, 1e-4), "b": (5.627256, 1e-4), "c": (-5.135011, 1e-4)}),
    ("trigonometric", 4, {"a": (0.0202, 1e-3)}),
    ("trigonometric", 5, {"a": (0.785988, 1e-4), "b": (-0.356639, 1e-4)}),
    ("trigonometric", 6, {"a": (1.0407, 1e-4), "b": (-0.312242, 1e-4), "c": (-0.0105136, 1e-4)}),
]

DEFAULT_SWEEP = (1e-4, 5e-5, 2e-5, 1e-5, 5e-6, 2e-6)

HIGHER_DEFAULT_LAMBDA = {1: 1e-5, 2: 5e-7, 3: 5e-9}

#: the typed refusals of a solve, an exit 2 from a command and an error row in
#: a sweep; InvalidOrder, LambdaOutOfRange and DegenerateBasis are ValueErrors,
#: ShootingSingular and BoundaryResidual are NumericsErrors
_SOLVER_ERRORS = (ValueError, NumericsError)


def _format(x):
    return "%.17g" % float(x)


#: the escapes of ``json.dumps(s, ensure_ascii=False)``: the quote, the backslash
#: and the control characters U+0000-U+001F, these last as ``\uXXXX`` where JSON
#: has no two-character form.  Every other ASCII character maps to itself:
#: ``str.translate`` pays a failed lookup for each character missing from the
#: table, which made a short name about 3x slower to escape on a 2-core x86 host
_ESCAPES = {c: chr(c) if c > 31 else "\\u%04x" % c for c in range(128)}
_ESCAPES.update({c: "\\" + e for c, e in zip(b'"\\\b\f\n\r\t', '"\\bfnrt')})


def _json(obj, indent=0):
    """Deterministic JSON with floats at 17 significant digits.

    A ``float`` (``np.float64`` included) that is a dict value is formatted
    in place rather than through a recursive call; it is the commonest leaf.
    A string is escaped as ``json.dumps(s, ensure_ascii=False)`` escapes it,
    by :data:`_ESCAPES`.
    """
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        pad = "  " * indent
        items = [f'{pad}  "{k}": {"%.17g" % v if isinstance(v, float) else _json(v, indent + 1)}'
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        pad = "  " * indent
        items = [f"{pad}  {_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format(obj)
    return '"' + str(obj).translate(_ESCAPES) + '"'


def solution_summary(sol):
    """JSON-ready summary: coefficients, cost, boundary residuals, impulses."""
    return {
        "method": sol.kind,
        "order": sol.problem.n,
        "lambda": sol.problem.lam,
        "T": sol.problem.T,
        "coefficients": {k: float(v) for k, v in sol.coefficients.items()},
        "cost": sol.cost,
        "cost_breakdown": sol.cost_breakdown._asdict(),
        "boundary_residuals": dict(sol.boundary_residuals),
        "impulses": [{"time": i.time, "area": i.area} for i in sol.impulses],
    }


def _sta_solution(method, order=None, k=100.0, T=1.0, lam=0.0):
    problem = ControlProblem(T=T, n=1, lam=lam)
    if method == "polynomial":
        return solve_sta(build_polynomial(order, T), problem)
    if method == "trigonometric":
        return solve_sta(build_trigonometric(order, T), problem)
    if method == "exponential":
        return solve_sta(build_exponential(k, T), problem)
    raise ValueError(f"unknown method {method}")


def _parameters(sol):
    """The free coefficients ``a, b, c`` that a solution has, for a table row."""
    return {n: sol.coefficients[n] for n in ("a", "b", "c") if n in sol.coefficients}


def _table_document(table, rows, **metadata):
    """A table's document: its name, ``passed`` (every row passed), the rows and the metadata."""
    passed = all(r["passed"] for r in rows)
    return {"table": table, "passed": passed, "rows": rows, "metadata": {"version": __version__, **metadata}}


def table2_report():
    """Recompute all ten reference costs and compare to the frozen targets.

    Returns the table document of :func:`_table_document`.
    """
    rows = []
    for method, order, target, mode, tol in TABLE2_TARGETS:
        if method == "optimal":
            cost = singular_solution(1.0).cost
            params = {}
        else:
            sol = _sta_solution(method, order=order, k=TABLE2_K)
            cost = sol.cost
            params = {"k": TABLE2_K} if method == "exponential" else _parameters(sol)
        err = abs(cost - target) / (abs(target) if mode == "rel" else 1.0)
        rows.append(
            {
                "method": method,
                "order": order,
                "parameters": params,
                "cost": cost,
                "target": target,
                "tolerance": tol,
                "mode": mode,
                "error": err,
                "passed": err <= tol,
            }
        )
    return _table_document("cost-table", rows, k_exponential=TABLE2_K)


def table1_report():
    """Recompute the free coefficients and compare to the frozen targets; a document of :func:`_table_document`."""
    rows = []
    for method, order, targets in TABLE1_TARGETS:
        sol = _sta_solution(method, order=order)
        checks = {}
        ok = True
        for name, (target, tol) in targets.items():
            value = sol.cost if name == "cost" else sol.coefficients[name]
            err = abs(value - target)
            passed = err <= tol
            ok = ok and passed
            checks[name] = {"value": value, "target": target, "tolerance": tol, "passed": passed}
        rows.append(
            {
                "method": method,
                "order": order,
                "parameters": _parameters(sol),
                "cost": sol.cost,
                "checks": checks,
                "passed": ok,
            }
        )
    return _table_document("coefficient-table", rows)


def sweep_lambda(lams=DEFAULT_SWEEP):
    """First-order regularized cost over a weight sweep plus the power-law gap fit.

    Each weight is solved by :func:`solve_regular`, the route ``oct regular``
    takes.  A weight that the solver refuses, a solution that misses a
    boundary condition included, gives an error row and the sweep goes on.
    """
    rows = []
    for lam in lams:
        try:
            sol = solve_regular(build_lq(1, lam))
            rows.append(
                {
                    "lambda": lam,
                    "cost_regularized": sol.cost,
                    "cost_bare": sol.cost_breakdown.bare,
                    "gap": sol.cost - COTH1,
                }
            )
        except _SOLVER_ERRORS as exc:
            rows.append({"lambda": lam, "error": f"{type(exc).__name__}: {exc}"})
    good = [r for r in rows if "gap" in r and r["gap"] > 0]
    fit = {}
    if len(good) >= 2:
        logs = np.log([r["lambda"] for r in good])
        logg = np.log([r["gap"] for r in good])
        design = np.vstack([np.ones_like(logs), logs]).T
        (intercept, slope), *_ = np.linalg.lstsq(design, logg, rcond=None)
        fit = {"exponent": float(slope), "prefactor": float(np.exp(intercept))}
    return rows, fit


def _sweep_csv(rows):
    lines = ["lambda,cost_regularized,cost_bare,gap"]
    for r in rows:
        if "error" in r:
            lines.append(f"{_format(r['lambda'])},error,error,error")
        else:
            lines.append(
                ",".join(
                    _format(r[c]) for c in ("lambda", "cost_regularized", "cost_bare", "gap")
                )
            )
    return "\n".join(lines) + "\n"


def run_validation():
    """The full validation battery; returns a list of check dicts."""
    checks = []

    def add(name, passed, value, threshold):
        checks.append(
            {"check": name, "passed": bool(passed), "value": float(value), "threshold": threshold}
        )

    t2 = table2_report()
    add("cost-table", t2["passed"], max(r["error"] for r in t2["rows"]), "per-row tolerance")
    t1 = table1_report()
    worst = max(
        abs(c["value"] - c["target"]) for r in t1["rows"] for c in r["checks"].values()
    )
    add("coefficient-table", t1["passed"], worst, "per-row tolerance")

    for kind, sol in [
        ("singular", singular_solution(1.0)),
        ("regular-1e-4", regular_order1_analytic(1e-4)),
        ("poly-6", _sta_solution("polynomial", order=6)),
        ("trig-6", _sta_solution("trigonometric", order=6)),
        ("exp-100", _sta_solution("exponential", k=100.0)),
    ]:
        rep = verify_boundaries(sol)
        add(f"boundaries-{kind}", rep.passed, rep.max_residual, rep.tol)

    # the total and every part against the true optimum; at first order the
    # exponential family at the optimum's rate meets the same row
    for n, lam, T, *parts in REFERENCE_OPTIMA:
        want = np.array([sum(parts), *parts])
        if lam == 0.0:
            sols = {"arc": singular_solution(T)}
        else:
            sols = {f"n{n}-{lam:g}": solve_regular(build_lq(n, lam, T))}
            if n == 1:
                sols[f"sta-exp-{lam:g}"] = _sta_solution("exponential", k=1 / np.sqrt(lam), T=T, lam=lam)
        for name, sol in sols.items():
            got = np.array([sol.cost, *sol.cost_breakdown])
            err = (np.abs(got - want) / np.where(want == 0.0, 1.0, np.abs(want))).max()
            add(f"reference-optimum-{name}-T{T:g}", err <= 1e-10, err, 1e-10)

    # the closed-form rates pair as +- and are the roots of chi(s) = (1 - s^2)(1 +
    # lam (-1)^n s^(2n)), each way round; both relative to 1 + |mu|
    lam = 1e-4
    for n in range(1, 9):
        w, _ = PontryaginFlow(build_lq(n, lam)).spectrum()
        pairing = (np.abs(w[:, None] + w).min(axis=1) / (1 + np.abs(w))).max()
        add(f"spectral-pairing-n{n}", pairing <= 1e-12, pairing, 1e-12)
        chi = np.polymul([-1.0, 0.0, 1.0], np.r_[lam * (-1.0) ** n, np.zeros(2 * n - 1), 1.0])
        roots = np.roots(chi)
        gap = np.abs(w[:, None] - roots)
        agreement = max((gap.min(axis=1) / (1 + np.abs(w))).max(), (gap.min(axis=0) / (1 + np.abs(roots))).max())
        add(f"spectrum-agreement-n{n}", agreement <= 1e-12, agreement, 1e-12)

    dev = singular_consistency_check(regular_order1_analytic(1e-5))
    add("singular-consistency", dev <= 0.05, dev, 0.05)

    _, fit = sweep_lambda()
    q = fit.get("exponent", float("nan"))
    add("gap-scaling-exponent", 0.45 <= q <= 0.55, q, "[0.45, 0.55]")
    return checks


def _emit_solution(sol, args):
    if args.format == "csv" and not args.out:
        sys.stdout.write(csv_text(sol, points=args.points))
        return 0
    if args.out:
        write_csv(sol, args.out, points=args.points)
    sys.stdout.write(_json(solution_summary(sol)) + "\n")
    return 0


def _cmd_sta(args):
    method = {"poly": "polynomial", "trig": "trigonometric", "exp": "exponential"}[args.kind]
    sol = _sta_solution(method, order=args.order, k=args.k, T=args.T, lam=args.lam or 0.0)
    return _emit_solution(sol, args)


def _cmd_oct(args):
    if args.mode == "singular":
        # the impulsive optimum is first order at weight 0; refuse rather than ignore
        if args.n != 1:
            raise ValueError(f"oct singular is first order, got --n {args.n}")
        if args.lam not in (None, 0.0):
            raise ValueError(f"oct singular has weight 0, got --lambda {args.lam}")
        return _emit_solution(singular_solution(args.T), args)
    # regular and higher differ only in their default weight; the problem
    # record refuses an order that does not exist before that is looked up
    ControlProblem(n=args.n)
    lam = args.lam
    if lam is None:
        lam = 1e-4 if args.mode == "regular" else HIGHER_DEFAULT_LAMBDA.get(args.n)
    if lam is None:
        raise LambdaOutOfRange(f"no default weight for order {args.n}; pass --lambda")
    return _emit_solution(solve_regular(build_lq(args.n, lam, args.T)), args)


def _cmd_table(doc, args):
    if args.format == "csv":
        lines = ["method,order,cost,target,passed"]
        for r in doc["rows"]:
            lines.append(
                f"{r['method']},{r['order'] if r['order'] else ''},"
                f"{_format(r['cost'])},{_format(r['target']) if 'target' in r else ''},{r['passed']}"
            )
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        sys.stdout.write(_json(doc) + "\n")
    return 0 if doc["passed"] else 1


def _cmd_sweep(args):
    lams = DEFAULT_SWEEP if args.lambdas is None else tuple(float(x) for x in args.lambdas.split(","))
    # a row's weight is printed as a number, which a nan or an infinity is not in JSON
    for lam in lams:
        if not np.isfinite(lam):
            raise LambdaOutOfRange(f"energy weight must be finite and positive, got {lam}")
    rows, fit = sweep_lambda(lams)
    if args.format == "json" and not args.out:
        sys.stdout.write(_json({"rows": rows, "fit": fit}) + "\n")
        return 0
    csv = _sweep_csv(rows)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(csv)
        sys.stdout.write(_json({"fit": fit, "rows_written": len(rows), "path": args.out}) + "\n")
    else:
        sys.stdout.write(csv)
        sys.stderr.write(_json({"fit": fit}) + "\n")
    return 0


def _cmd_validate(_args):
    checks = run_validation()
    ok = all(c["passed"] for c in checks)
    sys.stdout.write(_json({"passed": ok, "checks": checks}) + "\n")
    return 0 if ok else 1


def _parser():
    p = argparse.ArgumentParser(
        prog="lincontrol",
        description="Smooth speed-transfer protocols for the damped drive xdot + x = u",
    )
    p.add_argument("--version", action="version", version=f"lincontrol {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def io_flags(q):
        q.add_argument("--T", type=float, default=1.0, help="control horizon (default 1)")
        q.add_argument("--points", type=int, default=1001, help="samples in CSV output")
        q.add_argument("--out", type=str, default=None, help="write trajectory CSV here")
        q.add_argument("--format", choices=("csv", "json"), default="json")

    q = sub.add_parser("sta", help="basis-family protocol")
    q.add_argument("kind", choices=("poly", "trig", "exp"))
    q.add_argument("--order", type=int, default=4, help="basis size N (poly/trig)")
    q.add_argument("--k", type=float, default=100.0, help="exponential rate (exp)")
    q.add_argument("--lambda", dest="lam", type=float, default=None)
    io_flags(q)
    q.set_defaults(fn=_cmd_sta)

    q = sub.add_parser("oct", help="optimal-control protocol")
    q.add_argument("mode", choices=("singular", "regular", "higher"))
    q.add_argument("--n", type=int, default=1, help="boundary derivative order")
    q.add_argument("--lambda", dest="lam", type=float, default=None)
    io_flags(q)
    q.set_defaults(fn=_cmd_oct)

    q = sub.add_parser("table1", help="coefficient table vs frozen targets")
    q.add_argument("--format", choices=("csv", "json"), default="json")
    q.set_defaults(fn=lambda a: _cmd_table(table1_report(), a))

    q = sub.add_parser("table2", help="cost table vs frozen targets")
    q.add_argument("--format", choices=("csv", "json"), default="json")
    q.set_defaults(fn=lambda a: _cmd_table(table2_report(), a))

    q = sub.add_parser("sweep-lambda", help="cost convergence sweep")
    q.add_argument("--lambdas", type=str, default=None, help="comma-separated weights")
    q.add_argument("--out", type=str, default=None)
    q.add_argument("--format", choices=("csv", "json"), default="csv")
    q.set_defaults(fn=_cmd_sweep)

    q = sub.add_parser("validate", help="run the validation battery")
    q.set_defaults(fn=_cmd_validate)
    return p


def main(argv=None):
    args = _parser().parse_args(argv)
    # an OSError is output the command could not write, such as an --out
    # path in a missing directory
    try:
        return args.fn(args)
    except (*_SOLVER_ERRORS, OSError) as exc:
        err = {"error": type(exc).__name__, "message": str(exc)}
        sys.stderr.write(_json(err) + "\n")
        return 2


def run():
    """Entry point of a ``lincontrol`` process: the console script and ``python -m lincontrol``.

    The objects made by the imports (numpy's and the package's, about 22 000)
    live as long as the process, so they are frozen out of the garbage
    collector first; the collections of the run and of interpreter shutdown
    then skip them. :func:`main` itself leaves its host's GC state alone.
    """
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
