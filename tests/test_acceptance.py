"""Acceptance gate: the nine exit criteria, one test each, at pinned tolerances.

 1. Reference cost table: all ten values at 1e-4 abs (optimal) / 5e-5 rel.
 2. Reference coefficient table, with the five-parameter polynomial row
    validated through its cost.
 3. Impulsive solution closed forms: kick areas, arc profile, bare cost.
 4. True optima: ``validate``'s reference-optimum rows at every order 1..8
    and the impulsive arc, total and parts within 1e-10, the exponential
    basis at rate lambda^(-1/2) meeting the first-order rows.
 5. Cost convergence: monotone gap with square-root exponent, computable
    at the smallest tabulated weight.
 6. Interior control collapses onto the exponential arc as the weight
    shrinks (first order).
 7. Higher orders: boundary derivatives vanish and the interior control
    fits the arc at the tabulated (order, weight) pairs.
 8. Cross-route oracles: Gram vs quadrature, closed form vs generic
    solver, matrix exponential vs eigenbasis, adjoint rates vs finite
    differences.
 9. Property suites: spectral pairing, global cost lower bound, monotone
    basis improvement, byte-identical reruns.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import numpy as np
import pytest

from lincontrol.cli import REFERENCE_OPTIMA, main, run_validation, sweep_lambda, table1_report, table2_report
from lincontrol.model import cost_functional, csv_text, verify_boundaries
from lincontrol.numerics import integrate
from lincontrol.oct import (
    PontryaginFlow,
    build_lq,
    regular_order1_analytic,
    singular_consistency_check,
    singular_solution,
    solve_regular,
)
from lincontrol.sta import (
    assemble_gram,
    build_exponential,
    build_polynomial,
    build_trigonometric,
    solve_sta,
)
from oracles import flow_matrix, mat_exp, modal_solution

COTH1 = 1.0 / np.tanh(1.0)


def report(num, title, ok):
    print(f"criterion {num} ({title}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({title}) failed"


def test_criterion_1_cost_table():
    rep = table2_report()
    failures = [r for r in rep["rows"] if not r["passed"]]
    assert len(rep["rows"]) == 10
    report(1, "ten reference costs", not failures)


def test_criterion_2_coefficient_table():
    rep = table1_report()
    failures = [r for r in rep["rows"] if not r["passed"]]
    report(2, "reference coefficients", not failures)


def test_criterion_3_impulsive_closed_form():
    sol = singular_solution(1.0)
    areas = {i.time: i.area for i in sol.impulses}
    ok = abs(areas[0.0] - 1.0 / np.sinh(1.0)) <= 1e-12
    ok &= abs(areas[1.0] + 1.0 / np.tanh(1.0)) <= 1e-12
    ts = np.linspace(0.0, 1.0, 1001)
    arc = np.array([sol.trajectory.sample(t)["x"] for t in ts])
    ok &= bool(np.abs(arc - np.sinh(ts) / np.sinh(1.0)).max() <= 1e-12)
    bare, _ = cost_functional(sol.trajectory, lam=0.0)
    ok &= abs(bare - COTH1) <= 1e-9
    report(3, "impulsive closed form", ok)


def test_criterion_4_equivalence():
    rows = {c["check"]: c for c in run_validation() if c["check"].startswith("reference-optimum-")}
    want = {f"reference-optimum-n{n}-{lam:g}-T{T:g}" for n, lam, T, *_ in REFERENCE_OPTIMA if lam}
    want |= {f"reference-optimum-sta-exp-{lam:g}-T{T:g}" for n, lam, T, *_ in REFERENCE_OPTIMA if lam and n == 1}
    want |= {"reference-optimum-arc-T1"}
    ok = set(rows) == want
    ok &= {n for n, *_ in REFERENCE_OPTIMA} == set(range(1, 9))
    ok &= all(r["passed"] and r["value"] <= 1e-10 and r["threshold"] == 1e-10 for r in rows.values())
    report(4, "basis and optimal costs meet the true optima", ok)


def test_criterion_5_convergence():
    rows, fit = sweep_lambda((1e-4, 5e-5, 2e-5, 1e-5, 5e-6, 2e-6))
    gaps = [r["gap"] for r in rows]
    ok = all(np.isfinite(r["cost_regularized"]) for r in rows)
    ok &= all(g > 0 for g in gaps)
    ok &= all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))
    ok &= 0.45 <= fit["exponent"] <= 0.55
    report(5, "square-root cost convergence", ok)


def test_criterion_6_interior_field_first_order():
    devs = [
        singular_consistency_check(regular_order1_analytic(lam), window=(0.1, 0.9))
        for lam in (1e-3, 1e-4, 1e-5)
    ]
    ok = devs[0] > devs[1] > devs[2]
    ok &= devs[2] <= 0.05
    report(6, "interior field collapse", ok)


def test_criterion_7_higher_orders():
    ok = True
    for n, lam in ((1, 1e-5), (2, 5e-7), (3, 5e-9)):
        sol = solve_regular(build_lq(n, lam))
        s0 = sol.trajectory.sample(0.0)
        sT = sol.trajectory.sample(1.0)
        derivs = np.abs([s[f"x^({j})"] for s in (s0, sT) for j in range(1, n + 1)])
        ok &= bool(derivs.max() <= 1e-6)
        ok &= abs(s0["x"]) <= 1e-6
        ok &= abs(sT["x"] - 1.0) <= 1e-8
        ok &= singular_consistency_check(sol, window=(0.2, 0.8)) <= 0.1
    report(7, "higher-order boundaries and arc fit", ok)


def test_criterion_8_oracle_equivalences():
    ok = True

    # closed-form Gram cost vs 64-node quadrature at the optimum
    for sol in (
        solve_sta(build_polynomial(6)),
        solve_sta(build_trigonometric(6)),
        solve_sta(build_exponential(100.0)),
    ):
        quad, _ = cost_functional(sol.trajectory, lam=0.0, nodes=64)
        ok &= abs(sol.cost - quad) <= 1e-10

    # analytic first-order route vs generic flow solver, pointwise
    lam = 1e-4
    generic = modal_solution(1, lam)
    closed = regular_order1_analytic(lam)
    gap = max(
        abs(generic.trajectory.sample(t)["x"] - closed.trajectory.sample(t)["x"])
        for t in np.linspace(0.0, 1.0, 1001)
    )
    ok &= gap <= 1e-9

    # matrix exponential vs eigenbasis reconstruction at first order
    for lam_e, t in ((1e-2, 0.3), (1e-4, 1.0)):
        problem = build_lq(1, lam_e)
        E = mat_exp(flow_matrix(problem), t)
        w, V = PontryaginFlow(problem).spectrum()
        E2 = (V * np.exp(w * t)) @ np.linalg.inv(V)
        ok &= bool(np.abs(E - E2.real).max() <= 1e-9 * np.abs(E).max())

    # adjoint closed forms satisfy their rate equations under differencing
    sol = regular_order1_analytic(1e-4)
    h = 1e-5
    worst = 0.0
    for t in np.linspace(h, 1.0 - h, 101):
        sp, sm, s = (sol.trajectory.sample(x) for x in (t + h, t - h, t))
        py_dot = (sp["py"] - sm["py"]) / (2 * h)
        pz_dot = (sp["pz"] - sm["pz"]) / (2 * h)
        worst = max(
            worst,
            abs(py_dot - (s["py"] - s["z0"] + 2 * s["y"])),
            abs(pz_dot - (s["z0"] - s["y"])),
        )
    ok &= worst <= 1e-6
    report(8, "oracle equivalences", ok)


def test_criterion_9_property_suites(capsys, tmp_path):
    ok = True

    # Hamiltonian spectral pairing for orders 1..3
    for n in (1, 2, 3):
        for lam in (1e-3, 1e-4, 1e-5):
            w, _ = PontryaginFlow(build_lq(n, lam)).spectrum()
            ok &= all(min(abs(mu + nu) for nu in w) <= 1e-9 for mu in w)

    # global lower bound over every admissible solution produced here
    zoo = [
        singular_solution(1.0),
        regular_order1_analytic(1e-3),
        regular_order1_analytic(1e-5),
        solve_regular(build_lq(2, 5e-7)),
        solve_regular(build_lq(3, 5e-9)),
    ]
    zoo += [solve_sta(build_polynomial(N)) for N in (3, 4, 5, 6)]
    zoo += [solve_sta(build_trigonometric(N)) for N in (3, 4, 5, 6)]
    zoo += [solve_sta(build_exponential(k)) for k in (10.0, 100.0)]
    ok &= all(sol.cost_breakdown.bare >= COTH1 - 1e-6 for sol in zoo)

    # monotone improvement with basis order inside each family
    for builder in (build_polynomial, build_trigonometric):
        costs = [solve_sta(builder(N)).cost for N in (3, 4, 5, 6)]
        ok &= all(c1 >= c2 - 1e-12 for c1, c2 in zip(costs, costs[1:]))

    # byte-identical reruns: JSON summary and CSV trajectory
    assert main(["sta", "poly", "--order", "6"]) == 0
    out1 = capsys.readouterr().out
    assert main(["sta", "poly", "--order", "6"]) == 0
    out2 = capsys.readouterr().out
    ok &= out1 == out2
    sol = regular_order1_analytic(1e-4)
    ok &= csv_text(sol, points=257) == csv_text(sol, points=257)

    report(9, "property suites", ok)
