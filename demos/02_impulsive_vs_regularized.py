"""
Impulsive optimum versus energy-regularized optimum
===================================================

Without any penalty on the auxiliary control v = udot, the optimal field is
impulsive: a kick of area 1/sinh(T) at t = 0, the exponential arc, and a
closing kick of area -1/tanh(T) at t = T.  Adding lam * v^2 to the running
cost makes the optimal field finite; as lam -> 0 the regularized solution
collapses back onto the impulsive one.

The script compares the two at several weights: trajectory gap, interior
fit of the field to the arc form Z e^t, and the adjoint combination
p_y + p_z = lam * v that defines the singular set.  It also writes the
(y, z)-plane data showing how the regularized path shadows the arc between
two boundary layers.
"""

import os

import numpy as np

from lincontrol import fit_exponential_arc, regular_order1_analytic, singular_solution, write_csv

OUT = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(OUT, exist_ok=True)

impulsive = singular_solution(1.0)
print("impulsive optimum:")
for imp in impulsive.impulses:
    print(f"  kick at t={imp.time:g}: area {imp.area:+.7f}")
print(f"  bare cost: {impulsive.cost:.7f} (= coth 1)\n")

window = np.linspace(0.1, 0.9, 161)
grid = np.linspace(0, 1, 401)
arc = impulsive.trajectory.table(grid)["x"]
print(f"{'lam':>8} {'cost C_R':>10} {'bare':>10} {'max|dx| vs arc':>15} {'field fit dev':>14} {'max|p_y+p_z|':>13}")
for lam in (1e-3, 1e-4, 1e-5, 1e-6):
    sol = regular_order1_analytic(lam)
    dx = np.abs(sol.trajectory.table(grid)["x"] - arc).max()
    inner = sol.trajectory.table(window)
    _, dev = fit_exponential_arc(window, inner["v"])
    psum = np.abs(inner["py"] + inner["pz"]).max()
    print(
        f"{lam:>8.0e} {sol.cost:>10.6f} {sol.cost_breakdown.bare:>10.6f} "
        f"{dx:>15.2e} {dev:>14.2e} {psum:>13.2e}"
    )

write_csv(regular_order1_analytic(1e-4), os.path.join(OUT, "regularized_1e-4.csv"), points=2001)
write_csv(impulsive, os.path.join(OUT, "impulsive.csv"), points=2001)
print(f"\n(y, z)-plane and field data written to {OUT}/ (columns y, z0, v)")
