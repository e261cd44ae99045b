"""
Cost convergence under the energy weight
========================================

The regularized cost C_R(lam) decreases monotonically to the impulsive
limit coth(1) as lam -> 0, and the gap closes like a square root:
C_R - coth(1) ~ c * lam^q with q = 1/2.  The first-order optimum is the
exponential basis family with its growing term anchored at the horizon,
so the sweep can be pushed far below the point where exp(1/sqrt(lam))
overflows.
"""

import os

import numpy as np

from lincontrol import build_lq, regular_order1_analytic, solve_regular

OUT = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(OUT, exist_ok=True)

coth1 = 1.0 / np.tanh(1.0)

lams = np.geomspace(1e-4, 2e-6, 12)
sols = [solve_regular(build_lq(1, lam)) for lam in lams]
gaps = [sol.cost - coth1 for sol in sols]

print(f"{'lam':>10} {'C_R':>12} {'bare':>12} {'gap':>12}")
for lam, sol, gap in zip(lams, sols, gaps):
    print(f"{lam:>10.2e} {sol.cost:>12.8f} {sol.cost_breakdown.bare:>12.8f} {gap:>12.4e}")
# a straight line through the logs: log gap = exponent * log lam + log prefactor
exponent, log_prefactor = np.polyfit(np.log(lams), np.log(gaps), 1)
print(f"\npower-law fit: gap = {np.exp(log_prefactor):.4f} * lam^{exponent:.4f}")

# the anchored evaluation keeps working far beyond the naive overflow point
print("\nfar below the naive floating-point floor:")
for lam in (1e-8, 1e-10, 1e-12):
    gap = regular_order1_analytic(lam).cost - coth1
    print(f"  lam={lam:.0e}: gap={gap:.6e}  gap/sqrt(lam)={gap/np.sqrt(lam):.4f}")

path = os.path.join(OUT, "weight_sweep.csv")
with open(path, "w", newline="") as fh:
    fh.write("lambda,cost_regularized,cost_bare,gap\n")
    for lam, sol, gap in zip(lams, sols, gaps):
        fh.write(f"{lam:.17g},{sol.cost:.17g},{sol.cost_breakdown.bare:.17g},{gap:.17g}\n")
print(f"\nsweep written to {path}")
