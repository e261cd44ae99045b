"""
Pinning higher boundary derivatives
===================================

Robustness against timing jitter at the interval ends comes from forcing
more derivatives of x to vanish there: x(0) = x'(0) = ... = x^(n)(0) = 0
and likewise at t = T.  Lifting u and its derivatives into the state makes
this a fixed-endpoint linear-quadratic problem of dimension n + 1, solved
here for n = 1, 2, 3 at progressively smaller energy weights.

For n > 1 some flow modes are complex, so the optimal trajectory mixes
exponentials with oscillations; the auxiliary control develops violent
boundary layers (they deliver the extra derivative conditions) while the
physical control u still rides the same exponential arc Z e^t in the
interior, whatever the order.  Every solution the solver returns meets
its boundary conditions at the package's one tolerance, 1e-8; one that
misses them is refused with BoundaryResidual instead.
"""

import os

import numpy as np

from lincontrol import build_lq, fit_exponential_arc, solve_regular, verify_boundaries, write_csv

OUT = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(OUT, exist_ok=True)

CASES = ((1, 1e-5), (2, 5e-7), (3, 5e-9))


def fast_rates(n, lam):
    """The 2n roots of s^(2n) = (-1)^(n+1)/lam, lam^(-1/2n) e^(i pi m/2n) with m = n+1+2k.

    Taking m in (-2n, 2n] makes each complex pair exact conjugates, so they
    sort by real part, then imaginary part, with no rounding tie-break.
    """
    m = np.arange(1 - 2 * n, 2 * n + 1)
    m = m[m % 2 != n % 2]
    return sorted(lam ** (-1 / (2 * n)) * np.exp(1j * np.pi * m / (2 * n)), key=lambda s: (s.real, s.imag))


for n, lam in CASES:
    sol = solve_regular(build_lq(n, lam))
    report = verify_boundaries(sol)

    print(f"order n={n}, weight lam={lam:.0e}")
    print(f"  fast modes: {', '.join(f'{mu:.2f}' for mu in fast_rates(n, lam))}")
    print(f"  boundary residuals: max {report.max_residual:.2e} ({'ok' if report.passed else 'FAIL'})")

    ts = np.linspace(0.2, 0.8, 121)
    Z, dev = fit_exponential_arc(ts, sol.trajectory.table(ts)["u"])
    print(f"  interior control fit u ~ Z e^t: Z={Z:.5f}, max rel deviation {dev:.4f}")
    print(f"  cost: {sol.cost:.6f} (bare {sol.cost_breakdown.bare:.6f})\n")

    write_csv(sol, os.path.join(OUT, f"higher_order_n{n}.csv"), points=2001)

print(f"trajectory and adjoint data written to {OUT}/")
print("the z0 column is the physical control; compare it across orders")
