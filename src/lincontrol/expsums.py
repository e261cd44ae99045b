"""Finite exponential sums with overflow-safe anchoring.

Every closed-form trajectory in this package is a finite sum of (possibly
complex) exponentials.  Terms whose rate has positive real part are anchored
at the far end of the horizon, ``gamma * exp(s * (t - tau))`` with
``tau = T``, so that no intermediate quantity ever reaches ``exp(s * T)``
even when ``s`` is of order ``1/sqrt(lambda)``.  Products of two sums have
elementary antiderivatives, which gives exact costs and Gram entries without
quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ExpSum:
    """Sum of ``gammas[i] * exp(rates[i] * (t - shifts[i]))``."""

    gammas: tuple
    rates: tuple
    shifts: tuple

    def __post_init__(self):
        if not len(self.gammas) == len(self.rates) == len(self.shifts):
            raise ValueError("gammas, rates, shifts must have equal length")

    @staticmethod
    def anchored(gammas, rates, horizon):
        """Build a sum whose growing terms are anchored at ``t = horizon``.

        ``gammas`` must already be expressed relative to the anchor, i.e. the
        coefficient multiplying ``exp(rate * (t - horizon))`` for growing
        rates and ``exp(rate * t)`` for the rest.
        """
        shifts = tuple(horizon if np.real(r) > 0 else 0.0 for r in rates)
        return ExpSum(tuple(gammas), tuple(rates), shifts)

    def derivative(self, order=1):
        """Term-by-term derivative of the given order."""
        g = tuple(
            gamma * rate**order for gamma, rate in zip(self.gammas, self.rates)
        )
        return ExpSum(g, self.rates, self.shifts)

    def value(self, t):
        """Real part at scalar ``t`` (a float) or array ``t`` (an array)."""
        v = real_values([self], t)[0]
        return float(v) if v.ndim == 0 else v


def real_values(sums, t):
    """Real parts of several sums at ``t``, stacked as ``(len(sums),) + t.shape``.

    The sums must share their ``rates`` and ``shifts``, so each term's
    exponential is computed once for all of them.  Complex products are
    written out in real arithmetic so that a value rounds the same for
    scalar and array ``t``: numpy's vectorised complex multiply may fuse
    multiply-adds.
    """
    rates, shifts = sums[0].rates, sums[0].shifts
    if any(s.rates != rates or s.shifts != shifts for s in sums):
        raise ValueError("stacked sums must share rates and shifts")
    t = np.asarray(t, dtype=float)
    out = np.zeros((len(sums),) + t.shape)
    for i, (rate, shift) in enumerate(zip(rates, shifts)):
        e = np.exp(rate * (t - shift))
        for j, s in enumerate(sums):
            g = complex(s.gammas[i])
            out[j] += g.real * e.real - g.imag * e.imag
    return out


def _pair_integral(gi, si, taui, gj, sj, tauj, T):
    # \int_0^T gi gj exp(si (t-taui)) exp(sj (t-tauj)) dt.  The combined
    # exponents S*T - P and -P (P = si*taui + sj*tauj) stay bounded because
    # growing rates always carry tau = T.
    S = si + sj
    P = si * taui + sj * tauj
    if abs(S) * T < 1e-8:
        # near-cancelling rate pair: series for (exp(S T) - 1)/S
        ST = S * T
        base = np.exp(-P) * T * (1.0 + ST / 2.0 + ST * ST / 6.0)
    else:
        base = (np.exp(S * T - P) - np.exp(-P)) / S
    return gi * gj * base


def product_integral(f, g, T):
    """Exact ``\\int_0^T f(t) g(t) dt`` for two exponential sums."""
    total = 0.0 + 0.0j
    for gi, si, taui in zip(f.gammas, f.rates, f.shifts):
        for gj, sj, tauj in zip(g.gammas, g.rates, g.shifts):
            total += _pair_integral(gi, si, taui, gj, sj, tauj, T)
    return total


def square_integral(f, T):
    """Exact ``\\int_0^T f(t)^2 dt`` returned as a real number."""
    return float(np.real(product_integral(f, f, T)))
