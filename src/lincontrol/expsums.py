"""Finite exponential sums with overflow-safe anchoring.

Every closed-form trajectory in this package is a finite sum of (possibly
complex) exponentials.  Terms whose rate has positive real part are anchored
at the far end of the horizon, ``gamma * exp(s * (t - tau))`` with
``tau = T``, so that no intermediate quantity ever reaches ``exp(s * T)``
even when ``s`` is of order ``1/sqrt(lambda)``.  Products of two sums have
elementary antiderivatives, which gives exact costs without quadrature: the
integrals of every term pair form one kernel matrix ``K`` per set of rates
and shifts, and each integral is the quadratic form ``gamma_f K gamma_g``,
so sums that share their terms (a trajectory's ``x``, ``x'`` and ``v``)
share one ``K``, as they share one exponential per term in
:func:`real_values`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


@dataclass(frozen=True)
class ExpSum:
    """Sum of ``gammas[i] * exp(rates[i] * (t - shifts[i]))``.

    ``gammas`` is a tuple or a 1-D array; ``rates`` and ``shifts`` are
    tuples, which sums that share their terms compare equal on.  The
    package's sums shift each growing rate to the horizon and the rest to 0.
    """

    gammas: tuple
    rates: tuple
    shifts: tuple

    def __post_init__(self):
        if not len(self.gammas) == len(self.rates) == len(self.shifts):
            raise ValueError("gammas, rates, shifts must have equal length")

    def value(self, t):
        """Real part at scalar ``t`` (a float) or array ``t`` (an array)."""
        v = real_values([self], t)[0]
        return float(v) if v.ndim == 0 else v


class SumStack(NamedTuple):
    """Several exponential sums on one set of terms, one sum per matrix row.

    Row ``a`` of ``gammas``, shaped ``(rows, terms)``, holds the gammas of sum
    ``a`` on the shared ``rates`` and ``shifts`` (tuples or 1-D arrays).  It
    is the matrix form of a list of :class:`ExpSum` that share their terms,
    and :func:`real_values` and :func:`product_integral` take either; a
    stack needs no object per row.
    """

    gammas: np.ndarray
    rates: tuple
    shifts: tuple


def _stacked(sums, dtype=None):
    """``sums`` as a :class:`SumStack`: a stack as it is, a list of sums after
    checking that they share their terms (gammas of ``dtype``)."""
    if isinstance(sums, SumStack):
        return sums
    rates, shifts = sums[0].rates, sums[0].shifts
    if any(s.rates != rates or s.shifts != shifts for s in sums):
        raise ValueError("stacked sums must share rates and shifts")
    return SumStack(np.array([s.gammas for s in sums], dtype=dtype), rates, shifts)


#: :func:`real_values` forms every product of a call in one table for at most
#: this many times, and for a complex stack of at most :data:`FEW_COMPLEX_CELLS`
#: rows x times; larger tables accumulate one term at a time, which keeps
#: their memory at one ``(rows,) + t.shape`` table
FEW_POINTS = 8

#: rows x times up to which a complex stack takes the one-pass table: the
#: cost quadrature's ``x, x', v`` on 128 nodes.  On a 2-core x86 host the
#: one pass wins or ties below it for 6 to 18 terms and 2 to 27 rows, and the
#: loop wins from about 420 cells at 6 terms and 750 at 18; one product
#: table then holds at most 384 doubles per term, 54 KiB at 18 terms
FEW_COMPLEX_CELLS = 384


def real_values(sums, t):
    """Real parts of several sums at ``t``, stacked as ``(rows,) + t.shape``.

    ``sums`` is a list of sums that share their ``rates`` and ``shifts``, or
    a :class:`SumStack`, whose gamma rows are evaluated directly.  Every
    term's exponential is computed for all rows in one ``np.exp`` call over a
    ``(terms,) + t.shape`` array (real when every rate is real).  The terms
    are then added one at a time, in term order and from ``+0.0``, so a
    row's bits do not depend on how many rows are stacked with it or on the
    shape of ``t``.  For at most :data:`FEW_POINTS` times, or a complex
    stack of at most :data:`FEW_COMPLEX_CELLS` rows x times, the products
    form one ``(terms, rows) + t.shape`` array whose running sum
    (``np.add.accumulate``, never a pairwise reduction) adds them in that
    same order; both kernels give the same bits, and each is the faster one
    on its side of the limit.  Complex products are written out in real
    arithmetic so that a value rounds the same for scalar and array ``t``:
    numpy's vectorised complex multiply may fuse multiply-adds.  When every
    rate and gamma is real the imaginary products, all exact zeros, are
    skipped; that leaves every bit alone because ``x - 0.0 == x`` and the
    sum never becomes ``-0.0``.
    """
    gammas, rates, shifts = _stacked(sums, complex)
    t = np.asarray(t, dtype=float)
    per_term = (-1,) + (1,) * t.ndim
    rows = len(gammas)
    g = np.asarray(gammas, dtype=complex).reshape((rows,) + per_term)
    e = np.exp(np.asarray(rates).reshape(per_term) * (t - np.asarray(shifts).reshape(per_term)))
    real = not np.iscomplexobj(e) and not g.imag.any()
    if t.size <= FEW_POINTS or (not real and rows * t.size <= FEW_COMPLEX_CELLS):
        g = g.swapaxes(0, 1)
        e = e[:, None]
        terms = g.real * e if real else g.real * e.real - g.imag * e.imag
        terms[0] += 0.0
        return np.add.accumulate(terms)[-1]
    out = np.zeros((rows,) + t.shape)
    for i in range(len(rates)):
        out += g.real[:, i] * e[i] if real else g.real[:, i] * e.real[i] - g.imag[:, i] * e.imag[i]
    return out


def _pair_kernel(f, g, T):
    # K[i, j] = \int_0^T exp(si (t - taui)) exp(sj (t - tauj)) dt over the
    # terms of f and g.  The combined exponents S T - P and -P
    # (P = si taui + sj tauj) stay bounded because growing rates always
    # carry tau = T.
    si = np.asarray(f.rates)[:, None]
    sj = np.asarray(g.rates)[None, :]
    S = si + sj
    P = si * np.asarray(f.shifts)[:, None] + sj * np.asarray(g.shifts)[None, :]
    ST = S * T
    near = np.abs(S) * T < 1e-8
    decay = np.exp(-P)
    # near-cancelling rate pairs take the series for (exp(S T) - 1)/S; the
    # divisor of the other branch is made safe there
    series = decay * T * (1.0 + ST / 2.0 + ST * ST / 6.0)
    exact = (np.exp(ST - P) - decay) / np.where(near, 1.0, S)
    return np.where(near, series, exact)


def product_integral(f, g, T):
    """Exact ``\\int_0^T f(t) g(t) dt`` for two exponential sums.

    ``f`` and ``g`` may instead be stacks of equally many sums, each a list
    of sums sharing one set of ``rates`` and ``shifts`` (else
    ``ValueError``) or a :class:`SumStack`; the result is then the array of
    row-wise integrals ``\\int f[a] g[a]``, all from one pair kernel.  Each
    integral is the quadratic form ``gamma_f K gamma_g`` on that kernel.
    """
    stacked = not isinstance(f, ExpSum)
    fs, gs = (_stacked(f), _stacked(g)) if stacked else (_stacked([f]), _stacked([g]))
    if len(fs.gammas) != len(gs.gammas):
        raise ValueError(f"stacks of {len(fs.gammas)} and {len(gs.gammas)} sums")
    K = _pair_kernel(fs, gs, T)
    out = ((fs.gammas @ K) * gs.gammas).sum(axis=1)
    return out if stacked else out[0]


def square_integrals(sums, T):
    """Exact ``\\int_0^T f(t)^2 dt`` of each sum, as a tuple of floats.

    ``sums`` is a list of sums that share their ``rates`` and ``shifts``, or
    a :class:`SumStack`; one pair kernel serves them all.
    """
    return tuple(np.real(product_integral(sums, sums, T)).tolist())
