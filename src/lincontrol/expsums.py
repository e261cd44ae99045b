"""Finite exponential sums, anchored by their horizon.

Every closed-form trajectory in this package is a finite sum of (possibly
complex) exponentials, held as one :class:`ExpSum`: rows of gammas on
shared rates and one horizon ``T``.  Each term is anchored by its rate, at
``t = T`` when the rate grows (positive real part) and at ``t = 0``
otherwise, so ``gamma * exp(s * (t - tau))`` stays at most ``|gamma|`` on
``[0, T]`` and no intermediate quantity ever reaches ``exp(s * T)`` even
when ``s`` is of order ``1/sqrt(lambda)``.  The anchors are derived here,
from the rates and the horizon, and nowhere else.  Products of two sums
have elementary antiderivatives, which gives exact costs without
quadrature: the integrals of every term pair form one kernel matrix ``K``
per pair of rate sets, and each integral is the quadratic form ``gamma_f K
gamma_g``, so rows that share their terms (a trajectory's ``x``, ``x'`` and
``v``) share one ``K``, as they share one exponential per term in
:func:`real_values`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class ExpSum(NamedTuple):
    """Exponential sums on shared terms over the horizon ``[0, T]``.

    Row ``a`` of ``gammas``, shaped ``(rows, terms)``, is the sum of
    ``gammas[a, i] * exp(rates[i] * (t - tau_i))`` over the terms, with the
    anchor ``tau_i = T`` where ``Re rates[i] > 0`` and 0 elsewhere (see
    :func:`anchors`).  A 1-D ``gammas`` is a single sum, whose values and
    integrals have no row axis.  ``rates`` is a tuple or a 1-D array.
    """

    gammas: np.ndarray
    rates: tuple
    T: float

    def value(self, t):
        """Real parts at ``t``, as :func:`real_values`; a float for one sum at a scalar ``t``."""
        v = real_values(self, t)
        return float(v) if v.ndim == 0 else v


def anchors(rates, T):
    """Each term's anchor on the horizon ``T``, the package's one anchoring rule:
    ``T`` where the rate (of the array ``rates``) has positive real part, else 0."""
    return T * (rates.real > 0)


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


def real_values(s, t):
    """Real parts of the rows of the :class:`ExpSum` ``s`` at ``t``, shaped ``(rows,) + t.shape``
    (``t.shape`` for a single sum).

    Every term's exponential is computed for all rows in one ``np.exp`` call
    over a ``(terms,) + t.shape`` array (real when every rate is real).  The
    terms are then added one at a time, in term order and from ``+0.0``, so
    a row's bits do not depend on how many rows are stacked with it or on
    the shape of ``t``.  For at most :data:`FEW_POINTS` times, or a complex
    stack of at most :data:`FEW_COMPLEX_CELLS` rows x times, the products
    form one ``(terms, rows) + t.shape`` array whose running sum
    (``np.add.accumulate``, never a pairwise reduction) adds them in that
    same order; larger tables form each term's products in two
    preallocated buffers and add them to the result.  Both kernels
    give the same bits, and each is the faster one on its side of the
    limit.  Complex products are written out in real arithmetic so that a
    value rounds the same for scalar and array ``t``: numpy's vectorised
    complex multiply may fuse multiply-adds.  When every rate and gamma is
    real the imaginary products, all exact zeros, are skipped; that leaves
    every bit alone because ``x - 0.0 == x`` and the sum never becomes
    ``-0.0``.  Gamma rows whose length is not the number of rates raise
    ``ValueError``.
    """
    gammas, rates, T = s
    rates = np.asarray(rates)
    t = np.asarray(t, dtype=float)
    g = np.asarray(gammas, dtype=complex)
    if g.shape[-1:] != rates.shape:
        raise ValueError(f"gamma rows of shape {g.shape} on {rates.shape} rates")
    lead = g.shape[:-1]
    per_term = (-1,) + (1,) * t.ndim
    g = g.reshape((-1,) + rates.shape + per_term[1:])
    rows = len(g)
    e = np.exp(rates.reshape(per_term) * (t - anchors(rates, T).reshape(per_term)))
    real = not np.iscomplexobj(e) and not g.imag.any()
    if t.size <= FEW_POINTS or (not real and rows * t.size <= FEW_COMPLEX_CELLS):
        g = g.swapaxes(0, 1)
        e = e[:, None]
        terms = g.real * e if real else g.real * e.real - g.imag * e.imag
        terms[0] += 0.0
        return np.add.accumulate(terms)[-1].reshape(lead + t.shape)
    shape = (rows,) + t.shape
    out, product, imag = np.zeros(shape), np.empty(shape), np.empty(shape)
    for i in range(len(rates)):
        np.multiply(g.real[:, i], e.real[i], out=product)
        if not real:
            product -= np.multiply(g.imag[:, i], e.imag[i], out=imag)
        out += product
    return out.reshape(lead + t.shape)


def _pair_kernel(f, g):
    # K[i, j] = \int_0^T exp(si (t - taui)) exp(sj (t - tauj)) dt over the
    # terms of f and g on f's horizon T.  The combined exponents S T - P and
    # -P (P = si taui + sj tauj) stay bounded because anchors() gives every
    # growing rate tau = T.
    T = f.T
    si, sj = np.asarray(f.rates), np.asarray(g.rates)
    pi = si * anchors(si, T)
    # the two operands of a square share their rates, and so their anchors
    pj = pi if g.rates is f.rates else sj * anchors(sj, T)
    S = si[:, None] + sj[None, :]
    P = pi[:, None] + pj[None, :]
    ST = S * T
    near = np.abs(S) * T < 1e-8
    decay = np.exp(-P)
    # near-cancelling rate pairs take the series for (exp(S T) - 1)/S; the
    # divisor of the other branch is made safe there
    series = decay * T * (1.0 + ST / 2.0 + ST * ST / 6.0)
    exact = (np.exp(ST - P) - decay) / np.where(near, 1.0, S)
    return np.where(near, series, exact)


def product_integral(f, g):
    """Exact row-wise ``\\int_0^T f[a](t) g[a](t) dt`` of two :class:`ExpSum`, as an array.

    ``f`` and ``g`` hold equally many rows on one horizon ``T``, read from
    the operands; two horizons, two row counts or gamma rows whose length
    is not the number of rates raise ``ValueError``.  Every integral is the
    quadratic form ``gamma_f K gamma_g`` on one pair kernel ``K``.
    """
    if f.T != g.T:
        raise ValueError(f"sums on the horizons {f.T} and {g.T}")
    gf, gg = np.asarray(f.gammas), np.asarray(g.gammas)
    if gf.shape[:-1] != gg.shape[:-1] or (gf.shape[-1], gg.shape[-1]) != (len(f.rates), len(g.rates)):
        raise ValueError(f"gamma rows of shapes {gf.shape} and {gg.shape} on {len(f.rates)}, {len(g.rates)} rates")
    return ((gf @ _pair_kernel(f, g)) * gg).sum(axis=-1)


def square_integrals(s):
    """Exact ``\\int_0^T f(t)^2 dt`` of each row ``f`` of the :class:`ExpSum` ``s``, as a tuple of floats."""
    return tuple(np.real(product_integral(s, s)).tolist())
