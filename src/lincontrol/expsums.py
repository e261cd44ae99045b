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

import math
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


def _term_table(rates, T, t):
    # the one term table exp(s (t - tau)) of the array rates at the float array t,
    # shaped (terms,) + t.shape: real_values sums it, and end_values is its view at t = (0, T)
    per_term = (-1,) + (1,) * t.ndim
    return np.exp(rates.reshape(per_term) * (t - anchors(rates, T).reshape(per_term)))


def end_values(rates, T):
    """Each term's value per unit gamma at ``t = 0`` and ``t = T``, as the two rows of a ``(2, terms)`` array.

    The array is the transpose of the ``(terms, 2)`` term table that
    :func:`real_values` sums at ``t = (0, T)``, the same expression, so
    :func:`term_sums` of gamma rows on ``end_values(rates, T).T`` gives the
    bits of :func:`real_values` at the two ends without a second ``np.exp``.
    """
    return _term_table(rates, T, np.array([0.0, T])).T


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
    over a ``(terms,) + t.shape`` table (real when every rate is real), the
    one that :func:`end_values` views at the two ends, and :func:`term_sums`
    adds the rows' terms on it.
    """
    gammas, rates, T = s
    return term_sums(gammas, _term_table(np.asarray(rates), T, np.asarray(t, dtype=float)))


def term_sums(gammas, e):
    """Real parts of the gamma rows ``gammas`` on the term table ``e``, shaped ``(rows,) + e.shape[1:]``
    (``e.shape[1:]`` for a single row).

    ``e[i]`` holds term ``i``'s exponential at every time, as
    :func:`real_values` forms it; ``e`` is only read.  The terms are added
    one at a time, in term order and from ``+0.0``, so a row's bits do not
    depend on how many rows are stacked with it or on the shape of the
    times.  For at most :data:`FEW_POINTS` times, or a complex stack of at
    most :data:`FEW_COMPLEX_CELLS` rows x times, the products form one
    ``(terms, rows) + times`` array whose running sum
    (``np.add.accumulate``, never a pairwise reduction) adds them in that
    same order; larger tables form each term's products in two
    preallocated buffers and add them to the result.  Both kernels
    give the same bits, and each is the faster one on its side of the
    limit.  Complex products are written out in real arithmetic so that a
    value rounds the same for scalar and array times: numpy's vectorised
    complex multiply may fuse multiply-adds.  When every term and gamma is
    real the imaginary products, all exact zeros, are skipped; that leaves
    every bit alone because ``x - 0.0 == x`` and the sum never becomes
    ``-0.0``.  A stack is real when the dtypes of both are: complex gammas
    with zero imaginary parts on a real table take the complex kernel, whose
    imaginary products are exact zeros too, and give the same bits.  Gamma
    rows whose length is not the number of terms raise ``ValueError``.
    """
    g = np.asarray(gammas)
    # real gammas stay real: their imaginary parts would all be +0.0
    complex_gammas = g.dtype.kind == "c"
    g = np.asarray(g, dtype=complex if complex_gammas else float)
    if g.shape[-1:] != e.shape[:1]:
        raise ValueError(f"gamma rows of shape {g.shape} on {e.shape[:1]} rates")
    lead, times = g.shape[:-1], e.shape[1:]
    g = g.reshape((-1,) + e.shape[:1] + (1,) * len(times))
    rows, points = len(g), math.prod(times)
    real = e.dtype.kind != "c" and not complex_gammas
    if points <= FEW_POINTS or (not real and rows * points <= FEW_COMPLEX_CELLS):
        g = g.swapaxes(0, 1)
        e = e[:, None]
        terms = g.real * e if real else g.real * e.real - g.imag * e.imag
        terms[0] += 0.0
        return np.add.accumulate(terms)[-1].reshape(lead + times)
    shape = (rows,) + times
    out, product, imag = np.zeros(shape), np.empty(shape), np.empty(shape)
    for i in range(len(e)):
        np.multiply(g.real[:, i], e.real[i], out=product)
        if not real:
            product -= np.multiply(g.imag[:, i], e.imag[i], out=imag)
        out += product
    return out.reshape(lead + times)


def _pair_kernel(f, g):
    # K[i, j] = \int_0^T exp(si (t - taui)) exp(sj (t - tauj)) dt over the
    # terms of f and g on f's horizon T: (exp(qi + qj) - exp(-P)) / (si + sj)
    # with P = si taui + sj tauj and each term's own exponent at T, q = s T -
    # s tau = s (T - tau).  Both stay bounded because anchors() gives every
    # growing rate tau = T, where q is exactly 0.  The pair's exponent is the
    # sum of the two q, not S T - P: that difference of two rounded products
    # leaves a residue of an ulp of S T, which overflows np.exp past |S| T ~ 1e16.
    T = f.T
    si, sj = np.asarray(f.rates), np.asarray(g.rates)
    pi = si * anchors(si, T)
    qi = si * T - pi
    # the two operands of a square share their rates, and so their anchors and exponents
    pj = pi if g.rates is f.rates else sj * anchors(sj, T)
    qj = qi if g.rates is f.rates else sj * T - pj
    S = si[:, None] + sj[None, :]
    P = pi[:, None] + pj[None, :]
    ST = S * T
    near = np.abs(S) * T < 1e-8
    decay = np.exp(-P)
    # near-cancelling rate pairs take the series for (exp(S T) - 1)/S, and
    # every other pair the exact quotient, written over the series, so no
    # near-zero S is a divisor
    K = decay * T * (1.0 + ST / 2.0 + ST * ST / 6.0)
    np.divide(np.exp(qi[:, None] + qj[None, :]) - decay, S, out=K, where=~near)
    return K


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
    """Exact ``\\int_0^T f(t)^2 dt`` of each row ``f`` of the :class:`ExpSum` ``s``, as a tuple of floats.

    The quadratic form of :func:`product_integral` with ``s`` as both
    operands, in its arithmetic, without its operand checks: a sum shares
    its horizon, rows and rates with itself.
    """
    g = np.asarray(s.gammas)
    return tuple(np.real(((g @ _pair_kernel(s, s)) * g).sum(axis=-1)).tolist())
