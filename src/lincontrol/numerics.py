"""Dense linear-algebra and quadrature kernels shared by every solver module.

All kernels operate on plain NumPy arrays and are pure functions of their
inputs, so they are safe to call concurrently.  LAPACK does the heavy
lifting through ``numpy.linalg`` (``scipy.linalg`` only inside
:func:`mat_exp`, so importing the package and solving does not load
scipy); these wrappers pin down input validation,
deterministic ordering, and failure behaviour so that results are
reproducible byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class NumericsError(Exception):
    """Base class for kernel failures."""


class SingularMatrix(NumericsError):
    """A linear system is too ill-conditioned to solve."""


class NoConvergence(NumericsError):
    """The eigenvalue iteration hit its cap without converging."""


class DefectiveMatrix(NumericsError):
    """Eigenvector matrix too ill-conditioned to be trusted."""


class Overflow(NumericsError):
    """A result entry left the representable range."""


class NonFiniteSample(NumericsError):
    """An integrand returned NaN or infinity."""


class NotPositiveDefinite(NumericsError):
    """A Cholesky pivot was not strictly positive."""


#: conditioning cap on the column-scaled matrix in :func:`solve_linear`
SOLVE_COND_CAP = 1e14

#: conditioning cap on the eigenvector matrix in :func:`eigendecompose`
EIGVEC_COND_CAP = 1e12


def _as_square(A, name="A"):
    A = np.asarray(A, dtype=complex if np.iscomplexobj(A) else float)
    if A.ndim != 2 or A.shape[0] < 1 or A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be a non-empty square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError(f"{name} contains non-finite entries")
    return A


def solve_linear(A, b):
    """Solve ``A x = b`` for a dense square system behind a conditioning gate.

    Parameters
    ----------
    A : (m, m) array_like
        Square coefficient matrix with finite entries, real or complex.
    b : (m,) or (m, k) array_like
        Right-hand side(s).

    Returns
    -------
    ndarray
        Solution with the same trailing shape as ``b``.

    Raises
    ------
    SingularMatrix
        If a column of ``A`` is zero, or if the 2-norm condition number of
        ``A`` with every column scaled to unit max-magnitude is
        ``SOLVE_COND_CAP`` or above.  The scaling is per column because
        boundary systems mix column scales across hundreds of orders of
        magnitude and are still perfectly solvable.
    """
    A = _as_square(A)
    b = np.asarray(b)
    if b.shape[0] != A.shape[0]:
        raise ValueError(f"b has length {b.shape[0]}, expected {A.shape[0]}")
    scale = np.abs(A).max(axis=0)
    if not np.all(scale > 0):
        raise SingularMatrix(f"column {int(np.argmin(scale))} is zero")
    cond = np.linalg.cond(A / scale)
    if not cond < SOLVE_COND_CAP:
        raise SingularMatrix(f"column-scaled condition number {cond:.3e} >= {SOLVE_COND_CAP:.0e}")
    return np.linalg.solve(A, b)


@dataclass(frozen=True)
class ComplexSpectrum:
    """Eigen-decomposition with deterministic ordering.

    ``eigenvalues[i]`` pairs with column ``eigenvectors[:, i]``; columns are
    normalised to unit infinity-norm.  ``residuals[i]`` stores
    ``|A v - mu v|`` for the pair as computed at construction time, so the
    quality of each pair can be asserted against the tolerance
    ``1e-10 * (1 + |mu|) * |v|`` where the caller needs it.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residuals: np.ndarray

    def reconstruct(self):
        """Return ``V diag(mu) V^-1``, which approximates the original matrix."""
        V = self.eigenvectors
        return (V * self.eigenvalues) @ np.linalg.inv(V)

    def residual_bounds(self):
        """Per-pair residual tolerances ``1e-10 * (1 + |mu|)`` (unit vectors)."""
        return 1e-10 * (1.0 + np.abs(self.eigenvalues))


def eigendecompose(A):
    """Eigenvalues and eigenvectors of a square diagonalizable matrix.

    Pairs are sorted by real part, then imaginary part, so output is
    reproducible across runs and platforms.

    Raises
    ------
    NoConvergence
        If the QR iteration fails to converge.
    DefectiveMatrix
        If the eigenvector matrix condition number exceeds
        ``EIGVEC_COND_CAP``.
    """
    A = _as_square(A)
    try:
        w, V = np.linalg.eig(A)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    order = np.lexsort((w.imag, w.real))
    w = w[order]
    V = V[:, order]
    scale = np.abs(V).max(axis=0)
    V = V / scale
    cond = np.linalg.cond(V)
    if not np.isfinite(cond) or cond > EIGVEC_COND_CAP:
        raise DefectiveMatrix(f"eigenvector condition number {cond:.3e}")
    residuals = np.linalg.norm(A @ V - V * w, axis=0)
    return ComplexSpectrum(eigenvalues=w, eigenvectors=V, residuals=residuals)


def mat_exp(A, t=1.0):
    """Matrix exponential ``exp(A t)`` by scaling-and-squaring with Pade.

    Raises
    ------
    Overflow
        If any entry of the result leaves the representable range.  Callers
        hitting this at small regularization weights should switch to an
        anchored path (the modal solver or the exponential family) instead
        of retrying.
    """
    import scipy.linalg

    A = _as_square(A)
    if t == 0.0:
        return np.eye(A.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        E = scipy.linalg.expm(A * float(t))
    if not np.all(np.isfinite(E)):
        raise Overflow(f"exp(A t) entries exceed float range for t={t}")
    return E


@lru_cache(maxsize=64)
def _leggauss(nodes):
    return np.polynomial.legendre.leggauss(nodes)


def gauss_legendre(nodes, a=-1.0, b=1.0):
    """Gauss-Legendre abscissae and weights mapped to ``[a, b]``."""
    if nodes < 2:
        raise ValueError(f"need at least 2 nodes, got {nodes}")
    x, w = _leggauss(int(nodes))
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return mid + half * x, half * w


def integrate(f, a, b, nodes=64):
    """Integrate ``f`` over ``[a, b]`` with an ``nodes``-point Gauss rule.

    Exact (to roundoff) for polynomials of degree up to ``2 * nodes - 1``.
    ``f`` may accept arrays; scalar-only callables are looped over.  An
    array-valued ``f`` may also return a stack of integrands along a leading
    axis; they are integrated row by row and returned as an array.

    Raises
    ------
    NonFiniteSample
        If ``f`` returns NaN or infinity at any node.
    """
    if not a < b:
        raise ValueError(f"need a < b, got a={a}, b={b}")
    x, w = gauss_legendre(nodes, a, b)
    try:
        y = np.asarray(f(x), dtype=float)
        if y.shape[-1:] != x.shape:
            raise TypeError
    except (TypeError, ValueError):
        y = np.array([float(f(xi)) for xi in x])
    if not np.all(np.isfinite(y)):
        raise NonFiniteSample("integrand returned NaN/Inf")
    # one dot product per row, so each integral rounds as it would alone
    return float(w @ y) if y.ndim == 1 else np.array([w @ row for row in y])


def minimize_quadratic(Q, g):
    """Minimise ``p^T Q p + 2 g^T p`` for symmetric positive definite ``Q``.

    A Cholesky factorisation confirms positive definiteness; the minimiser
    then solves ``Q p = -g`` through :func:`solve_linear` and its
    conditioning gate.  A zero-dimensional ``Q`` (no free parameters)
    returns an empty vector.

    Raises
    ------
    NotPositiveDefinite
        If any Cholesky pivot is non-positive.
    SingularMatrix
        If ``Q`` is positive definite but too ill-conditioned to solve.
    """
    Q = np.asarray(Q, dtype=float)
    g = np.asarray(g, dtype=float).reshape(-1)
    if Q.size == 0:
        return np.zeros(0)
    Q = _as_square(Q, "Q")
    if g.shape[0] != Q.shape[0]:
        raise ValueError(f"g has length {g.shape[0]}, expected {Q.shape[0]}")
    if not np.allclose(Q, Q.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(Q).max())):
        raise ValueError("Q must be symmetric")
    try:
        np.linalg.cholesky(Q)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc
    return solve_linear(Q, -g)
