"""Dense linear-algebra and quadrature kernels shared by every solver module.

All kernels operate on plain NumPy arrays and are pure functions of their
inputs, so they are safe to call concurrently.  LAPACK does the heavy
lifting through ``numpy.linalg``, the package's only runtime dependency;
these wrappers pin down input validation, deterministic ordering, and
failure behaviour so that results are reproducible byte-for-byte.
"""

from __future__ import annotations

import math
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


#: conditioning cap on the column-scaled matrix in :func:`solve_linear`
SOLVE_COND_CAP = 1e14

#: conditioning cap on the eigenvector matrix in :func:`eigendecompose`
EIGVEC_COND_CAP = 1e12

#: cap on cond(A) in :func:`minimize_quadratic`; the least-squares error is
#: about 1e-17 cond(A), so the minimiser keeps at least eight digits below it
LSQ_COND_CAP = 1e8


def _as_square(A):
    """``A`` as a float or complex array, refused with ``ValueError`` unless it is a non-empty square matrix."""
    A = np.asarray(A)
    # complex exactly when np.iscomplexobj(A) is, read off the dtype
    A = np.asarray(A, dtype=complex if A.dtype.kind == "c" else float)
    if A.ndim != 2 or A.shape[0] < 1 or A.shape[0] != A.shape[1]:
        raise ValueError(f"A must be a non-empty square matrix, got shape {A.shape}")
    return A


def _count(value, name, least):
    """``value`` as an ``int`` if it is an integer ``>= least`` (numpy's counts, a bool does not),
    else ``ValueError`` naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def _cond(A):
    """2-norm condition number ``s_max/s_min`` of a finite, non-zero matrix.

    The value ``np.linalg.cond`` returns, from the singular values alone and
    in Python floats, so a zero ``s_min`` or an overflowing ratio reads as
    ``inf`` without a warning.
    """
    s = np.linalg.svd(A, compute_uv=False)
    s_max, s_min = float(s[0]), float(s[-1])
    return s_max / s_min if s_min > 0 else math.inf


def solve_linear(A, b):
    """Solve ``A x = b`` for a dense square system behind a conditioning gate.

    Parameters
    ----------
    A : (m, m) array_like
        Square coefficient matrix with finite entries, real or complex.
    b : (m,) or (m, k) array_like
        Right-hand side(s) with finite entries.

    Returns
    -------
    ndarray
        Solution with the same trailing shape as ``b``.

    Raises
    ------
    ValueError
        If ``A`` is not a non-empty square matrix, ``b`` is not of shape
        ``(m,)`` or ``(m, k)``, or either holds a NaN or an infinity.
    SingularMatrix
        If a column of ``A`` is zero, or if the 2-norm condition number of
        ``A`` with every column scaled to unit max-magnitude is
        ``SOLVE_COND_CAP`` or above.  The scaling is per column because
        boundary systems mix column scales across hundreds of orders of
        magnitude and are still perfectly solvable.  The condition number
        is ``s[0]/s[-1]`` from one singular-value-only SVD (the value of
        ``np.linalg.cond``); a zero ``s[-1]`` reads as ``inf``.
    """
    A = _as_square(A)
    scale = np.abs(A).max(axis=0)
    columns = scale.tolist()
    # a NaN or an infinity in A reaches its column's scale, and so the sum of
    # the scales, none of which is negative; so do a finite complex entry
    # whose modulus overflows and finite scales whose sum overflows, which
    # only the entries tell apart
    if not math.isfinite(sum(columns)) and not np.isfinite(A).all():
        raise ValueError("A contains non-finite entries")
    b = np.asarray(b)
    m = A.shape[0]
    if b.ndim not in (1, 2) or b.shape[0] != m:
        raise ValueError(f"b must have shape ({m},) or ({m}, k), got {b.shape}")
    if not np.isfinite(b).all():
        raise ValueError("b contains non-finite entries")
    # no scale is NaN here, so the smallest is positive exactly when every one is
    if not min(columns) > 0:
        raise SingularMatrix(f"column {int(np.argmin(scale))} is zero")
    cond = _cond(A / scale)
    if not cond < SOLVE_COND_CAP:
        raise SingularMatrix(f"column-scaled condition number {cond:.3e} >= {SOLVE_COND_CAP:.0e}")
    return np.linalg.solve(A, b)


def eigendecompose(A):
    """Eigenvalues and eigenvectors of a square diagonalizable matrix, as ``(w, V)``.

    ``w[i]`` pairs with column ``V[:, i]``, and the columns are normalised to
    unit infinity-norm.  Pairs are sorted by real part, then imaginary part,
    so output is reproducible across runs and platforms.

    Raises
    ------
    NoConvergence
        If the QR iteration fails to converge.
    DefectiveMatrix
        If the eigenvector matrix condition number exceeds
        ``EIGVEC_COND_CAP``.
    """
    A = _as_square(A)
    if not np.isfinite(A).all():
        raise ValueError("A contains non-finite entries")
    try:
        w, V = np.linalg.eig(A)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    order = np.lexsort((w.imag, w.real))
    w = w[order]
    V = V[:, order]
    scale = np.abs(V).max(axis=0)
    V = V / scale
    cond = _cond(V)
    if not np.isfinite(cond) or cond > EIGVEC_COND_CAP:
        raise DefectiveMatrix(f"eigenvector condition number {cond:.3e}")
    return w, V


@lru_cache(maxsize=64)
def _leggauss(nodes):
    rule = np.polynomial.legendre.leggauss(nodes)
    for a in rule:
        a.setflags(write=False)
    return rule


def gauss_legendre(nodes, a=-1.0, b=1.0):
    """Gauss-Legendre abscissae and weights mapped to ``[a, b]``.

    ``nodes`` must be an integer ``>= 2`` (a numpy integer counts, a bool
    does not), or ``ValueError`` is raised.
    """
    x, w = _leggauss(_count(nodes, "nodes", 2))
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return mid + half * x, half * w


def integrate(f, a, b, nodes=64):
    """Integrate ``f`` over ``[a, b]`` with an ``nodes``-point Gauss rule.

    Exact (to roundoff) for polynomials of degree up to ``2 * nodes - 1``.
    ``f`` is called once, on the array of nodes, and returns its values
    there, or a stack of integrands along a leading axis; a stack is
    integrated row by row and returned as an array.

    ``a`` and ``b`` may instead be equal-length 1-D arrays of panel ends.
    ``f`` is then called once, on the flat array of every panel's nodes, and
    the result gains a trailing panel axis: ``(panels,)``, or ``(rows,
    panels)`` for a stack.  Each row and panel is one dot product of a single
    stacked ``matmul``, so it rounds exactly as ``np.dot`` on that panel alone.

    Raises
    ------
    ValueError
        If ``a < b`` fails on some panel, the panel arrays are empty or
        differ in shape, ``nodes`` is not an integer ``>= 2``, or ``f``
        returns no trailing axis of one value per node.
    NonFiniteSample
        If ``f`` returns NaN or infinity at any node.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim > 1 or a.size == 0:
        raise ValueError(f"need scalar or equal-length 1-D panel ends, got shapes {a.shape} and {b.shape}")
    if not (a < b).all():
        raise ValueError(f"need a < b, got a={a}, b={b}")
    x, w = gauss_legendre(nodes, a[..., None], b[..., None])
    y = np.asarray(f(x.ravel()), dtype=float)
    if y.shape[-1:] != (x.size,):
        raise ValueError(f"integrand returned shape {y.shape} on {x.size} nodes")
    if not np.isfinite(y).all():
        raise NonFiniteSample("integrand returned NaN/Inf")
    # (rows, panels, 1, nodes) @ (panels, nodes, 1): one dot product per row and panel
    vals = (y.reshape(y.shape[:-1] + w.shape)[..., None, :] @ w[..., None])[..., 0, 0]
    return float(vals) if vals.ndim == 0 else vals


def minimize_quadratic(A, b):
    """Minimise the sum of squares ``|A p + b|^2`` by one thin SVD of ``A``.

    The minimiser ``p = -V ((U^T b) / s)`` never forms ``A^T A``, so it loses
    digits to cond(A), not to its square.  An ``A`` with no columns (no free
    parameters) returns an empty vector.

    Raises
    ------
    SingularMatrix
        If ``A`` has fewer rows than columns, its smallest singular value is
        zero, or cond(A) is ``LSQ_COND_CAP`` or above.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    if A.ndim != 2:
        raise ValueError(f"A must be a matrix, got shape {A.shape}")
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise ValueError("A and b must be finite")
    if b.shape[0] != A.shape[0]:
        raise ValueError(f"b has length {b.shape[0]}, expected {A.shape[0]}")
    if A.shape[1] == 0:
        return np.zeros(0)
    if A.shape[0] < A.shape[1]:
        raise SingularMatrix(f"{A.shape[0]} rows cannot fix {A.shape[1]} parameters")
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    if not s[0] < LSQ_COND_CAP * s[-1]:
        raise SingularMatrix(f"condition number of A >= {LSQ_COND_CAP:.0e}")
    return -Vt.T @ ((U.T @ b) / s)
