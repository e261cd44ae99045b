"""Pontryagin optimal control for the smooth speed-transfer problem.

The drive ``xdot + x = u`` with ``n`` vanishing boundary derivatives is
lifted to the state chain ``(x_n, z_{n-1}, ..., z_1, z_0)`` where
``z_k = u^(k)`` and ``x_n = x^(n)``; the auxiliary control is
``v = u^(n)``.  Three solution routes live here:

* the impulsive limit: two instantaneous kicks bracketing the arc
  ``x(t) = sinh(t)/sinh(T)``, whose bare cost is ``coth(T)``, the global
  minimum of the problem;
* the generic linear-quadratic solver for any order ``n`` and energy
  weight ``lam > 0``, built on the closed-form modes of the state-adjoint
  flow;
* the first-order optimum at every weight ``lam > 0``, which is the
  exponential basis family of :mod:`lincontrol.sta` at rate
  ``k = 1/sqrt(lam)``; both its growing terms are anchored at ``T``, so it
  stays valid down to ``lam ~ 1e-12`` and at any horizon, and its controls
  and adjoints are algebraic in ``x``.

:func:`solve_regular` routes every regular problem by one rule: the
first-order optimum at ``n = 1``, the generic solver at every order
``n >= 2``.  All three routes hand the gamma rows a solution prints
(state, controls and adjoints) to :func:`~lincontrol.model.package_rows`,
which keeps them in a single gamma matrix; the exponential family of
``sta`` uses the same packaging without the adjoints.  Only the modal
solve has chain coordinates.  The packaging certifies each solution, so
every route meets its ``2n + 2`` boundary conditions or raises
:class:`~lincontrol.model.BoundaryResidual`.

The flow's modes are known in closed form: the Euler-Lagrange operator of
``int x^2 + xdot^2 + lam (x^(n+1) + x^(n))^2`` is
``(1 - D^2)(1 + lam (-1)^n D^(2n))``, so the rates are ``+-1`` and the
``2n`` roots of ``s^(2n) = (-1)^(n+1)/lam``, of modulus
``|mu| = lam^(-1/2n)``, and each eigenvector is read off the mode
``x = e^(st)``; no eigensolver runs in a solve.  The terminal propagator
mixes scales ``exp(+-|mu| T)``.  Solving the shooting system directly on
that propagator erases the sub-dominant information in float64 once
``|mu| T`` exceeds roughly 30; the solver therefore expands the two-point
problem in these modes, with growing modes anchored at ``t = T``, which
keeps the linear system's entries O(1) at any ``|mu| T``; it raises
:class:`ShootingSingular` where the modes are nearly dependent on
``[0, T]``: at small ``|mu| T``, and where rates coincide (``lam = 1`` at
odd ``n``).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .expsums import end_values
from .model import ControlProblem, Impulse, _real, package_rows, row_factors
# no solve calls eigendecompose; the benchmark's span table binds it on this module
from .numerics import NumericsError, Overflow, SingularMatrix, eigendecompose, solve_linear


class LambdaOutOfRange(ValueError):
    """Energy weight outside the domain of the requested solver path."""


class ShootingSingular(NumericsError):
    """The terminal shooting system is numerically singular."""


@lru_cache(maxsize=64)
def _x1_row(n):
    """Read-only row vector expressing x' in the chain coordinates, built once per order.

    ``x' = z_1 - z_2 + ... + (-1)^n z_{n-1} - (-1)^n x_n`` with the state
    ordered ``(x_n, z_{n-1}, ..., z_0)``; ``z_j`` sits at index ``n - j``.
    Its first ``n`` entries are all nonzero and the last, ``z_0``'s, is 0.
    The modal solve telescopes its chain coordinates into ``x``'s rows with it.
    """
    r1 = np.zeros(n + 1)
    for j in range(1, n):
        r1[n - j] = (-1.0) ** (j + 1)
    r1[0] += (-1.0) ** (n + 1)
    r1.setflags(write=False)
    return r1


@lru_cache(maxsize=64)
def _mode_tables(n):
    """Read-only tables of the order-``n`` flow's exact modes, built once per order.

    Returns ``(fast, j, units, adjoint)``.  Mode ``i`` has the rate
    ``s_i = rho_i e^(i theta_i)``: ``rho_i = 1`` for the slow rates ``-1``
    and ``1`` (the first two), and ``rho_i = U^(-1/2n)`` where ``fast[i]``,
    whose angles give the ``2n`` roots of ``s^(2n) = (-1)^(n+1)/U``.  Each
    complex pair is built with ``conj``, and the real roots of odd ``n`` are
    exactly real.  ``units[0, j, i] = e^(i j theta_i)`` for the column ``j =
    0..n`` and ``units[1]`` is its conjugate, so ``s^(+-j) = rho^(+-j)
    units[0 or 1, j]``; the two are one array, so one gather sorts both.

    ``adjoint[i - 1, m]`` is the coefficient of ``s^-m`` in the adjoint
    ``p_i`` (i = 1..n) of the mode ``x = e^(st)``: rows ``n`` down to 1 of
    ``(s I + A^T) p = W s_vec``, back-substituted through the bidiagonal
    ``A^T``, whose chain steps ``A[i + 1, i]`` are all 1.  The mode has ``x =
    1`` and ``x' = s``, so ``W s_vec = r0 + s r1`` exactly, with the rows
    ``r0`` and ``r1`` that build ``W``.
    """
    j = np.arange(n + 1)[:, None]
    upper = np.exp(1j * j * (np.pi / (2 * n) * np.arange(1 + n % 2, 2 * n, 2)))
    real = np.array([-1.0, 1.0, -1.0, 1.0] if n % 2 else [-1.0, 1.0])
    unit = np.hstack([real**j, upper, upper.conj()])
    fast = np.arange(unit.shape[1]) >= 2
    r1 = _x1_row(n)
    r0 = -r1
    r0[n] += 1.0
    adjoint = np.zeros((n + 1, n + 1))  # row i: p_i, row 0 unused
    for i in range(n, 0, -1):
        # p_i = ((W s_vec)_i - p_(i+1)) / s
        adjoint[i, 0] = r1[i]
        adjoint[i, 1] = r0[i]
        if i < n:
            adjoint[i, 1:] -= adjoint[i + 1, :-1]
    arrays = (fast, j, np.stack([unit, unit.conj()]), adjoint[1:])
    for a in arrays:
        a.setflags(write=False)
    return arrays


def build_lq(n, lam, T=1.0):
    """The order-``n`` transfer problem as a :class:`ControlProblem` with a positive weight.

    A weight that is not a finite positive real (a bool, a string or a
    complex number is none) raises :class:`LambdaOutOfRange`; the record
    refuses an order or a horizon that it does not accept.
    """
    if not 0.0 < _real(lam) < np.inf:
        raise LambdaOutOfRange(f"energy weight must be finite and positive, got {lam}")
    return ControlProblem(T=T, n=n, lam=lam)


class PontryaginFlow:
    """The coupled state-adjoint flow of a :class:`ControlProblem`, known by its modes.

    The order-``n`` chain obeys ``sdot = A s + B v`` and costs ``int (s^T W s
    + U v^2) dt`` at the weight ``U``; the adjoint obeys ``pdot = W s - A^T
    p`` and ``v = B^T p / U``.  The state cost is ``W = r0^T r0 + r1^T r1``
    with ``r1`` the row realising ``x'`` (:func:`_x1_row`) and ``r0 = e_{z0}
    - r1``, so that ``s^T W s = x^2 + xdot^2``.  Eliminating the adjoint
    gives the Euler-Lagrange operator ``(1 - D^2)(1 + U (-1)^n D^(2n))`` on
    ``x``, so the rates are ``+-1`` and the ``2n`` roots of ``s^(2n) =
    (-1)^(n+1)/U``, and each eigenvector is read off the mode ``x = e^(st)``
    (see :meth:`spectrum`).  No flow matrix is formed, so a weight whose
    inverse overflows reaches the modal solve without a floating-point
    warning.  :attr:`term_ends` is ``None`` until a modal system is built on
    the flow, and then the modes' :func:`~lincontrol.expsums.end_values`
    that it was built from, which the packaging reads.
    """

    def __init__(self, problem):
        self.problem = problem
        self.term_ends = None

    def spectrum(self):
        """Exact eigenpairs ``(w, V)`` of the flow, sorted by real part, then imaginary part.

        Mode ``i`` is ``x = e^(s_i t)`` at the rates of :func:`_mode_tables`,
        with ``s^(+-j) = rho^(+-j) e^(+-i j theta)``.  Its state column is
        ``(s^n, s^(n-1) (1 + s), .., 1 + s)``, its adjoints ``p_1 .. p_n`` are
        the table's back-substituted coefficients on ``s^0 .. s^-n``, and
        ``p_0`` closes the first row through the state equation ``p_0 + p_1
        = U s^n (1 + s)``, which stays well-defined at ``s = 1``, where the
        first adjoint row is singular.  Columns are scaled to unit
        max-magnitude.  Coincident rates (``U = 1`` at odd ``n``) give
        repeated columns, which the modal solve refuses.
        """
        n, U = self.problem.n, self.problem.lam
        if not math.isfinite(2.0 * U):
            # the slow mode s = 1 has p_0 = U s^n (1 + s) = 2 U
            raise Overflow(f"energy weight {U} is too large: the adjoint 2 lam of the mode s = 1 overflows")
        ns = n + 1
        fast, j, units, adjoint = _mode_tables(n)
        rho = np.where(fast, U ** (-1.0 / (2 * n)), 1.0)
        w = rho * units[0, 1]
        order = np.lexsort((w.imag, w.real))
        w, rho, (unit, unit_inv) = w[order], rho[order], units[:, :, order]
        rho_j, w1 = rho**j, 1.0 + w
        V = np.empty((2 * ns, 2 * ns), dtype=complex)
        np.multiply(rho_j[::-1], unit[::-1], out=V[:ns])  # s^n, s^(n-1), .., 1
        V[1:ns] *= w1
        np.matmul(adjoint, unit_inv / rho_j, out=V[ns + 1 :])
        V[ns] = U * V[0] * w1 - V[ns + 1]
        V /= np.abs(V).max(axis=0)
        return w, V


@lru_cache(maxsize=64)
def _modal_rhs(n):
    """The read-only right-hand side of the order-``n`` modal system, built once per order:
    the chain starts at rest and ends with ``z_0 = x + x' = 1``, every other coordinate 0."""
    rhs = np.zeros(2 * n + 2, dtype=complex)
    rhs[-1] = 1.0
    rhs.setflags(write=False)
    return rhs


def _modal_amplitudes(flow):
    """Two-point mode amplitudes with growth-safe anchoring.

    Unknowns are the amplitudes of the ``2 ns`` flow modes, each mode
    parametrised by its value at its :func:`~lincontrol.expsums.anchors`
    time: ``t = T`` for a growing mode, ``t = 0`` for the rest, so the
    amplitudes are the gammas of an :class:`~lincontrol.expsums.ExpSum`.
    The resulting linear system has O(1) entries regardless of the weight,
    so it stays solvable exactly where the naive terminal-block solve has
    already lost all significant digits.  Small ``|mu| T`` makes the modes
    nearly dependent instead, and the system fails the conditioning gate.
    The system's rows are the state columns times the modes'
    :func:`~lincontrol.expsums.end_values`, written into one array; those
    end values are kept on the flow as :attr:`PontryaginFlow.term_ends`,
    for the packaging.
    """
    T, n, lam = flow.problem
    ns = n + 1
    if not math.isfinite(max(1.0, lam ** (-1.0 / (2 * n))) * T):
        # the end values are exponentials of rate x horizon, and the fastest rate has modulus lam^(-1/2n)
        raise Overflow(f"rate x horizon of the modes overflows at weight {lam} and horizon T={T}")
    w, V = flow.spectrum()
    at0, atT = flow.term_ends = end_values(w, T)
    M = np.empty((2 * ns, 2 * ns), dtype=complex)
    np.multiply(V[:ns], at0, out=M[:ns])
    np.multiply(V[:ns], atT, out=M[ns:])
    try:
        c = solve_linear(M, _modal_rhs(n))
    except SingularMatrix as exc:
        raise ShootingSingular(f"modal system: {exc}") from exc
    return w, V, c


def _series_from_modes(flow):
    """Gamma rows of every trajectory quantity on the flow modes.

    Returns ``(rows, rates)``: one row per name of ``row_names(n,
    adjoints=True)`` on the mode ``rates``, each gamma the mode's value at
    the anchor :class:`~lincontrol.expsums.ExpSum` gives its rate, as
    :func:`_modal_amplitudes` parametrises the modes.  Only this route has
    chain coordinates: the amplitudes give the chain ``x_n, z_{n-1} ..
    z_0`` and the adjoints, and ``x``'s rows are telescoped from them, ``x'
    = r1 . state`` (see :func:`_x1_row`), ``x^(j+1) = z_j - x^(j)`` and ``x
    = z_0 - x'``.  The rows are written into one preallocated ``(3n + 3,
    modes)`` array: ``x'`` is one running sum from a complex zero over the
    weighted chain rows, in chain order, and each ``z_j`` enters its
    difference as ``z_j + 0.0``, which are the operations, in the same
    order, of adding each term to a complex zero.  The recurrence keeps its
    subtractions: a product with ``-1`` would turn an infinite gamma into
    NaN, and a negation can leave ``-0.0``.  The control uses the exact mode
    identity ``v_i = mu_i * (z_{n-1} component)`` from ``zdot_{n-1} = v``,
    avoiding the ``(p_a + p_b)/lam`` cancellation.
    """
    n = flow.problem.n
    w, V, c = _modal_amplitudes(flow)
    state = c * V[: n + 1]
    rows = np.empty((3 * n + 3, len(w)), dtype=complex)
    terms = np.zeros((n + 1, len(w)), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        # x' weighs x_n, z_{n-1} .. z_1; z_0's weight is 0
        np.multiply(_x1_row(n)[:n, None], state[:n], out=terms[1:])
        rows[1] = np.add.accumulate(terms)[-1]
        chain = state[n:0:-1]  # z_0 .. z_{n-1}
        rows[n + 1 : 2 * n + 1] = chain
        z = chain + 0.0
        np.subtract(z[0], rows[1], out=rows[0])
        for j in range(1, n):
            np.subtract(z[j], rows[j], out=rows[j + 1])
    np.multiply(c * w, V[1], out=rows[2 * n + 1])
    np.multiply(c, V[n + 1 :], out=rows[2 * n + 2 :])
    return rows, w


#: the rates of the impulsive arc's terms, ``e^(t - T)`` and ``e^-t``
_ARC_RATES = np.array([1.0, -1.0])
#: the arc's row factors, the first-order optimum's at weight 0 on those rates
_ARC_FACTORS = row_factors(_ARC_RATES, 0.0)
_ARC_RATES.setflags(write=False)
_ARC_FACTORS.setflags(write=False)


def singular_solution(T=1.0):
    """Impulsive global optimum: kick, exponential arc, kick.

    The arc is ``x(t) = sinh(t)/sinh(T)`` with ``xdot = cosh(t)/sinh(T)``
    and control ``u = z_0 = e^t/sinh(T)``; the kicks at ``t = 0`` and
    ``t = T`` have areas ``1/sinh(T)`` and ``-1/tanh(T)`` and restore the
    endpoint conditions on ``xdot``.  On the arc the adjoints obey
    ``p_y = -xdot`` and ``p_z = +xdot``.  The bare cost is exactly
    ``coth(T)``; impulses are excluded from the integral.

    Its gamma rows are the first-order optimum's
    :func:`~lincontrol.model.row_factors` at weight 0 on the rates ``+-1``
    times ``x``'s gammas ``(grow, -decay)``, ``grow = e^T / (2 sinh T)``
    and ``decay = grow e^-T``.  A non-finite cost or coefficient raises
    :class:`~lincontrol.numerics.Overflow`.  The gammas grow like ``1/(2T)``,
    so ``x(T) - 1`` and the kicked ``x'`` lose digits at short horizons
    (``x(0) = 0`` holds exactly); from horizons of about ``1e-8`` down the
    packaging's certificate refuses the arc with
    :class:`~lincontrol.model.BoundaryResidual`.
    """
    problem = ControlProblem(T=T, n=1, lam=0.0)
    T = problem.T
    with np.errstate(over="ignore", invalid="ignore"):
        # sinh overflows to inf beyond T ~ 710, where 1/sinh(T) correctly rounds
        # to 0; below T ~ 5.6e-309 the kicks, the cost and 2 grow overflow, and
        # below T ~ 2.8e-309 grow and decay do, and the factor 0 times decay is
        # NaN: the packaged solution is then refused for its non-finite cost
        a1 = float(1.0 / np.sinh(T))
        coth = float(1.0 / np.tanh(T))
        grow = float(1.0 / -np.expm1(-2.0 * T))  # e^T / (2 sinh T), overflow-safe
        decay = grow * np.exp(-T)  # = 1/(2 sinh T); this form cancels exactly in x(0)
        rows = _ARC_FACTORS * (grow, -decay)  # x, x', z, v, p_y, p_z
    return package_rows(
        problem, "oct-singular", rows, rates=_ARC_RATES, term_ends=end_values(_ARC_RATES, T),
        impulses=(Impulse(0.0, a1), Impulse(T, -coth)), cost_override=coth,
    )


def solve_regular(problem):
    """Solve a :class:`ControlProblem` of positive weight and package the protocol.

    This is the one place that chooses the route of a regular problem.  At
    first order the optimum at every weight is the exponential family,
    :func:`regular_order1_analytic`.  Every order ``n >= 2`` takes the
    two-point mode expansion (see module docstring), whose trajectory
    quantities and cost are exact exponential sums of the flow modes.  A
    weight of 0, which a :class:`ControlProblem` may carry, raises
    :class:`LambdaOutOfRange`.
    """
    if problem.lam <= 0:
        raise LambdaOutOfRange(f"energy weight must be positive, got {problem.lam}")
    if problem.n == 1:
        return regular_order1_analytic(problem.lam, problem.T)
    flow = PontryaginFlow(problem)
    rows, rates = _series_from_modes(flow)
    return package_rows(problem, "oct-higher", rows, rates, term_ends=flow.term_ends)


def regular_order1_analytic(lam, T=1.0):
    """First-order optimal protocol: the exponential basis family at ``k = 1/sqrt(lam)``.

    At every weight ``lam > 0`` the fast rates ``+-k`` are real, and the
    optimum is ``x = a e^t + b e^-t + c e^{kt} + d e^-kt``, the member of
    :func:`lincontrol.sta.build_exponential` that meets the four boundary
    conditions.  Both growing terms are anchored at ``T``, so the evaluation
    stays in range down to ``lam ~ 1e-12`` and at any horizon.  Near
    ``lam = 1`` the fast rates approach the slow ones and the family raises
    :class:`~lincontrol.sta.DegenerateBasis`.  Controls and adjoints are
    algebraic in ``x``; they are the family's
    :meth:`~lincontrol.sta.ExponentialAnsatz.rows` at this weight.  ``sta
    exp`` at the same rate packages the first four of those rows, so both
    print the same trajectory bits.
    """
    from .sta import build_exponential

    problem = build_lq(1, lam, T)
    family = build_exponential(1.0 / math.sqrt(problem.lam), problem.T)
    x = family.x
    a, b, _, d = family.offset.tolist()
    fit = dict(rate_fast=family.k, x_coef_slow_neg=b, x_coef_slow_pos=a, x_coef_fast_neg=d,
               x_coef_fast_pos_anchored=float(x.gammas[2]))
    return package_rows(problem, "oct-regular", family.rows(problem.lam), x.rates, term_ends=family.term_ends,
                        coefficients=fit)


def fit_exponential_arc(ts, values):
    """Least-squares amplitude of ``Z e^t`` plus the max relative deviation; times
    and values of different shapes raise ``ValueError`` naming both shapes, and
    values with no nonzero entry, none at all included, which fit no arc, name theirs."""
    ts = np.asarray(ts, dtype=float)
    values = np.asarray(values, dtype=float)
    if ts.shape != values.shape:
        raise ValueError(f"times of shape {ts.shape} and values of shape {values.shape} differ")
    if not values.any():
        raise ValueError(f"values of shape {values.shape} have no nonzero entry to fit")
    e = np.exp(ts)
    Z = float(values @ e / (e @ e))
    dev = float(np.abs(values - Z * e).max() / np.abs(Z * e).max())
    return Z, dev


def singular_consistency_check(sol, window=None):
    """Max relative deviation of the interior control from a pure ``Z e^t`` arc.

    On the impulsive-limit arc every ``z_k`` and the auxiliary control
    collapse onto the same exponential, so the fit target does not depend on
    the order.  At first order the auxiliary control ``v`` itself is
    fitted; at higher orders it carries enormous oscillatory boundary layers
    (they deliver the extra derivative conditions), so the physical control
    ``u = z_0`` is the meaningful interior representative.  Only that one
    row is evaluated, on 161 evenly spaced times of the window, which
    defaults to ``(0.1 T, 0.9 T)``.  Its ends are read by
    :class:`~lincontrol.model.ControlProblem`'s rule, so a window that is
    not two reals (a string, ``None``, a complex number, a scalar or a
    sequence of another length) raises ``ValueError`` naming it, as a window
    outside ``(0, T)`` does.
    """
    T = sol.problem.T
    if window is None:
        window = (0.1 * T, 0.9 * T)
    try:
        ta, tb = map(_real, window)
    except (TypeError, ValueError):  # not iterable, or not two items
        ta = tb = np.nan
    if not 0.0 < ta < tb < T:
        raise ValueError(f"window {window} must lie inside (0, {T})")
    ts = np.linspace(ta, tb, 161)
    _, dev = fit_exponential_arc(ts, sol.trajectory(ts, "v" if sol.problem.n == 1 else "u")[0])
    return dev
