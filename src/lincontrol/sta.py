"""Inverse-engineered transfer protocols over three basis families.

The trajectory ``x(t)`` is postulated inside a finite function family
(powers of ``t``, quarter-wave sines, or real exponentials), the four
first-order boundary conditions are eliminated exactly, and the remaining
free parameters are fixed by minimising the running cost.  Because ``x``
is affine in the free parameters the cost is an exact quadratic form, so
the minimisation is a single Cholesky solve on the Gram form rather than
an iterative search; tabulated coefficients are reproduced to all printed
digits.

The control is always recovered analytically as ``u = xdot + x``; each
family knows the derivatives of its own basis functions.
"""

from __future__ import annotations

import math
import string
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .expsums import ExpSum, square_integral
from .model import ControlProblem, InvalidOrder, ProtocolSolution, CostBreakdown, Trajectory
from .numerics import Overflow, SingularMatrix, minimize_quadratic, solve_linear


class DegenerateBasis(ValueError):
    """The exponential basis matrix is numerically singular (k near 1)."""


_KIND_TAGS = {
    "polynomial": "sta-poly",
    "trigonometric": "sta-trig",
    "exponential": "sta-exp",
}


@dataclass(frozen=True)
class GramForm:
    """Cost as an explicit quadratic ``C(p) = p^T Q p + 2 g^T p + c0``."""

    Q: np.ndarray
    g: np.ndarray
    c0: float

    @property
    def free_dim(self):
        return self.Q.shape[0] if self.Q.size else len(self.g)

    def value(self, p):
        p = np.asarray(p, dtype=float).reshape(-1)
        if p.size == 0:
            return self.c0
        return float(p @ self.Q @ p + 2.0 * self.g @ p + self.c0)


class AnsatzFamily:
    """A basis plus an affine map from free parameters to coefficients.

    ``coefficient_vector(p) = offset + free_map @ p`` satisfies all four
    boundary conditions for every ``p``; the constraints are eliminated once
    at construction time.
    """

    kind = "abstract"

    def __init__(self, T, offset, free_map, param_names):
        self.T = float(T)
        self.offset = np.asarray(offset, dtype=float)
        self.free_map = np.asarray(free_map, dtype=float).reshape(len(offset), -1)
        self.param_names = tuple(param_names)

    @property
    def free_dim(self):
        return self.free_map.shape[1]

    def coefficient_vector(self, params=()):
        p = np.asarray(params, dtype=float).reshape(-1)
        if p.size != self.free_dim:
            raise ValueError(f"expected {self.free_dim} free parameters, got {p.size}")
        return self.offset + self.free_map @ p

    def basis_value(self, j, t, order=0):
        raise NotImplementedError

    def x_value(self, coeffs, t, order=0):
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape)
        for j, c in enumerate(coeffs):
            out = out + c * self.basis_value(j, t, order)
        return float(out) if out.ndim == 0 else out

    @cached_property
    def _pairs(self):
        """Full-basis pair integrals for the state, derivative, and v parts (built once)."""
        raise NotImplementedError

    def gram(self, lam=0.0):
        Gs, Gd, Gc = self._pairs
        G = Gs + Gd + lam * Gc
        M = self.free_map
        Q = M.T @ G @ M
        g = M.T @ G @ self.offset
        c0 = float(self.offset @ G @ self.offset)
        return GramForm(Q=Q, g=np.asarray(g).reshape(-1), c0=c0)

    def cost_parts(self, coeffs):
        """(state, derivative, unweighted control-energy) integrals."""
        Gs, Gd, Gc = self._pairs
        a = np.asarray(coeffs, dtype=float)
        return float(a @ Gs @ a), float(a @ Gd @ a), float(a @ Gc @ a)

    def boundary_values(self, coeffs):
        """(x(0), x(T), x'(0), x'(T)) for a coefficient vector."""
        return (
            self.x_value(coeffs, 0.0, 0),
            self.x_value(coeffs, self.T, 0),
            self.x_value(coeffs, 0.0, 1),
            self.x_value(coeffs, self.T, 1),
        )


def _free_names(count):
    if count > len(string.ascii_lowercase):
        raise ValueError("too many free parameters to name")
    return tuple(string.ascii_lowercase[:count])


class PolynomialAnsatz(AnsatzFamily):
    """x(t) = sum_{k=2}^N a_k t^k with a_2, a_3 eliminated.

    ``x(0) = x'(0) = 0`` force the two lowest powers out; the endpoint pair
    ``x(T) = 1``, ``x'(T) = 0`` determines ``a_2, a_3`` from the free tail
    ``a_4 .. a_N``.
    """

    kind = "polynomial"

    def __init__(self, N, T=1.0):
        if N < 3:
            raise InvalidOrder(f"polynomial family needs N >= 3, got {N}")
        self.N = int(N)
        powers = list(range(2, N + 1))
        M2 = np.array([[T**2, T**3], [2 * T, 3 * T**2]])
        dep0 = solve_linear(M2, np.array([1.0, 0.0]))
        offset = np.concatenate([dep0, np.zeros(N - 3)])
        cols = []
        for k in range(4, N + 1):
            dep = solve_linear(M2, np.array([-(T**k), -k * T ** (k - 1)]))
            unit = np.zeros(N - 3)
            unit[k - 4] = 1.0
            cols.append(np.concatenate([dep, unit]))
        free_map = np.array(cols).T if cols else np.zeros((N - 1, 0))
        super().__init__(T, offset, free_map, _free_names(N - 3))
        self.powers = powers

    def basis_value(self, j, t, order=0):
        k = self.powers[j]
        if order > k:
            return np.zeros(np.shape(t))
        factor = math.perm(k, order)
        return factor * np.asarray(t, dtype=float) ** (k - order)

    @cached_property
    def _pairs(self):
        T = self.T
        ks = self.powers
        nb = len(ks)

        def moment(m):
            return T ** (m + 1) / (m + 1)

        Gs = np.array([[moment(ki + kj) for kj in ks] for ki in ks])
        Gd = np.array([[ki * kj * moment(ki + kj - 2) for kj in ks] for ki in ks])
        # v = x'' + x': two monomial terms per basis function
        terms = [((k * (k - 1), k - 2), (k, k - 1)) for k in ks]
        Gc = np.zeros((nb, nb))
        for i in range(nb):
            for j in range(nb):
                acc = 0.0
                for ci, pi in terms[i]:
                    for cj, pj in terms[j]:
                        if ci and cj:
                            acc += ci * cj * moment(pi + pj)
                Gc[i, j] = acc
        return Gs, Gd, Gc


def _quarter_sin(k):
    return (0, 1, 0, -1)[k % 4]


def _quarter_cos(k):
    return (1, 0, -1, 0)[k % 4]


class TrigonometricAnsatz(AnsatzFamily):
    """x(t) = sum_{k=1}^N a_k sin(k pi t / (2T)) with a_1..a_3 eliminated.

    ``x(0) = 0`` holds identically; the three remaining boundary conditions
    fix ``a_1, a_2, a_3`` in terms of the tail.  The two-parameter family
    (N = 5) is parametrised as ``a_4 = a - b``, ``a_5 = b`` so the free
    parameters carry the conventional names.
    """

    kind = "trigonometric"

    def __init__(self, N, T=1.0):
        if N < 3:
            raise InvalidOrder(f"trigonometric family needs N >= 3, got {N}")
        self.N = int(N)
        # rows: x'(0) = 0, x(T) = 1, x'(T) = 0  (common pi/2T factors dropped)
        M3 = np.array(
            [
                [1.0, 2.0, 3.0],
                [float(_quarter_sin(1)), float(_quarter_sin(2)), float(_quarter_sin(3))],
                [1.0 * _quarter_cos(1), 2.0 * _quarter_cos(2), 3.0 * _quarter_cos(3)],
            ]
        )
        dep0 = solve_linear(M3, np.array([0.0, 1.0, 0.0]))
        offset = np.concatenate([dep0, np.zeros(N - 3)])
        tail_cols = []
        for k in range(4, N + 1):
            rhs = -np.array([float(k), float(_quarter_sin(k)), float(k * _quarter_cos(k))])
            dep = solve_linear(M3, rhs)
            unit = np.zeros(N - 3)
            unit[k - 4] = 1.0
            tail_cols.append(np.concatenate([dep, unit]))
        cols = list(tail_cols)
        if N == 5:
            # free parameters (a, b) enter the tail as a4 = a - b, a5 = b
            cols = [tail_cols[0], tail_cols[1] - tail_cols[0]]
        free_map = np.array(cols).T if cols else np.zeros((N, 0))
        super().__init__(T, offset, free_map, _free_names(N - 3))
        self.omegas = [k * np.pi / (2.0 * T) for k in range(1, N + 1)]

    def basis_value(self, j, t, order=0):
        w = self.omegas[j]
        t = np.asarray(t, dtype=float)
        phase = order % 4
        trig = (np.sin, np.cos, lambda s: -np.sin(s), lambda s: -np.cos(s))[phase]
        return w**order * trig(w * t)

    @cached_property
    def _pairs(self):
        T = self.T
        w = self.omegas
        nb = len(w)

        def ss(wi, wj):
            if wi == wj:
                return T / 2.0 - np.sin(2 * wi * T) / (4 * wi)
            return np.sin((wi - wj) * T) / (2 * (wi - wj)) - np.sin((wi + wj) * T) / (
                2 * (wi + wj)
            )

        def cc(wi, wj):
            if wi == wj:
                return T / 2.0 + np.sin(2 * wi * T) / (4 * wi)
            return np.sin((wi - wj) * T) / (2 * (wi - wj)) + np.sin((wi + wj) * T) / (
                2 * (wi + wj)
            )

        def sc(wi, wj):
            # int sin(wi t) cos(wj t) dt on [0, T]
            out = (1 - np.cos((wi + wj) * T)) / (2 * (wi + wj))
            if wi != wj:
                out += (1 - np.cos((wi - wj) * T)) / (2 * (wi - wj))
            return out

        Gs = np.array([[ss(wi, wj) for wj in w] for wi in w])
        Gd = np.array([[wi * wj * cc(wi, wj) for wj in w] for wi in w])
        Gc = np.zeros((nb, nb))
        for i, wi in enumerate(w):
            for j, wj in enumerate(w):
                # v_i = -wi^2 sin(wi t) + wi cos(wi t)
                Gc[i, j] = (
                    wi**2 * wj**2 * ss(wi, wj)
                    - wi**2 * wj * sc(wi, wj)
                    - wj**2 * wi * sc(wj, wi)
                    + wi * wj * cc(wi, wj)
                )
        return Gs, Gd, Gc


class ExponentialAnsatz(AnsatzFamily):
    """x(t) = a e^t + b e^{-t} + c e^{kt} + d e^{-kt}, fully determined.

    The four boundary conditions consume all four coefficients, so there is
    no free parameter.  Coefficients come from
    :func:`exponential_coefficients_by_solve`, whose rescaled boundary
    system keeps every intermediate bounded for arbitrarily large ``k``; the
    growing term is stored in anchored form ``c_scaled * e^{k (t - T)}``
    with ``c_scaled = c e^{kT}``.  The attribute :attr:`x` is that anchored
    :class:`~lincontrol.expsums.ExpSum`: gammas ``(a, b, c_scaled, d)`` on
    rates ``(1, -1, k, -k)``; every derivative of ``x`` is a term-wise
    rescaling of it.
    The family is symmetric under ``k -> -k`` (``c`` and ``d`` swap), so
    ``k`` is normalised to its absolute value.
    """

    kind = "exponential"

    def __init__(self, k, T=1.0):
        k = abs(float(k))
        if not np.isfinite(k) or k == 0.0:
            raise ValueError(f"k must be finite and nonzero, got {k}")
        a, b, c_scaled, d = exponential_coefficients_by_solve(k, T)
        self.k = k
        self.c_scaled = c_scaled
        c = c_scaled * np.exp(-k * T) if k * T < 700 else c_scaled * 0.0
        super().__init__(T, np.array([a, b, c, d]), np.zeros((4, 0)), ())
        self.x = ExpSum(
            gammas=(a, b, c_scaled, d),
            rates=(1.0, -1.0, k, -k),
            shifts=(0.0, 0.0, T, 0.0),
        )

    def x_value(self, coeffs, t, order=0):
        # coeffs is always the stored vector (free_dim = 0); evaluate through
        # the anchored sum so large k cannot overflow
        return self.x.derivative(order).real_value(t) if order else self.x.real_value(t)

    def gram(self, lam=0.0):
        state, deriv, ctrl = self._squares
        return GramForm(Q=np.zeros((0, 0)), g=np.zeros(0), c0=state + deriv + lam * ctrl)

    def cost_parts(self, coeffs):
        # coeffs is always the stored vector (free_dim = 0)
        return self._squares

    @cached_property
    def _squares(self):
        """Exact (state, derivative, unweighted control-energy) integrals (built once)."""
        x = self.x
        xd = x.derivative(1)
        v = ExpSum(
            gammas=tuple(
                g * (r * r + r) for g, r in zip(x.gammas, x.rates)
            ),
            rates=x.rates,
            shifts=x.shifts,
        )
        return (
            square_integral(x, self.T),
            square_integral(xd, self.T),
            square_integral(v, self.T),
        )


def exponential_coefficients_by_solve(k, T=1.0):
    """(a, b, c_scaled, d) by a direct linear solve of the boundary system.

    The column multiplying ``c`` is rescaled by ``e^{-kT}`` so the system
    stays representable at large ``k``; the solved unknown is therefore
    ``c_scaled = c e^{kT}`` directly.

    Near ``k = 1`` the basis is nearly dependent and the coefficients grow
    like ``1 / |k - 1|``.  :class:`DegenerateBasis` is raised once a boundary
    sum cancels terms above ``1e7``, where rounding alone moves it by about
    ``1e-9``; at ``T = 1`` that is ``|k - 1|`` below about ``1.5e-6``.
    :class:`~lincontrol.numerics.Overflow` is raised when ``e^T`` itself is
    not representable (``T`` above about 709).
    """
    k = abs(float(k))
    with np.errstate(over="ignore"):
        eT = np.exp(T)
    if not np.isfinite(eT):
        raise Overflow(f"e^T overflows for horizon T={T}")
    ekT = np.exp(-k * T)
    B = np.array(
        [
            [1.0, 1.0, ekT, 1.0],
            [eT, np.exp(-T), 1.0, ekT],
            [1.0, -1.0, k * ekT, -k],
            [eT, -np.exp(-T), k, -k * ekT],
        ]
    )
    try:
        sol = solve_linear(B, np.array([0.0, 1.0, 0.0, 0.0]))
    except SingularMatrix as exc:
        raise DegenerateBasis(f"boundary system singular at k={k}: {exc}") from exc
    cancellation = np.abs(B * sol).sum(axis=1).max()
    if not cancellation <= 1e7:
        raise DegenerateBasis(
            f"boundary system near-singular at k={k}, T={T}: terms of {cancellation:.3g} cancel"
        )
    return tuple(sol)


def build_polynomial(N, T=1.0):
    """Polynomial family of order ``N`` (``N - 3`` free parameters)."""
    return PolynomialAnsatz(N, T)


def build_trigonometric(N, T=1.0):
    """Quarter-wave sine family of order ``N`` (``N - 3`` free parameters)."""
    return TrigonometricAnsatz(N, T)


def build_exponential(k, T=1.0):
    """Real-exponential family with rate pair ``(1, k)``; no free parameters."""
    return ExponentialAnsatz(k, T)


def assemble_gram(family, lam=0.0):
    """Exact Gram form of the cost over the family's free parameters.

    Pair integrals are evaluated in closed form per family (monomial
    moments, product-to-sum for the sines, exponential antiderivatives) and
    pulled back through the affine constraint map.  Positive definiteness is
    verified by attempting the Cholesky solve at assembly.
    """
    form = family.gram(lam)
    if form.free_dim:
        minimize_quadratic(form.Q, np.zeros(form.free_dim))  # PD check
    return form


def solve_sta(family, problem=None):
    """Minimise the cost over the family and package the optimal protocol.

    The minimiser is the exact solution of ``Q p = -g`` on the Gram form; no
    iteration is involved, so repeated runs are bit-identical.  The one
    Cholesky factorisation of ``Q`` raises ``NotPositiveDefinite`` when the
    Gram form is not positive definite.
    """
    if problem is None:
        problem = ControlProblem(T=family.T, n=1, lam=0.0)
    if problem.n != 1:
        raise InvalidOrder("basis families implement first-order boundary conditions only")
    if problem.T != family.T:
        raise ValueError(f"family horizon {family.T} != problem horizon {problem.T}")
    gram = family.gram(problem.lam)
    params = minimize_quadratic(gram.Q, gram.g)
    coeffs = family.coefficient_vector(params)
    state, deriv, ctrl = family.cost_parts(coeffs)
    breakdown = CostBreakdown(state, deriv, problem.lam * ctrl)
    cost = gram.value(params)

    def controls(ts, xs):
        # the dynamics give u = xdot + x, and v = udot at first order
        return (xs[1] + xs[0],), family.x_value(coeffs, ts, 2) + xs[1]

    coefficients = dict(zip(family.param_names, params))
    if family.kind == "polynomial":
        coefficients.update({f"a{k}": float(c) for k, c in zip(family.powers, coeffs)})
    elif family.kind == "trigonometric":
        coefficients.update({f"a{k+1}": float(c) for k, c in enumerate(coeffs)})
    else:
        coefficients.update(dict(zip(("a", "b", "c", "d"), map(float, coeffs))))
        coefficients["k"] = family.k
    return ProtocolSolution(
        problem=problem,
        kind=_KIND_TAGS[family.kind],
        coefficients=coefficients,
        trajectory=Trajectory(
            T=problem.T, n=1, controls=controls,
            x=lambda ts: [family.x_value(coeffs, ts, j) for j in range(2)],
        ),
        impulses=(),
        cost=cost,
        cost_breakdown=breakdown,
    )
