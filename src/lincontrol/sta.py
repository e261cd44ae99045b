"""Inverse-engineered transfer protocols over three basis families.

The trajectory ``x(t)`` is postulated inside a finite function family
(shifted Legendre polynomials, quarter-wave sines, or real exponentials),
the four first-order boundary conditions are eliminated exactly, and the
remaining free parameters are fixed by minimising the running cost.  A
polynomial or sine family supplies only the table of its basis functions'
derivatives; :class:`AnsatzFamily` builds from it the boundary rows, whose
null space carries the free parameters, and the cost as a sum of squares on
a fixed Gauss-Legendre rule, which is exact for the polynomials and exact
to roundoff for the sines.  Because ``x`` is affine in the free parameters
the cost is a linear least-squares problem, so the minimisation is one SVD
rather than an iterative search; tabulated coefficients are reproduced to
all printed digits, reported under the paper's names.

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
from .numerics import (
    SOLVE_COND_CAP,
    Overflow,
    SingularMatrix,
    gauss_legendre,
    minimize_quadratic,
    solve_linear,
)


class DegenerateBasis(ValueError):
    """The exponential basis matrix is numerically singular (k near 1)."""


_KIND_TAGS = {
    "polynomial": "sta-poly",
    "trigonometric": "sta-trig",
    "exponential": "sta-exp",
}

#: Gauss-Legendre nodes of the cost rule: exact for polynomial families up to
#: N = 47, exact to roundoff for the sines up to N = 20; a different rule from
#: the 64-node quadrature that checks the cost
COST_NODES = 48


@dataclass(frozen=True)
class GramForm:
    """Cost as a sum of squares ``C(p) = |A p + b|^2 + c0``.

    :meth:`value` sums the squares, and
    :func:`~lincontrol.numerics.minimize_quadratic` minimises them from ``A``
    and ``b`` directly.
    """

    A: np.ndarray
    b: np.ndarray
    c0: float

    @property
    def free_dim(self):
        return self.A.shape[1]

    def value(self, p):
        r = self.A @ np.asarray(p, dtype=float).reshape(-1) + self.b
        return float(r @ r + self.c0)


class AnsatzFamily:
    """A basis table plus an affine map from free parameters to coefficients.

    A family supplies :meth:`basis`, the ``order``-th derivatives of its basis
    functions at times ``ts`` shaped (basis, times), and
    :meth:`paper_coefficients`.  The boundary rows ``x(0), x(T), x'(0),
    x'(T)`` come from that table; rows that vanish identically are dropped
    and the rest eliminated by one SVD: ``offset`` is their minimum-norm
    solution and ``free_map`` an orthonormal basis of their null space, so
    ``coefficient_vector(p) = offset + free_map @ p`` meets all four
    boundary conditions for every ``p``.

    Raises
    ------
    SingularMatrix
        If the boundary rows have condition number ``SOLVE_COND_CAP`` or
        above.
    """

    kind = "abstract"

    def __init__(self, T):
        self.T = float(T)
        rows = np.hstack([self.basis(np.array([0.0, self.T]), k) for k in range(2)]).T
        rhs = np.array([0.0, 1.0, 0.0, 0.0])
        live = np.any(rows != 0.0, axis=1)
        U, s, Vt = np.linalg.svd(rows[live])
        if not s[0] < SOLVE_COND_CAP * s[-1]:
            raise SingularMatrix(f"boundary rows have condition number >= {SOLVE_COND_CAP:.0e}")
        self.offset = Vt[: len(s)].T @ ((U.T @ rhs[live]) / s)
        self.free_map = Vt[len(s):].T

    @property
    def free_dim(self):
        return self.free_map.shape[1]

    def coefficient_vector(self, params=()):
        p = np.asarray(params, dtype=float).reshape(-1)
        if p.size != self.free_dim:
            raise ValueError(f"expected {self.free_dim} free parameters, got {p.size}")
        return self.offset + self.free_map @ p

    def basis(self, ts, order=0):
        """The ``order``-th derivative of every basis function at ``ts``, shaped (basis,) + ts.shape."""
        raise NotImplementedError

    def paper_coefficients(self, coeffs):
        """The coefficient vector under the paper's names, for reporting."""
        raise NotImplementedError

    def x_value(self, coeffs, t, order=0):
        return coeffs @ self.basis(t, order)

    @cached_property
    def _cost_tables(self):
        """The basis tables of x, x' and v = x'' + x' on the cost rule, times sqrt(weight) (built once)."""
        ts, ws = gauss_legendre(COST_NODES, 0.0, self.T)
        x, xd, xdd = (self.basis(ts, k) * np.sqrt(ws) for k in range(3))
        return x, xd, xdd + xd

    def gram(self, lam=0.0):
        x, xd, v = self._cost_tables
        rows = np.hstack([x, xd, math.sqrt(lam) * v]).T
        return GramForm(A=rows @ self.free_map, b=rows @ self.offset, c0=0.0)

    def cost_parts(self, coeffs):
        """(state, derivative, unweighted control-energy) integrals."""
        a = np.asarray(coeffs, dtype=float)
        return tuple(float(r @ r) for r in (a @ table for table in self._cost_tables))

    def boundary_values(self, coeffs):
        """(x(0), x(T), x'(0), x'(T)) for a coefficient vector."""
        ends = np.array([0.0, self.T])
        return (*self.x_value(coeffs, ends, 0), *self.x_value(coeffs, ends, 1))


class PolynomialAnsatz(AnsatzFamily):
    """x(t) = sum_{j=0}^N c_j P_j(2t/T - 1) in shifted Legendre polynomials.

    This spans the same space as the paper's ``sum_k a_k t^k``, so the
    optimum is the same, without the monomials' Hilbert-like conditioning.
    :meth:`paper_coefficients` converts to the monomials ``a2 .. aN``
    (``a0 = a1 = 0`` by the conditions at ``t = 0``) and names the free tail
    ``a4, a5, ..`` as ``a, b, .. z``.  ``N`` stops at 47, the last order for
    which the cost rule is exact.
    """

    kind = "polynomial"

    def __init__(self, N, T=1.0):
        if not 3 <= N < COST_NODES:
            raise InvalidOrder(f"polynomial family needs 3 <= N <= {COST_NODES - 1}, got {N}")
        self.N = int(N)
        super().__init__(T)

    def basis(self, ts, order=0):
        s = 2.0 * np.asarray(ts, dtype=float) / self.T - 1.0
        P = np.empty((self.N + 1,) + s.shape)
        P[0], P[1] = 1.0, s
        for j in range(1, self.N):  # Bonnet's three-term recurrence
            P[j + 1] = ((2 * j + 1) * s * P[j] - j * P[j - 1]) / (j + 1)
        if not order:
            return P
        return np.tensordot(np.linalg.matrix_power(self._derivative, order), P, axes=(0, 0))

    @cached_property
    def _derivative(self):
        """``D[i, j]``: d/dt P_j(2t/T - 1) = (2/T) sum of (2i + 1) P_i over i < j with j - i odd."""
        i, j = np.ogrid[: self.N + 1, : self.N + 1]
        return np.where((j > i) & ((j - i) % 2 == 1), (2.0 * i + 1.0) * (2.0 / self.T), 0.0)

    def paper_coefficients(self, coeffs):
        # the t^k coefficient of P_j(2t/T - 1) is (-1)^(j+k) C(j,k) C(j+k,k) / T^k
        N, T = self.N, self.T
        to_monomial = np.array(
            [[(-1) ** (j + k) * math.comb(j, k) * math.comb(j + k, k) / T**k for j in range(N + 1)]
             for k in range(N + 1)]
        )
        a = (to_monomial @ coeffs).tolist()
        names = dict(zip(string.ascii_lowercase, a[4:]))
        names.update((f"a{k}", a[k]) for k in range(2, N + 1))
        return names


class TrigonometricAnsatz(AnsatzFamily):
    """x(t) = sum_{k=1}^N a_k sin(k pi t / (2T)).

    ``x(0) = 0`` holds identically, so its row is dropped and the three
    remaining boundary conditions are eliminated.  The free tail ``a_4 ..
    a_N`` is named ``a, b, ..``, except that the two-parameter family
    (N = 5) is reported as ``a_4 = a - b``, ``a_5 = b``, the conventional
    names.
    """

    kind = "trigonometric"

    def __init__(self, N, T=1.0):
        if N < 3:
            raise InvalidOrder(f"trigonometric family needs N >= 3, got {N}")
        self.N = int(N)
        self.omegas = np.arange(1, N + 1) * np.pi / (2.0 * T)
        super().__init__(T)

    def basis(self, ts, order=0):
        ts = np.asarray(ts, dtype=float)
        w = self.omegas.reshape((-1,) + (1,) * ts.ndim)
        trig = np.cos if order % 2 else np.sin
        sign = -1.0 if order % 4 >= 2 else 1.0
        return sign * w**order * trig(w * ts)

    def paper_coefficients(self, coeffs):
        a = [float(c) for c in coeffs]
        tail = a[3:]
        if self.N == 5:
            tail[0] = a[3] + a[4]
        names = dict(zip(string.ascii_lowercase, tail))
        names.update((f"a{k}", c) for k, c in enumerate(a, 1))
        return names


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
    ``k`` is normalised to its absolute value.  Evaluation and the cost go
    through that sum and its exact square integrals, not a basis table,
    because ``e^{kt}`` alone overflows at large ``k``.
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
        self.T = float(T)
        self.offset = np.array([a, b, c, d])
        self.free_map = np.zeros((4, 0))
        self.x = ExpSum(
            gammas=(a, b, c_scaled, d),
            rates=(1.0, -1.0, k, -k),
            shifts=(0.0, 0.0, T, 0.0),
        )

    def x_value(self, coeffs, t, order=0):
        # coeffs is always the stored vector (free_dim = 0); evaluate through
        # the anchored sum so large k cannot overflow
        return self.x.derivative(order).value(t) if order else self.x.value(t)

    def paper_coefficients(self, coeffs):
        return {**dict(zip("abcd", map(float, coeffs))), "k": self.k}

    def gram(self, lam=0.0):
        state, deriv, ctrl = self._squares
        return GramForm(A=np.zeros((0, 0)), b=np.zeros(0), c0=state + deriv + lam * ctrl)

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
    """Gram form of the cost over the family's free parameters.

    For the polynomial and sine families it is the sum of squares of the
    basis tables on the cost rule, pulled back through the affine
    constraint map; the exponential family integrates its squares in closed
    form.  The conditioning gate of
    :func:`~lincontrol.numerics.minimize_quadratic` is applied at assembly.
    """
    form = family.gram(lam)
    minimize_quadratic(form.A, np.zeros(len(form.b)))  # conditioning check
    return form


def solve_sta(family, problem=None):
    """Minimise the cost over the family and package the optimal protocol.

    The minimiser is the least-squares solution of ``A p = -b`` on the Gram
    form, by one SVD; no iteration is involved, so repeated runs are
    bit-identical.  It raises ``SingularMatrix`` when cond(A) reaches
    :data:`~lincontrol.numerics.LSQ_COND_CAP` (the sine family from N = 14).
    """
    if problem is None:
        problem = ControlProblem(T=family.T, n=1, lam=0.0)
    if problem.n != 1:
        raise InvalidOrder("basis families implement first-order boundary conditions only")
    if problem.T != family.T:
        raise ValueError(f"family horizon {family.T} != problem horizon {problem.T}")
    gram = family.gram(problem.lam)
    params = minimize_quadratic(gram.A, gram.b)
    coeffs = family.coefficient_vector(params)
    state, deriv, ctrl = family.cost_parts(coeffs)
    breakdown = CostBreakdown(state, deriv, problem.lam * ctrl)
    cost = gram.value(params)

    def controls(ts, xs):
        # the dynamics give u = xdot + x, and v = udot at first order
        return (xs[1] + xs[0],), family.x_value(coeffs, ts, 2) + xs[1]

    return ProtocolSolution(
        problem=problem,
        kind=_KIND_TAGS[family.kind],
        coefficients=family.paper_coefficients(coeffs),
        trajectory=Trajectory(
            T=problem.T, n=1, controls=controls,
            x=lambda ts: [family.x_value(coeffs, ts, j) for j in range(2)],
        ),
        impulses=(),
        cost=cost,
        cost_breakdown=breakdown,
    )
