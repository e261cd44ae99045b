"""Inverse-engineered transfer protocols over three basis families.

The trajectory ``x(t)`` is postulated inside a finite function family
(shifted Legendre polynomials, quarter-wave sines, or real exponentials),
the four first-order boundary conditions are eliminated exactly, and the
remaining free parameters are fixed by minimising the running cost.  A
polynomial or sine family supplies only the table of its basis functions'
derivatives on the horizon-2 reference interval; :class:`AnsatzFamily`
builds from it the boundary rows, whose null space carries the free
parameters, and the cost as a sum of squares on a fixed Gauss-Legendre
rule, which is exact for the polynomials and exact to roundoff for the
sines.  Both families are dilations of their horizon-2 member,
``basis_T(t, k) = (2/T)^k basis_2(2t/T, k)``, so the reference tables on
the rule's nodes and at the endpoints are built once per family and order
(an ``lru_cache``) and each horizon only rescales them.  The boundary
elimination does not depend on the horizon at all, so its SVD is also run
once per family and order; only the least-squares solve stays per horizon.
Because ``x`` is affine in the free parameters the cost is a linear
least-squares problem, so the minimisation is one SVD rather than an
iterative search; tabulated coefficients are reproduced to all printed
digits, reported under the paper's names.

The control is always recovered analytically as ``u = xdot + x``; each
family knows the derivatives of its own basis functions.  A polynomial or
sine solution's trajectory has one evaluator: it computes ``x`` and its
derivatives in one pass, up to the highest order the requested rows of
``x, x', u = x' + x`` and ``v = x'' + x'`` need, and returns those rows.
Its cost is the sum of its three parts, as on every route but the
impulsive arc.  The exponential family is the first-order optimum at weight
``k^-2``: its rows are gamma rows, packaged as the optimum's are.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .expsums import ExpSum, end_values
from .model import ControlProblem, CostBreakdown, InvalidOrder, ProtocolSolution, Trajectory, _real, row_names
from .model import certify, exact_cost, package_rows, row_factors
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


_KIND_TAGS = {"polynomial": "sta-poly", "trigonometric": "sta-trig"}

#: the derivative order of ``x`` each row of ``row_names(1)`` needs: ``x``, ``x'``, ``u``, ``v``
_ROW_ORDERS = (0, 1, 1, 2)

#: Gauss-Legendre nodes of the cost rule: exact for polynomial families up to
#: N = 47, exact to roundoff for the sines up to N = 20; a different rule from
#: the 64-node quadrature that checks the cost
COST_NODES = 48

#: the last sine order whose cost the rule integrates exactly to roundoff
SINE_MAX_ORDER = 20

#: the names of a family's free tail, in order
_TAIL_NAMES = "abcdefghijklmnopqrstuvwxyz"


class GramForm(NamedTuple):
    """Cost as a sum of squares ``C(p) = |A p + b|^2 + c0``.

    :func:`~lincontrol.numerics.minimize_quadratic` minimises it from ``A``
    and ``b`` directly.
    """

    A: np.ndarray
    b: np.ndarray
    c0: float


class AnsatzFamily:
    """A basis table plus an affine map from free parameters to coefficients.

    A family of order ``N`` supplies the static ``reference_basis(N, u,
    order)``, the derivatives of orders ``0 .. order`` of its horizon-2
    basis at the array ``u``, shaped ``(order + 1, basis) + u.shape``, and
    ``paper_coefficients(coeffs)``, which names coefficients as the paper
    does.  The basis at horizon ``T`` is that table rescaled,
    ``basis_T(t, k) = (2/T)^k basis_2(2t/T, k)``, so the cost tables of every horizon come from one
    set of horizon-2 tables per ``(family, N)``.  The boundary conditions
    ``x(0) = 0, x(T) = 1, x'(0) = x'(T) = 0`` are eliminated once per
    ``(family, N)`` by :func:`_eliminator`, and every horizon shares its
    read-only arrays: ``offset`` is the minimum-norm coefficient vector that
    meets them and ``free_map`` an orthonormal basis of the null space of
    the boundary rows, so ``coefficient_vector(p) = offset + free_map @ p``
    meets all four conditions for every ``p`` and every ``T``.

    Raises
    ------
    InvalidOrder
        If ``N`` is not an integer ``3 <= N <= MAX_ORDER``.
    ValueError
        If :class:`ControlProblem` refuses the horizon (a bool included).
    ~lincontrol.numerics.Overflow
        If ``2T`` or ``(2/T)^2`` overflows, so the horizon-2 tables do not
        rescale to ``T``.
    SingularMatrix
        If the row-scaled boundary rows have condition number
        ``SOLVE_COND_CAP`` or above.
    """

    kind = "abstract"
    #: the last order at which the family's cost rule is exact
    MAX_ORDER = 0

    def __init__(self, N, T=1.0):
        # a non-real reads as NaN, and order % 1 is NaN for a NaN or an
        # infinity, so none of them passes as an integer
        order = _real(N)
        if not (3 <= order <= self.MAX_ORDER and order % 1 == 0):
            raise InvalidOrder(f"{self.kind} order must be an integer 3 <= N <= {self.MAX_ORDER}, got {N}")
        self.N = int(order)
        self.T = ControlProblem(T=T).T
        # the tables map t to u = 2t/T and scale the derivatives of order k <= 2 by (2/T)^k
        if not math.isfinite(2.0 * self.T):
            raise Overflow(f"horizon T={T} is too large: 2T overflows")
        inverse = 2.0 / self.T
        if not math.isfinite(inverse * inverse):
            raise Overflow(f"horizon T={T} is too small: (2/T)^2 overflows")
        self.offset, self.free_map = _eliminator(type(self), self.N)

    @property
    def free_dim(self):
        return self.free_map.shape[1]

    def coefficient_vector(self, params=()):
        p = np.asarray(params, dtype=float).reshape(-1)
        if p.size != self.free_dim:
            raise ValueError(f"expected {self.free_dim} free parameters, got {p.size}")
        return self.offset + self.free_map @ p

    def basis(self, ts, order):
        """Derivatives of orders ``0 .. order`` of every basis function at ``ts``,
        shaped (order + 1, basis) + ts.shape.

        The horizon-2 table at ``u = 2 ts / T`` is rescaled by ``(2/T)^k``.
        When ``u`` is exactly ``(0, 2)``, as it is for ``ts = (0, T)``, and
        ``order <= 2``, the cached endpoint table stands in for a new one; it
        holds the same bits.
        """
        ts = np.asarray(ts, dtype=float)
        u = 2.0 * ts / self.T
        scale = ((2.0 / self.T) ** np.arange(order + 1)).reshape((-1, 1) + (1,) * ts.ndim)
        if order <= 2 and u.shape == _ENDS.shape and u.tobytes() == _ENDS.tobytes():
            return _reference_tables(type(self), self.N)[1][: order + 1] * scale
        table = self.reference_basis(self.N, u, order)
        table *= scale
        return table

    def x_stack(self, coeffs, t, order=2):
        """``(x, x', .., x^(order))`` at ``t``, stacked along a leading axis.

        A ``t`` of two or more dimensions is evaluated flattened, so the basis
        axis is the one contracted, and reshaped back.  Every derivative is
        contracted in one stacked ``matmul``.
        """
        t = np.asarray(t, dtype=float)
        tables = self.basis(t.ravel() if t.ndim > 1 else t, order)
        # one stacked product, which rounds as each table's own vector product;
        # a scalar t's tables gain a times axis of length 1 for it
        return (coeffs @ tables.reshape(tables.shape[:2] + (-1,))).reshape((order + 1,) + t.shape)

    @cached_property
    def _cost_tables(self):
        """The basis tables of x, x' and v = x'' + x' on the cost rule, times sqrt(weight) (built once),
        stacked as ``(3, basis, node)``.

        The rule on ``[0, T]`` is the horizon-2 rule stretched by ``T/2``, so
        each table is the cached horizon-2 one times ``(2/T)^k sqrt(T/2)``.
        The stack is a view of one ``(basis, 3, node)`` array, in which each
        basis function's three rows are the row of the cost's sum of squares
        that :meth:`gram` reads.
        """
        cost, _ = _reference_tables(type(self), self.N)
        scale = (2.0 / self.T) ** np.arange(3) * math.sqrt(self.T / 2.0)
        tables = cost * scale[:, None]
        tables[:, 2] += tables[:, 1]
        return tables.transpose(1, 0, 2)

    def gram(self, lam=0.0):
        """The cost's :class:`GramForm` at the weight ``lam``, read by :class:`ControlProblem`'s rule.

        Its rows are the cost tables' nodes, ``x``, then ``x'``, then
        ``sqrt(lam) v``.
        """
        lam = ControlProblem(T=self.T, lam=lam).lam
        tables = self._cost_tables.transpose(1, 0, 2)
        if lam:
            rows = tables.copy()
            rows[:, 2] *= math.sqrt(lam)
        else:  # the control-energy rows are all zero, so they are left out
            rows = tables[:, :2]
        rows = rows.reshape(len(rows), -1).T
        return GramForm(A=rows @ self.free_map, b=rows @ self.offset, c0=0.0)

    def cost_parts(self, coeffs):
        """(state, derivative, unweighted control-energy) integrals: the coefficients' product with
        the three cost tables in one stacked ``matmul``, then each product's dot with itself."""
        r = np.asarray(coeffs, dtype=float) @ self._cost_tables
        return tuple((r[:, None] @ r[..., None]).ravel().tolist())


#: the ends of the horizon-2 reference interval
_ENDS = np.array([0.0, 2.0])
_ENDS.setflags(write=False)


@lru_cache(maxsize=64)
def _reference_tables(family, N):
    """Horizon-2 basis tables of ``family`` at order ``N``, shared read-only.

    Returns ``(cost, ends)``: orders 0-2 on the cost rule of ``[0, 2]``, each
    node times sqrt(weight), shaped (basis, order, node); and orders 0-2 at
    ``u = 0`` and ``u = 2``, shaped (order, basis, 2).
    """
    u, w = gauss_legendre(COST_NODES, 0.0, 2.0)
    cost = np.ascontiguousarray((family.reference_basis(N, u, 2) * np.sqrt(w)).transpose(1, 0, 2))
    ends = family.reference_basis(N, _ENDS, 2)
    cost.setflags(write=False)
    ends.setflags(write=False)
    return cost, ends


@lru_cache(maxsize=64)
def _eliminator(family, N):
    """``(offset, free_map)`` of ``family`` at order ``N``, shared read-only.

    At horizon ``T`` the boundary rows ``x(0), x(T), x'(0), x'(T)`` are the
    horizon-2 rows with the two ``x'`` rows times ``2/T``.  Those rows have a
    zero right-hand side, so the constraint set, its minimum-norm point and
    its null space are the same at every horizon, and one SVD per ``(family,
    N)`` serves them all.  The rows that vanish identically are dropped and
    the rest scaled to unit max-magnitude before the SVD.

    Raises
    ------
    SingularMatrix
        If the scaled rows have condition number ``SOLVE_COND_CAP`` or above.
    """
    _, ends = _reference_tables(family, N)
    rows = np.vstack([ends[0].T, ends[1].T])
    scale = np.abs(rows).max(axis=1)
    live = scale > 0.0
    rhs = np.array([0.0, 1.0, 0.0, 0.0])[live] / scale[live]
    U, s, Vt = np.linalg.svd(rows[live] / scale[live, None])
    if not s[0] < SOLVE_COND_CAP * s[-1]:
        raise SingularMatrix(f"boundary rows have condition number >= {SOLVE_COND_CAP:.0e}")
    offset = Vt[: len(s)].T @ ((U.T @ rhs) / s)
    free_map = Vt[len(s):].T
    offset.setflags(write=False)
    free_map.setflags(write=False)
    return offset, free_map


@lru_cache(maxsize=64)
def _legendre_derivative(N):
    """``D[i, j]``: d/du P_j(u - 1) = sum of (2i + 1) P_i over i < j with j - i odd."""
    i, j = np.ogrid[: N + 1, : N + 1]
    D = np.where((j > i) & ((j - i) % 2 == 1), 2.0 * i + 1.0, 0.0)
    D.setflags(write=False)
    return D


@lru_cache(maxsize=64)
def _monomial_matrix(N):
    """``M[k, j] = (-1)^(j+k) C(j,k) C(j+k,k)``, the t^k coefficient of P_j(2t - 1)."""
    M = np.array(
        [[float((-1) ** (j + k) * math.comb(j, k) * math.comb(j + k, k)) for j in range(N + 1)]
         for k in range(N + 1)]
    )
    M.setflags(write=False)
    return M


@lru_cache(maxsize=128)
def _coefficient_names(first, N):
    """The paper's names ``a{first} .. aN`` of a family's coefficients, built once per order."""
    return tuple(f"a{k}" for k in range(first, N + 1))


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
    MAX_ORDER = COST_NODES - 1

    @staticmethod
    def reference_basis(N, u, order):
        s = u - 1.0
        out = np.empty((order + 1, N + 1) + s.shape)
        P = out[0]
        P[0], P[1] = 1.0, s
        for j in range(1, N):  # Bonnet's three-term recurrence
            P[j + 1] = ((2 * j + 1) * s * P[j] - j * P[j - 1]) / (j + 1)
        for k in range(1, order + 1):
            out[k] = np.tensordot(_legendre_derivative(N), out[k - 1], axes=(0, 0))
        return out

    def paper_coefficients(self, coeffs):
        # the t^k coefficient of P_j(2t/T - 1) is (-1)^(j+k) C(j,k) C(j+k,k) / T^k;
        # a T^k past the float range makes that coefficient 0, its right rounding,
        # without a warning inside solve_sta's np.errstate block
        N = self.N
        to_monomial = _monomial_matrix(N) / self.T ** np.arange(N + 1)[:, None]
        a = (to_monomial @ coeffs).tolist()
        names = dict(zip(_TAIL_NAMES, a[4:]))
        names.update(zip(_coefficient_names(2, N), a[2:]))
        return names


class TrigonometricAnsatz(AnsatzFamily):
    """x(t) = sum_{k=1}^N a_k sin(k pi t / (2T)).

    ``x(0) = 0`` holds identically, so its row is dropped and the three
    remaining boundary conditions are eliminated.  The free tail ``a_4 ..
    a_N`` is named ``a, b, ..``, except that the two-parameter family
    (N = 5) is reported as ``a_4 = a - b``, ``a_5 = b``, the conventional
    names.  ``N`` stops at 20, the last order for which the cost rule is
    exact to roundoff.
    """

    kind = "trigonometric"
    MAX_ORDER = SINE_MAX_ORDER

    @staticmethod
    def reference_basis(N, u, order):
        # sin(k pi u / 4) on the horizon-2 interval; derivatives cycle sin, cos, -sin, -cos
        w = (np.arange(1, N + 1) * (np.pi / 4.0)).reshape((-1,) + (1,) * u.ndim)
        out = np.empty((order + 1, N) + u.shape)
        out[0::2] = np.sin(w * u)
        out[1::2] = np.cos(w * u)
        k = np.arange(order + 1).reshape((-1, 1) + (1,) * u.ndim)
        out *= (-1.0) ** (k // 2) * w**k
        return out

    def paper_coefficients(self, coeffs):
        a = np.asarray(coeffs, dtype=float).tolist()
        tail = a[3:]
        if self.N == 5:
            tail[0] = a[3] + a[4]
        names = dict(zip(_TAIL_NAMES, tail))
        names.update(zip(_coefficient_names(1, len(a)), a))
        return names


#: the right-hand side of the exponential family's boundary system: x(0), x(T), x'(0), x'(T)
_EXP_RHS = np.array([0.0, 1.0, 0.0, 0.0])
_EXP_RHS.setflags(write=False)


class ExponentialAnsatz:
    """x(t) = a e^t + b e^{-t} + c e^{kt} + d e^{-kt}, fully determined.

    The four boundary conditions consume all four coefficients, so there is
    nothing to minimise: the family is one function, the first-order optimum
    at weight ``k^-2``.  The constructor solves its boundary system on the
    :func:`~lincontrol.expsums.end_values` of the rates ``(1, -1, k, -k)``
    over ``T``, which anchor both growing terms at ``T``, so every entry
    stays representable at any ``k`` and ``T`` whose ``k^2`` and ``k T`` are
    finite; past them :class:`~lincontrol.numerics.Overflow` is raised
    before any array is formed.  :attr:`x` is the anchored
    :class:`~lincontrol.expsums.ExpSum`, with gammas ``(a_T, b, c_T, d)``,
    and :attr:`offset` the un-anchored ``(a, b, c, d)``: each gamma times
    its ``t = 0`` end value, so ``a = a_T e^{-T}`` and ``c = c_T e^{-kT}``
    underflow to 0 at large ``T`` or ``kT``; those end values are kept, read-only,
    as :attr:`term_ends`, for the packaging.  Near ``k = 1`` the basis is
    nearly dependent: :class:`DegenerateBasis` is raised once a boundary sum
    cancels terms above ``1e7``, where rounding alone moves it by about
    ``1e-9`` (at ``T = 1``, ``|k - 1|`` below about ``1.5e-6``).  The family
    is symmetric under ``k -> -k``, so ``k`` is normalised to its absolute
    value.  Its trajectory is the gamma rows of :meth:`rows`, never a basis
    table, because ``e^{kt}`` alone overflows at large ``k``.  The rate and
    the horizon are read by :class:`ControlProblem`'s rule, which refuses a
    bool, a string or a complex number.
    """

    kind = "exponential"

    def __init__(self, k, T=1.0):
        rate, T = abs(_real(k)), ControlProblem(T=T).T
        if not math.isfinite(rate) or rate == 0.0:
            raise ValueError(f"k must be finite and nonzero, got {k}")
        k = rate
        if not math.isfinite(k * k):
            # derivatives scale terms by powers of k; x'' must stay representable
            raise Overflow(f"rate k={k} is too large: k^2 overflows")
        if not math.isfinite(k * T):
            # the end values are exponentials of -k T
            raise Overflow(f"rate k={k} at horizon T={T} is too large: k T overflows")
        rates = np.array([1.0, -1.0, k, -k])
        at0, atT = term_ends = end_values(rates, T)
        B = np.array([at0, atT, rates * at0, rates * atT])
        try:
            gammas = solve_linear(B, _EXP_RHS)
        except SingularMatrix as exc:
            raise DegenerateBasis(f"boundary system singular at k={k}: {exc}") from exc
        cancellation = np.abs(B * gammas).sum(axis=1).max()
        if not cancellation <= 1e7:
            raise DegenerateBasis(
                f"boundary system near-singular at k={k}, T={T}: terms of {cancellation:.3g} cancel"
            )
        self.k = k
        self.T = T
        self.offset = gammas * at0
        gammas.setflags(write=False)
        rates.setflags(write=False)
        term_ends.setflags(write=False)
        self.x = ExpSum(gammas=gammas, rates=rates, T=T)
        self.term_ends = term_ends

    def rows(self, adjoint_weight=None):
        """Gamma rows of ``x, x', u = x' + x, v = x'' + x'`` on the terms of :attr:`x`,
        then ``p_y, p_z`` of the optimum at weight ``lam = adjoint_weight`` if given.

        The :func:`~lincontrol.model.row_factors` of the rates times ``x``'s
        gammas, in one product.
        """
        return row_factors(self.x.rates, adjoint_weight) * self.x.gammas

    def paper_coefficients(self, coeffs):
        # adding 0.0 reports a coefficient that underflowed to -0.0 as 0
        return {**dict(zip("abcd", (np.asarray(coeffs) + 0.0).tolist())), "k": self.k}

    def gram(self, lam=0.0):
        """A form over no parameters whose ``c0`` is the cost :func:`solve_sta` reports, bit for bit."""
        with np.errstate(over="ignore", invalid="ignore"):
            cost = exact_cost(ControlProblem(T=self.T, n=1, lam=lam), self.rows(), self.x.rates)
        return GramForm(A=np.zeros((0, 0)), b=np.zeros(0), c0=cost.total)


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
    constraint map.  The exponential family has no free parameter, and its
    form is the exact cost of its gamma rows alone.  The conditioning gate of
    :func:`~lincontrol.numerics.minimize_quadratic` is applied at assembly.
    """
    form = family.gram(lam)
    minimize_quadratic(form.A, np.zeros(len(form.b)))  # conditioning check
    return form


def _first_order_rows(x):
    """The rows ``x, x', u = x' + x`` from the dynamics and ``v = u'`` at first
    order, from the stack ``x, .., x^(order)``; a slice past that order is
    empty, and so is the row it would make."""
    return np.concatenate([x[:2], x[1:2] + x[:1], x[2:] + x[1:2]])


def solve_sta(family, problem=None):
    """Minimise the cost over the family and package the optimal protocol.

    The exponential family has nothing to minimise: its gamma rows
    (:meth:`ExponentialAnsatz.rows`) go to the packaging that the
    optimal-control routes use, :func:`~lincontrol.model.package_rows`.
    For a polynomial or sine family the minimiser is the least-squares
    solution of ``A p = -b`` on the Gram form, by one SVD; no iteration is
    involved, so repeated runs are bit-identical.  It raises
    ``SingularMatrix`` when cond(A) reaches
    :data:`~lincontrol.numerics.LSQ_COND_CAP` (the sine family from N = 14).
    Its trajectory's end table is every row at ``t = 0`` and ``T`` from one
    :meth:`~AnsatzFamily.x_stack` call.  The Gram form, the minimiser, the
    cost, the end table and the paper's coefficients are formed in one
    ``np.errstate`` block, so a horizon whose tables, cost or monomial
    coefficients leave the float range is refused with its typed error and
    no numpy warning.  Both branches return through
    :func:`~lincontrol.model.certify`.
    """
    if problem is None:
        problem = ControlProblem(T=family.T, n=1, lam=0.0)
    if problem.n != 1:
        raise InvalidOrder("basis families implement first-order boundary conditions only")
    if problem.T != family.T:
        raise ValueError(f"family horizon {family.T} != problem horizon {problem.T}")
    if family.kind == "exponential":
        x, coefficients = family.x, family.paper_coefficients(family.offset)
        return package_rows(problem, "sta-exp", family.rows(), x.rates, term_ends=family.term_ends,
                            coefficients=coefficients)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        gram = family.gram(problem.lam)
        coeffs = family.coefficient_vector(minimize_quadratic(gram.A, gram.b))
        state, deriv, ctrl = family.cost_parts(coeffs)
        ends = _first_order_rows(family.x_stack(coeffs, np.array([0.0, problem.T]), 2))
        coefficients = family.paper_coefficients(coeffs)
    breakdown = CostBreakdown(state, deriv, problem.lam * ctrl)

    def evaluate(ts, index):
        order = max((_ROW_ORDERS[i] for i in index), default=0)
        return _first_order_rows(family.x_stack(coeffs, ts, order))[index]

    return certify(ProtocolSolution(
        problem=problem,
        kind=_KIND_TAGS[family.kind],
        coefficients=coefficients,
        trajectory=Trajectory(T=problem.T, n=1, names=row_names(1), evaluate=evaluate, ends=ends),
        impulses=(),
        cost=breakdown.total,
        cost_breakdown=breakdown,
    ))
