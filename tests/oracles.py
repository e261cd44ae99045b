"""Independent closed forms that the tests compare the package against."""

import json

import mpmath
import numpy as np
import scipy.linalg

from lincontrol.expsums import ExpSum, end_values, real_values, square_integrals
from lincontrol.model import (
    ControlProblem, CostBreakdown, Impulse, ProtocolSolution, Trajectory, adjoint_names, row_names,
)
from lincontrol.numerics import Overflow, SingularMatrix, eigendecompose, integrate, solve_linear
from lincontrol import oct as octmod
from lincontrol.oct import (
    PontryaginFlow,
    ShootingSingular,
    _mode_tables,
    _series_from_modes,
    build_lq,
    fit_exponential_arc,
)
from lincontrol.sta import DegenerateBasis


def mat_exp(A, t=1.0):
    """``exp(A t)`` by scipy's scaling-and-squaring Pade.

    Raises :class:`~lincontrol.numerics.Overflow` when an entry of the
    result leaves the float range, as the propagator does at small weights.
    """
    A = np.asarray(A, dtype=float)
    if t == 0.0:
        return np.eye(A.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        E = scipy.linalg.expm(A * float(t))
    if not np.all(np.isfinite(E)):
        raise Overflow(f"exp(A t) entries exceed float range for t={t}")
    return E


def chain_structure(n):
    """``(A, B, W)`` of the order-``n`` chain.

    The chain obeys ``sdot = A s + B v`` and costs ``int (s^T W s + lam v^2)
    dt``; it depends on the order alone.  The state cost matrix is ``W =
    r0^T r0 + r1^T r1`` with ``r1`` the row realising ``x'`` and ``r0 =
    e_{z0} - r1``, so that ``s^T W s = (z_0 - x')^2 + x'^2 = x^2 + xdot^2``.
    """
    ns = n + 1
    A = np.zeros((ns, ns))
    A[0, 0] = -1.0
    for i in range(2, ns):
        A[i, i - 1] = 1.0
    B = np.zeros((ns, 1))
    B[0, 0] = 1.0
    B[1, 0] = 1.0
    r1 = _mode_tables(n).x1_row
    r0 = -r1.copy()
    r0[ns - 1] += 1.0
    W = np.outer(r0, r0) + np.outer(r1, r1)
    return A, B, W


def flow_matrix(problem):
    """The state-adjoint flow matrix ``H = [[A, B lam^-1 B^T], [W, -A^T]]`` of a problem of positive weight."""
    A, B, W = chain_structure(problem.n)
    ns = problem.n + 1
    H = np.zeros((2 * ns, 2 * ns))
    H[:ns, :ns] = A
    H[:ns, ns:] = (B @ B.T) / problem.lam
    H[ns:, :ns] = W
    H[ns:, ns:] = -A.T
    return H


def numerical_spectrum(problem):
    """Eigenpairs ``(w, V)`` of :func:`flow_matrix` from the eigensolver, the reference of ``PontryaginFlow.spectrum``.

    Pins :meth:`lincontrol.oct.PontryaginFlow.spectrum`; ROADMAP item 22c retires it.

    The decomposition runs on the similarity-balanced matrix (adjoint
    block scaled by ``sqrt(lam)``), which leaves the eigenvalues untouched
    while shrinking the matrix norm from ``1/lam`` to ``1/sqrt(lam)``; the
    eigenvectors are mapped back and scaled to unit max-magnitude.
    """
    ns = problem.n + 1
    d = np.ones(2 * ns)
    d[ns:] = np.sqrt(problem.lam)
    balanced = (flow_matrix(problem) / d[:, None]) * d[None, :]
    w, V = eigendecompose(balanced)
    V = V * d[:, None]
    return w, V / np.abs(V).max(axis=0)


def shoot_adjoint_block(H, T):
    """Initial adjoint from a linear solve on the (s, p) block of the propagator of the flow matrix ``H``.

    Pins the modal adjoints of :func:`lincontrol.oct.solve_regular`; ROADMAP item 22c retires it.

    The textbook route: with ``s(0) = 0`` known, the terminal state reads
    ``s(T) = N_sp(T) p(0)``, so ``p(0)`` solves one dense system on the
    upper-right block of ``N(T) = exp(H T)`` against the terminal state
    ``s(T)``, zero but for ``z_0 = x + x' = 1``.  The block mixes
    ``exp(+-|mu| T)`` scales, so it is a sound reference only while ``|mu| T``
    stays below roughly 30 (weights above ``~1e-3`` at first order).
    """
    ns = len(H) // 2
    N = mat_exp(H, T)
    target = np.zeros(ns)
    target[-1] = 1.0
    try:
        return solve_linear(N[:ns, ns:], target)
    except SingularMatrix as exc:
        raise ShootingSingular(f"terminal block: {exc}") from exc


def eigen_residuals(A, spec):
    """Per-pair residuals ``|A v - mu v|`` (2-norm over each column) of a spectrum ``(w, V)`` of ``A``."""
    w, V = spec
    return np.linalg.norm(A @ V - V * w, axis=0)


def eigen_residual_bounds(spec):
    """Per-pair residual tolerances ``1e-10 * (1 + |mu|)`` for unit-max eigenvectors."""
    return 1e-10 * (1.0 + np.abs(spec[0]))


def eigen_reconstruction(spec):
    """``V diag(mu) V^-1``, which approximates the decomposed matrix."""
    w, V = spec
    return (V * w) @ np.linalg.inv(V)


def boundary_values(family, coeffs):
    """``(x(0), x(T), x'(0), x'(T))`` of a basis family at a coefficient vector."""
    x, xd = family.x_stack(coeffs, np.array([0.0, family.T]), 1)
    return (*x, *xd)


def exponential_cofactors(k):
    """Exponential-family boundary coefficients ``(a, b, c_scaled, d)`` at T = 1.

    Pins the boundary solve of :func:`lincontrol.sta.build_exponential`; ROADMAP item 18a retires it.

    Closed-form cofactor expressions of the 4x4 boundary matrix with the
    common ``e^k`` factor divided out of numerator and denominator, so every
    intermediate stays bounded for large ``k``.  The package computes the
    same coefficients by a linear solve.
    """
    e = np.e
    terms = (
        -((1 - k) ** 2) * np.exp(-1.0 - 2.0 * k),
        -((1 - k) ** 2) * e,
        (1 + k) ** 2 / e,
        (1 + k) ** 2 * np.exp(1.0 - 2.0 * k),
        -8.0 * k * np.exp(-k),
    )
    det_scaled = sum(terms)
    scale = max(abs(t) for t in terms)
    if abs(det_scaled) < 1e-12 * scale:
        raise DegenerateBasis(f"boundary matrix is singular at k={k}")
    a_num = -2.0 * np.exp(-1.0 - k) + (1 + k) * np.exp(-2.0 * k) + (1 - k)
    b_num = -2.0 * np.exp(1.0 - k) + (1 - k) * np.exp(-2.0 * k) + (1 + k)
    c_num = ((1 + 1 / k) / e + (1 - 1 / k) * e) - 2.0 * np.exp(-k)
    d_num = ((1 - 1 / k) / e + (1 + 1 / k) * e) * np.exp(-k) - 2.0
    a = k * a_num / det_scaled
    b = k * b_num / det_scaled
    c_scaled = k * c_num / det_scaled
    d = k * d_num / det_scaled
    return a, b, c_scaled, d


def order1_optimum_mp(lam, T, dps=80):
    """First-order optimal cost at ``dps`` significant digits.

    The optimum is the exponential family ``x = a e^t + b e^-t +
    c e^{k (t - T)} + d e^-kt`` at ``k = 1/sqrt(lam)``, with its growing term
    anchored at ``T``.  The four boundary conditions are solved as a 4x4
    system, and ``x^2 + x'^2 + lam (x'' + x')^2`` is integrated exactly, one
    pair of terms at a time.
    """
    with mpmath.workdps(dps):
        lam, T = mpmath.mpf(lam), mpmath.mpf(T)
        k = 1 / mpmath.sqrt(lam)
        rates = (1, -1, k, -k)
        shifts = (0, 0, T, 0)
        rows = [
            [r**order * mpmath.exp(r * (t - s)) for r, s in zip(rates, shifts)]
            for t, order in ((0, 0), (T, 0), (0, 1), (T, 1))
        ]
        coef = mpmath.lu_solve(mpmath.matrix(rows), mpmath.matrix([0, 1, 0, 0]))
        cost = mpmath.mpf(0)
        for ci, ri, si in zip(coef, rates, shifts):
            for cj, rj, sj in zip(coef, rates, shifts):
                weight = 1 + ri * rj + lam * (ri * ri + ri) * (rj * rj + rj)
                S, P = ri + rj, ri * si + rj * sj
                pair = T * mpmath.exp(-P) if S == 0 else (mpmath.exp(S * T - P) - mpmath.exp(-P)) / S
                cost += ci * cj * weight * pair
        return float(cost)


def _order_n_parts(n, lam, T):
    """The state, derivative and control parts of the order-``n`` optimal
    cost as mpmath numbers, at the working precision; see
    :func:`order_n_optimum_mp`."""
    lam, T = mpmath.mpf(lam), mpmath.mpf(T)
    r = lam ** (-mpmath.mpf(1) / (2 * n))
    rates = [mpmath.mpf(1), mpmath.mpf(-1)]
    rates += [r * mpmath.expjpi(mpmath.mpf(n + 1 + 2 * k) / (2 * n)) for k in range(2 * n)]
    shifts = [T if mpmath.re(s) > 0 else mpmath.mpf(0) for s in rates]
    rows = [
        [s**j * mpmath.exp(s * (t - tau)) for s, tau in zip(rates, shifts)]
        for t in (0, T) for j in range(n + 1)
    ]
    rhs = [0] * (n + 1) + [1] + [0] * n
    coef = mpmath.lu_solve(mpmath.matrix(rows), mpmath.matrix(rhs))
    ctrl = [s**n * (s + 1) for s in rates]  # x^(n+1) + x^(n) per unit term
    state = deriv = control = mpmath.mpc(0)
    for ci, si, ti, vi in zip(coef, rates, shifts, ctrl):
        for cj, sj, tj, vj in zip(coef, rates, shifts, ctrl):
            S, P = si + sj, si * ti + sj * tj
            # expm1 keeps the pairs whose rates cancel to rounding (S ~ 10^-dps)
            pair = T * mpmath.exp(-P) if S == 0 else mpmath.exp(-P) * mpmath.expm1(S * T) / S
            # the pair weight 1 + si sj + lam vi vj, one part at a time
            state += ci * cj * pair
            deriv += ci * cj * si * sj * pair
            control += ci * cj * lam * vi * vj * pair
    return state, deriv, control


def order_n_optimum_mp(n, lam, T, dps=80):
    """Order-``n`` optimal cost at ``dps`` significant digits, from the exact rates.

    The Euler-Lagrange equation of ``int x^2 + x'^2 + lam (x^(n+1) + x^(n))^2``
    is ``(1 - D^2)(1 + lam (-1)^n D^(2n)) x = 0``, so the optimum is
    ``x = sum c_i e^{s_i (t - tau_i)}`` over the rates ``+-1`` and the ``2n``
    roots of ``s^(2n) = (-1)^(n+1)/lam``, with every growing term anchored
    at ``tau_i = T``.  The ``2n + 2`` boundary rows ``x^(j)(0) = 0`` and
    ``x^(j)(T) = delta_j0`` (j = 0..n) are solved with ``lu_solve``, and the
    cost is integrated exactly, one pair of terms at a time.  Coincident
    rates (``lam = 1`` at odd ``n``) make the rows singular.
    """
    with mpmath.workdps(dps):
        return float(mpmath.re(sum(_order_n_parts(n, lam, T))))


def order_n_parts_mp(n, lam, T, dps=80):
    """The parts of :func:`order_n_optimum_mp` as ``(state, derivative, control_energy)`` floats.

    They are ``int x^2``, ``int x'^2`` and ``lam int v^2`` of the same
    optimum, the pair weight ``1 + s_i s_j + lam v_i v_j`` split term by
    term, as :class:`lincontrol.model.CostBreakdown` prints them.
    """
    with mpmath.workdps(dps):
        return tuple(float(mpmath.re(part)) for part in _order_n_parts(n, lam, T))


def arc_parts_mp(T, dps=80):
    """The impulsive arc's ``(state, derivative, control_energy)`` at ``dps`` digits, in closed form.

    On ``x = sinh t / sinh T`` the parts are ``(sinh 2T / 4 -+ T/2) /
    sinh^2 T``, which sum to ``coth T``; the weight is 0.
    """
    with mpmath.workdps(dps):
        T = mpmath.mpf(T)
        quarter, half, s2 = mpmath.sinh(2 * T) / 4, T / 2, mpmath.sinh(T) ** 2
        return float((quarter - half) / s2), float((quarter + half) / s2), 0.0


def sta_optimum_mp(kind, N, T, dps=60):
    """Bare optimal cost of the ``"polynomial"`` or ``"trigonometric"`` family at ``dps`` digits.

    Works in the paper's own coordinates, the monomials ``t^k`` (k = 0..N) or
    the sines ``sin(k pi t / 2T)`` (k = 1..N), with exact pair integrals of
    ``x^2 + x'^2``, and solves the KKT system of ``min c^T G c`` subject to
    the boundary rows ``B c = (0, 1, 0, 0)``.
    """
    with mpmath.workdps(dps):
        T = mpmath.mpf(T)
        if kind == "polynomial":
            ks = range(N + 1)

            def moment(m):
                return T ** (m + 1) / (m + 1)

            G = [[moment(i + j) + (i * j * moment(i + j - 2) if i and j else 0) for j in ks] for i in ks]
            B = [[int(k == 0) for k in ks], [T**k for k in ks],
                 [int(k == 1) for k in ks], [k * T ** (k - 1) for k in ks]]
        else:
            w = [k * mpmath.pi / (2 * T) for k in range(1, N + 1)]

            def pair(wi, wj, sign):
                # int_0^T of sin*sin (sign = -1) or cos*cos (sign = +1)
                d = T / 2 if wi == wj else mpmath.sin((wi - wj) * T) / (2 * (wi - wj))
                return d + sign * mpmath.sin((wi + wj) * T) / (2 * (wi + wj))

            G = [[pair(wi, wj, -1) + wi * wj * pair(wi, wj, 1) for wj in w] for wi in w]
            # x(0) = 0 holds identically, so only x(T), x'(0), x'(T) constrain
            B = [[mpmath.sin(v * T) for v in w], w, [v * mpmath.cos(v * T) for v in w]]
        n, rhs = len(G), [0, 1, 0, 0][-len(B):]
        kkt = [[2 * g for g in row] + [b[i] for b in B] for i, row in enumerate(G)]
        kkt += [list(b) + [0] * len(B) for b in B]
        c = mpmath.lu_solve(mpmath.matrix(kkt), mpmath.matrix([0] * n + rhs))[:n]
        return float(sum(c[i] * G[i][j] * c[j] for i in range(n) for j in range(n)))


def product_integral_mp(f, g, dps=50):
    """``int_0^T f g dt`` of two single exponential sums at ``dps`` digits, one term pair at a time.

    The float gammas and rates and the horizon ``T`` of ``f`` are taken as
    exact, and each term is anchored here, at ``T`` for a rate with positive
    real part and at 0 otherwise, so the result is the integral of the very
    sums the package integrates.
    """
    with mpmath.workdps(dps):
        T = mpmath.mpf(f.T)
        total = mpmath.mpc(0)
        for gi, si in zip(f.gammas, f.rates):
            for gj, sj in zip(g.gammas, g.rates):
                si, sj = mpmath.mpc(si), mpmath.mpc(sj)
                P = sum(s * T for s in (si, sj) if mpmath.re(s) > 0)
                S = si + sj
                pair = T * mpmath.exp(-P) if S == 0 else (mpmath.exp(S * T - P) - mpmath.exp(-P)) / S
                total += mpmath.mpc(gi) * mpmath.mpc(gj) * pair
        return complex(total)


def cost_functional_per_panel(traj, lam=0.0, T=None, nodes=64, panels=1):
    """The running-cost quadrature one panel at a time, from the full column table.

    Pins :func:`lincontrol.model.cost_functional`; ROADMAP item 21 retires it.

    This is the straightforward form of :func:`lincontrol.model.cost_functional`:
    one scalar-interval :func:`~lincontrol.numerics.integrate` call per panel,
    each evaluating every column of :meth:`~lincontrol.model.Trajectory.table`,
    accumulated in panel order.  The package must match it bit for bit.
    """
    if T is None:
        T = traj.T
    names = ["x", "xdot", "v"] if lam > 0 else ["x", "xdot"]
    weights = np.array([1.0, 1.0, lam])[: len(names)]

    def integrand(ts):
        cols = traj.table(ts)
        return [cols[k] ** 2 for k in names]

    edges = np.linspace(0.0, T, panels + 1)
    parts = np.zeros(3)
    for a, b in zip(edges[:-1], edges[1:]):
        parts[: len(names)] += weights * integrate(integrand, a, b, nodes)
    breakdown = CostBreakdown(parts[0], parts[1], parts[2])
    return breakdown.total, breakdown


def singular_consistency_from_table(sol, window=None):
    """:func:`lincontrol.oct.singular_consistency_check` read off the full column table.

    Pins :func:`lincontrol.oct.singular_consistency_check`; no ROADMAP item retires it.
    """
    T = sol.problem.T
    ta, tb = (0.1 * T, 0.9 * T) if window is None else window
    ts = np.linspace(ta, tb, 161)
    return fit_exponential_arc(ts, sol.trajectory.table(ts)["v" if sol.problem.n == 1 else "u"])[1]


def bits(values):
    """The float64 bytes of ``values``, so that two lists of floats compare bit for bit."""
    return np.asarray(values, dtype=float).tobytes()


def anchors_by_rule(rates, T):
    """Each term's anchor, ``T`` where the rate has positive real part and 0 elsewhere, as one ``np.where``.

    Pins :func:`lincontrol.expsums.anchors`; no ROADMAP item retires it.
    """
    return np.where(np.asarray(rates).real > 0, T, 0.0)


def term_table(rates, T, t):
    """``exp(s (t - tau))`` of each term at the times ``t``, at :func:`anchors_by_rule`, shaped ``(terms,) + t.shape``.

    Pins :func:`lincontrol.expsums._term_table`; no ROADMAP item retires it.
    """
    t = np.asarray(t, dtype=float)
    per_term = (-1,) + (1,) * t.ndim
    tau = anchors_by_rule(rates, T)
    return np.exp(np.asarray(rates).reshape(per_term) * (t - tau.reshape(per_term)))


def real_values_per_term(s, t):
    """Real parts of the rows of the :class:`ExpSum` ``s`` at ``t``, one term at a time, shaped ``(rows,) + t.shape``.

    Pins :func:`lincontrol.expsums.real_values`; no ROADMAP item retires it.

    Every term's product on :func:`term_table` is written out in real
    arithmetic, with its imaginary product even when that is an exact zero,
    and added to a ``+0.0`` start in term order.
    """
    t = np.asarray(t, dtype=float)
    g = np.asarray(s.gammas, dtype=complex)
    g = g.reshape((len(g), -1) + (1,) * t.ndim)
    e = term_table(s.rates, s.T, t)
    out = np.zeros((len(g),) + t.shape)
    for i in range(len(s.rates)):
        out += g.real[:, i] * e.real[i] - g.imag[:, i] * e.imag[i]
    return out


def pair_kernel(si, sj, T):
    """``K[i, j] = int_0^T exp(si (t - taui)) exp(sj (t - tauj)) dt`` at :func:`anchors_by_rule`, written out.

    Pins :func:`lincontrol.expsums._pair_kernel`; no ROADMAP item retires it.

    With ``S = si + sj``, ``P = si taui + sj tauj`` and ``Q = si (T - taui)
    + sj (T - tauj)`` the entry is ``(exp(Q) - exp(-P)) / S``, or the series
    ``exp(-P) T (1 + S T/2 + (S T)^2/6)`` where ``|S| T < 1e-8``, each branch
    formed in full and picked by one ``np.where``.
    """
    si, sj = np.asarray(si), np.asarray(sj)
    taui, tauj = anchors_by_rule(si, T), anchors_by_rule(sj, T)
    S = si[:, None] + sj[None, :]
    P = (si * taui)[:, None] + (sj * tauj)[None, :]
    Q = (si * (T - taui))[:, None] + (sj * (T - tauj))[None, :]
    ST = S * T
    near = np.abs(S) * T < 1e-8
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        decay = np.exp(-P)
        series = decay * T * (1.0 + ST / 2.0 + ST * ST / 6.0)
        exact = (np.exp(Q) - decay) / np.where(near, 1.0, S)
    return np.where(near, series, exact)


def square_integrals_per_pair(gammas, rates, T):
    """``int_0^T f^2 dt`` of each gamma row on ``rates`` over ``[0, T]``, as its quadratic form on :func:`pair_kernel`.

    Pins :func:`lincontrol.expsums.square_integrals`; no ROADMAP item retires it.
    """
    g = np.asarray(gammas, dtype=complex)
    return ((g @ pair_kernel(rates, rates, T)) * g).sum(axis=1).real


def telescoped_x_rows(n, state):
    """The gammas of ``x, x' .. x^(n)`` from the chain rows ``x_n, z_{n-1} .. z_0``.

    Pins the telescoping of :func:`lincontrol.oct._series_from_modes`; ROADMAP item 22c retires it.

    This is the straightforward form of the modal solve's telescoping:
    ``x' = r1 . state`` with ``r1`` the ``x1_row`` of
    :func:`lincontrol.oct._mode_tables`, ``x^(j+1) = z_j - x^(j)`` and ``x =
    z_0 - x'``, each row started from a complex zero and taken in chain
    order.  The package must match it bit for bit.
    """
    G = np.array(state, dtype=complex)
    zero = np.zeros(G.shape[1], dtype=complex)
    x1 = zero
    for wt, row in zip(_mode_tables(n).x1_row, G):
        if wt:
            x1 = x1 + wt * row
    gammas = [(zero + G[n]) - x1, x1]
    for j in range(1, n):
        gammas.append((zero + G[n - j]) - gammas[-1])
    return np.array(gammas)


def package_per_sum(problem, kind, rows, rates, *, term_ends=None, impulses=(), cost_override=None,
                    coefficients=None):
    """:func:`lincontrol.model.package_rows` on one :class:`ExpSum` per row.

    Pins :func:`lincontrol.model.package_rows`; no ROADMAP item retires it.

    This is the straightforward form of the packaging: every row of
    ``row_names(n)``, and of the adjoints when there are more rows, is its
    own sum of complex gammas over the problem's horizon, and the
    trajectory evaluates every row's sum and then picks the requested rows,
    so a request for a few rows is checked against the full stack.  The
    package must match it bit for bit.  The route's ``term_ends`` are not
    read: every value here comes from the rows' own sums.
    """
    n = problem.n
    sums = [ExpSum(np.asarray(row, dtype=complex), tuple(rates), problem.T) for row in rows]
    adjoints = len(sums) == len(row_names(n, adjoints=True))

    def evaluate(ts, index):
        return np.array([real_values(s, ts) for s in sums])[index]

    names = row_names(n, adjoints=adjoints)
    ends = evaluate(np.array([0.0, problem.T]), list(range(len(names))))
    trajectory = Trajectory(T=problem.T, n=n, names=names, evaluate=evaluate, ends=ends)
    cost_rows = np.array([sums[i].gammas for i in (0, 1, 2 * n + 1)])
    state_part, deriv_part, ctrl = square_integrals(ExpSum(cost_rows, tuple(rates), problem.T))
    breakdown = CostBreakdown(state_part, deriv_part, problem.lam * ctrl if problem.lam else 0.0)
    cost = breakdown.total if cost_override is None else cost_override
    p0 = [float(real_values(s, 0.0)) for s in sums[2 * n + 2 :]] if adjoints else []
    return ProtocolSolution(
        problem=problem, kind=kind,
        coefficients={**{f"p0_{nm}": p for nm, p in zip(adjoint_names(n), p0)}, **(coefficients or {})},
        trajectory=trajectory, impulses=tuple(impulses), cost=cost, cost_breakdown=breakdown,
    )


def arc_constants(T):
    """The impulsive arc's kicks and gammas ``(a1, coth, grow, decay)`` at the horizon ``T``, in Python floats.

    Pins the constants of :func:`lincontrol.oct.singular_solution`; ROADMAP item 18a retires it.

    The arc is ``x = grow e^(t - T) - decay e^-t`` with ``grow = e^T / (2
    sinh T)`` and ``decay = grow e^-T``, and its kicks are ``a1 = 1/sinh T``
    and ``-coth T``.  Past the float range they overflow to inf, silently.
    """
    with np.errstate(over="ignore"):
        a1 = float(1.0 / np.sinh(T))
        coth = float(1.0 / np.tanh(T))
        grow = float(1.0 / -np.expm1(-2.0 * T))
    return a1, coth, grow, grow * np.exp(-T)


def singular_endpoint_residual(T):
    """The impulsive arc's largest endpoint miss, by hand from its two gammas.

    Pins the boundary report of :func:`lincontrol.oct.singular_solution`; ROADMAP item 18a retires it.

    ``x(0) = 0`` holds exactly, so the misses are ``x(T) - 1`` and ``x'``
    against each kick of :func:`arc_constants`.
    """
    a1, coth, grow, decay = arc_constants(T)
    e = np.exp(-T)
    return float(max(abs(grow - decay * e - 1.0), abs(2.0 * decay - a1), abs(grow + decay * e - coth)))


def singular_solution_by_hand(T):
    """The impulsive arc packaged from gamma rows written out by hand.

    Pins :func:`lincontrol.oct.singular_solution`; ROADMAP item 18a retires it.

    On :func:`arc_constants`, ``x = grow e^(t - T) - decay e^-t``, ``x' =
    p_z = grow e^(t - T) + decay e^-t``, ``z = v = 2 grow e^(t - T)`` with
    its zero gamma written out, and ``p_y = -x'``, in Python float
    arithmetic.  The package forms the rows as the first-order optimum's
    row factors times ``(grow, -decay)``; the two must package the same
    solution, or be refused alike.
    """
    problem = ControlProblem(T=T, n=1, lam=0.0)
    T = problem.T
    a1, coth, grow, decay = arc_constants(T)
    xdot, z = [grow, decay], [2.0 * grow, 0.0]
    rows = [[grow, -decay], xdot, z, z, [-grow, -decay], xdot]
    rates = np.array([1.0, -1.0])
    return octmod.package_rows(
        problem, "oct-singular", rows, rates=rates, term_ends=end_values(rates, T),
        impulses=(Impulse(0.0, a1), Impulse(T, -coth)), cost_override=coth,
    )


#: ``(n, lam, T)`` of one answered modal problem per order 2..8: weight
#: ``10^(-2n)`` at ``T = 1``, a fast rate of 10.  There the modal solve misses
#: the ends of orders 7 and 8 by 2.4e-8 and 2.7e-6 and is refused, so those two
#: run at weight 1e-10 and ``T = 5`` (residuals 1.3e-11 and 4.4e-11)
CHAIN_PROBLEMS = {
    **{n: (n, 10.0 ** (-2 * n), 1.0) for n in range(2, 7)},
    7: (7, 1e-10, 5.0),
    8: (8, 1e-10, 5.0),
}


def modal_solution(n, lam, T=1.0):
    """The anchored modal solve of :func:`lincontrol.oct.solve_regular`, without its routing.

    Pins the modal route of :func:`lincontrol.oct.solve_regular`; ROADMAP item 22c retires it.

    At ``n = 1`` ``solve_regular`` returns the exponential family at every
    weight; this packages the modal solution of the same problem, so that
    the two first-order routes stay checked against each other.  The
    packaging is looked up on the module at each call, so a test that
    replaces ``lincontrol.oct.package_rows`` sees this call too.
    """
    problem = build_lq(n, lam, T)
    flow = PontryaginFlow(problem)
    rows, rates = _series_from_modes(flow)
    return octmod.package_rows(problem, "oct-regular", rows, rates, term_ends=flow.term_ends)


def json_reference(obj, indent=0):
    """Deterministic JSON with floats at 17 significant digits, one recursive call per value.

    Pins :func:`lincontrol.cli._json`; no ROADMAP item retires it.

    This is the straightforward form of :func:`lincontrol.cli._json`; the
    package must print the same bytes.
    """
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(f'{pad}  "{k}": {json_reference(v, indent + 1)}' for k, v in obj.items())
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(f"{pad}  {json_reference(v, indent + 1)}" for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format(float(obj), ".17g")
    return json.dumps(str(obj), ensure_ascii=False)
