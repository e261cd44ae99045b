"""Tests for the optimal-control solvers: impulsive, generic, and closed form."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from lincontrol import oct as octmod, sta as stamod
from lincontrol.cli import _json, solution_summary
from lincontrol.expsums import ExpSum, anchors, real_values, term_sums
from lincontrol.model import (
    BoundaryResidual, ControlProblem, InvalidOrder, NegativeCostPart, adjoint_names, cost_functional, row_names,
    sample_table, verify_boundaries,
)
from lincontrol.numerics import NumericsError, Overflow
from lincontrol.oct import (
    LambdaOutOfRange,
    PontryaginFlow,
    ShootingSingular,
    build_lq,
    fit_exponential_arc,
    regular_order1_analytic,
    singular_consistency_check,
    singular_solution,
    solve_regular,
)
from lincontrol.sta import DegenerateBasis, build_exponential, solve_sta
from oracles import (
    CHAIN_PROBLEMS,
    anchors_by_rule,
    bits,
    chain_structure,
    eigen_residual_bounds,
    eigen_residuals,
    flow_matrix,
    mat_exp,
    modal_solution,
    numerical_spectrum,
    order1_optimum_mp,
    order_n_optimum_mp,
    order_n_parts_mp,
    package_per_sum,
    real_values_per_term,
    shoot_adjoint_block,
    singular_endpoint_residual,
    singular_solution_by_hand,
    square_integrals_per_pair,
    telescoped_x_rows,
    term_table,
)

COTH1 = 1.0 / np.tanh(1.0)


class TestBuildLq:
    def test_first_order_matrices(self):
        A, B, W = chain_structure(1)
        assert np.array_equal(A, [[-1.0, 0.0], [0.0, 0.0]])
        assert np.array_equal(B.ravel(), [1.0, 1.0])
        assert np.array_equal(W, [[2.0, -1.0], [-1.0, 1.0]])

    def test_state_cost_is_positive(self):
        for n in (1, 2, 3):
            eigs = np.linalg.eigvalsh(chain_structure(n)[2])
            assert eigs.min() >= -1e-12
        # first order: both eigenvalues strictly positive
        assert np.linalg.eigvalsh(chain_structure(1)[2]).min() > 0

    def test_second_order_cost_expansion(self):
        # at (x2, z1, z0) = (0, 1, 1): x' = z1 - x2 = 1, so the state cost
        # is (z0 - x')^2 + x'^2 = 0 + 1
        W = chain_structure(2)[2]
        s = np.array([0.0, 1.0, 1.0])
        assert s @ W @ s == pytest.approx(1.0, abs=1e-14)

    def test_chain_structure(self):
        # at n = 3 the rows are x3' = -x3 + v, z2' = v, z1' = z2, z0' = z1; the
        # unit chain steps A[i + 1, i] are the ones _mode_tables writes as 1
        for n in range(1, 9):
            A, B, _ = chain_structure(n)
            expected = np.zeros((n + 1, n + 1))
            expected[0, 0] = -1.0
            for i in range(1, n):
                expected[i + 1, i] = 1.0
            assert np.array_equal(A, expected)
            assert np.array_equal(B.ravel(), [1.0, 1.0] + [0.0] * (n - 1))

    def test_returns_the_control_problem(self):
        problem = build_lq(3, 1e-4, 2.0)
        assert problem == ControlProblem(T=2.0, n=3, lam=1e-4)
        assert type(problem.n) is int
        assert type(build_lq(3.0, 1e-4).n) is int

    @pytest.mark.parametrize("n", [0, 2.5, float("nan"), float("inf")])
    def test_order_that_is_not_an_integer_from_1(self, n):
        with pytest.raises(InvalidOrder, match=f"^derivative order must be an integer >= 1, got {n}$"):
            build_lq(n, 1e-3)

    def test_invalid_inputs(self):
        with pytest.raises(InvalidOrder):
            build_lq(0, 1e-3)
        # a string, None or a complex weight used to raise an untyped TypeError
        for lam in (0.0, -1e-3, np.inf, np.nan, "1e-3", None, 1j):
            with pytest.raises(LambdaOutOfRange, match="finite and positive"):
                build_lq(1, lam)

    @pytest.mark.parametrize("n", [1, 2, 8])
    def test_name_tables_are_shared_and_read_only(self, n):
        for adjoints in (False, True):
            names = row_names(n, adjoints)
            assert type(names) is tuple
            assert row_names(n, adjoints=adjoints) is names
        assert type(adjoint_names(n)) is tuple
        assert adjoint_names(n) is adjoint_names(n)
        assert row_names(n, True)[-(n + 1) :] == adjoint_names(n)
        r1 = octmod._mode_tables(n).x1_row
        # x' = z_1 - z_2 + ... + (-1)^n z_{n-1} - (-1)^n x_n, with z_j at index n - j, written out one entry at a time
        want = np.zeros(n + 1)
        for j in range(1, n):
            want[n - j] = (-1.0) ** (j + 1)
        want[0] += (-1.0) ** (n + 1)
        assert r1.tobytes() == want.tobytes()
        # the modal telescoping weighs the first n chain rows and skips z_0
        assert np.all(r1[:n] != 0.0)
        assert r1[n] == 0.0

    @pytest.mark.parametrize("T", [0.0, -1.0, np.inf, np.nan])
    def test_horizon_must_be_finite_and_positive(self, T):
        # refused before the modal solve, with ControlProblem's error and message
        with pytest.raises(ValueError, match="horizon must be finite and positive") as info:
            build_lq(2, 1e-3, T)
        assert type(info.value) is ValueError


class TestFlowSpectrum:
    def test_quarter_weight_eigenvalues(self):
        w, _ = PontryaginFlow(build_lq(1, 0.25)).spectrum()
        assert np.allclose(np.sort(w.real), [-2, -1, 1, 2], atol=1e-12)

    def test_first_order_fast_rate(self):
        for lam in (1e-2, 1e-4):
            w, _ = PontryaginFlow(build_lq(1, lam)).spectrum()
            got = np.sort(w.real)
            kap = 1.0 / np.sqrt(lam)
            assert np.allclose(got, [-kap, -1.0, 1.0, kap], rtol=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("lam", [1e-3, 1e-4, 1e-5])
    def test_spectral_pairing(self, n, lam):
        w, _ = PontryaginFlow(build_lq(n, lam)).spectrum()
        for mu in w:
            assert min(abs(mu + nu) for nu in w) <= 1e-9

    def test_pairing_scaled_at_extreme_weights(self):
        # at the smallest tabulated weights the absolute pairing residual
        # tracks eps * |mu|, so the bound is scaled by the eigenvalue size
        for n, lam in ((2, 5e-7), (3, 5e-9)):
            w, _ = PontryaginFlow(build_lq(n, lam)).spectrum()
            for mu in w:
                assert min(abs(mu + nu) for nu in w) <= 1e-9 * (1 + abs(mu))

    def test_eigen_residual_bound_at_use_sites(self):
        for n in (1, 2, 3):
            flow = PontryaginFlow(build_lq(n, 1e-4))
            spec = flow.spectrum()
            assert np.all(eigen_residuals(flow_matrix(flow.problem), spec) <= eigen_residual_bounds(spec))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_spectrum_is_the_pair_alone(self, n):
        # the closed-form spectrum carries its two arrays
        spec = PontryaginFlow(build_lq(n, 10.0 ** (-2 * n))).spectrum()
        assert type(spec) is tuple and len(spec) == 2
        m = 2 * n + 2
        assert (spec[0].shape, spec[1].shape) == ((m,), (m, m))

    def test_subnormal_weight_is_refused_without_warning(self):
        # 1/U overflows at a subnormal weight; the modal system refuses the
        # problem without a floating-point warning, which would fail here
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ShootingSingular):
                solve_regular(build_lq(2, 1e-320, 1e-79))

    def test_propagator_matches_eigenbasis(self):
        # exp(H t) against V exp(D t) V^-1 for the first-order flow
        for lam, t in ((1e-2, 0.3), (1e-4, 1.0)):
            problem = build_lq(1, lam)
            E = mat_exp(flow_matrix(problem), t)
            w, V = PontryaginFlow(problem).spectrum()
            E2 = (V * np.exp(w * t)) @ np.linalg.inv(V)
            assert np.abs(E - E2.real).max() <= 1e-9 * np.abs(E).max()

    def test_propagator_overflow_guidance(self):
        with pytest.raises(Overflow):
            mat_exp(flow_matrix(build_lq(1, 1e-8)), 1.0)


class TestExactSpectrum:
    """The closed-form eigenpairs of :meth:`PontryaginFlow.spectrum`."""

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("lam", [1e-1, 1e-2, 1e-4])
    def test_matches_numerical_spectrum(self, n, lam):
        problem = build_lq(n, lam)
        (exact, _), (numerical, _) = PontryaginFlow(problem).spectrum(), numerical_spectrum(problem)
        gap = np.abs(exact[:, None] - numerical[None, :])
        assert np.all(gap.min(axis=1) <= 1e-9 * (1 + np.abs(exact)))
        assert np.all(gap.min(axis=0) <= 1e-9 * (1 + np.abs(numerical)))

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("lam", [10.0, 1e-1, 1e-4, 1e-8, 1e-12])
    def test_rates_are_euler_lagrange_roots(self, n, lam):
        # (1 - s^2)(1 + lam (-1)^n s^(2n)) = 0, relative to the size of its terms
        w, _ = PontryaginFlow(build_lq(n, lam)).spectrum()
        assert len(w) == 2 * n + 2
        value = (1 - w**2) * (1 + lam * (-1) ** n * w ** (2 * n))
        scale = (1 + np.abs(w) ** 2) * (1 + lam * np.abs(w) ** (2 * n))
        assert np.all(np.abs(value) <= 1e-12 * scale)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_conjugate_pairs_are_exact(self, n):
        w, V = PontryaginFlow(build_lq(n, 3e-5)).spectrum()
        for i in np.flatnonzero(w.imag != 0):
            (k,) = np.flatnonzero(w == w[i].conj())
            assert V[:, k].tobytes() == V[:, i].conj().tobytes()
        real = np.flatnonzero(w.imag == 0)
        assert len(real) == (4 if n % 2 else 2)
        assert np.all(V[:, real].imag == 0)
        assert np.array_equal(np.lexsort((w.imag, w.real)), np.arange(len(w)))

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("lam", [10.0, 1e-2, 1e-4])
    def test_eigenvectors_match_numerical_directions(self, n, lam):
        problem = build_lq(n, lam)
        (w, V), (w_num, V_num) = PontryaginFlow(problem).spectrum(), numerical_spectrum(problem)
        for i, mu in enumerate(w):
            u = V[:, i]
            v = V_num[:, np.argmin(np.abs(w_num - mu))]
            cos = abs(np.vdot(u, v)) / (np.linalg.norm(u) * np.linalg.norm(v))
            assert 1 - cos <= 1e-12
            assert abs(np.abs(u).max() - 1.0) <= 4 * np.finfo(float).eps  # complex division rounds

    @pytest.mark.parametrize("n", [1, 3, 5, 7])
    def test_coincident_rates_at_unit_weight_raise(self, n):
        # s^(2n) = 1 has the roots +-1 at odd n, so two modes coincide with the
        # slow ones; at n = 1 the exponential family's basis degenerates instead
        w, _ = PontryaginFlow(build_lq(n, 1.0)).spectrum()
        assert np.sum(w == 1.0) == 2 and np.sum(w == -1.0) == 2
        with pytest.raises(DegenerateBasis if n == 1 else ShootingSingular):
            solve_regular(build_lq(n, 1.0))


class TestExactRateOracle:
    @pytest.mark.parametrize("lam,T", [(1e-2, 1.0), (1e-4, 0.3), (0.25, 5.0), (0.999999, 1.0)])
    def test_order1_agrees_with_first_order_oracle(self, lam, T):
        assert order_n_optimum_mp(1, lam, T) == pytest.approx(order1_optimum_mp(lam, T), rel=1e-13)

    @pytest.mark.parametrize(
        "n,T",
        [
            (2, 0.17782794100389232),
            (2, 0.5623413251903493),
            (4, 0.5623413251903493),
            (4, 5.623413251903493),
            (6, 1.778279410038924),
            (6, 5.623413251903493),
        ],
    )
    def test_small_weight_solves_within_1e9(self, n, T):
        # the eigensolver's rates left these 1e-5 to 3e-5 off with every check passing
        lam = 2.37137370566166e-11
        cost = solve_regular(build_lq(n, lam, T)).cost
        assert cost == pytest.approx(order_n_optimum_mp(n, lam, T), rel=1e-9)


#: (n, lam, T) with fast rate x horizon lam^(-1/2n) T between 40 and 200
PARTS_REQUESTS = [
    (2, 1e-6, 2.0),  # fr.T 63
    (2, 1e-8, 1.5),  # 150
    (3, 1e-6, 5.0),  # 50
    (3, 1e-9, 3.0),  # 95
    (4, 1e-8, 10.0),  # 100
    (4, 1e-12, 1.5),  # 47
    (4, 1e-16, 2.0),  # 200
]

#: (n, lam, T) of the envelope check, the first order and one higher order
ENVELOPE_REQUESTS = [
    (1, 1e-2, 1.0),
    (1, 1e-4, 3.0),
    (3, 1e-3, 1.0),
    pytest.param(3, 1e-6, 2.0, marks=pytest.mark.xfail(strict=True, reason=(
        "measured 1.9e-6: the control part is within 3e-15 of order_n_parts_mp, but the cost at "
        "lam (1 + 1e-6) is 1.5e-13 off order_n_optimum_mp, and the difference scales that by 1/2h"
    ))),
]


class TestCostParts:
    """Each printed cost part, not only their sum, against an oracle."""

    @pytest.mark.parametrize("n,lam,T", PARTS_REQUESTS)
    def test_parts_match_split_oracle(self, n, lam, T):
        parts = solve_regular(build_lq(n, lam, T)).cost_breakdown
        want = order_n_parts_mp(n, lam, T)
        got = (parts.state, parts.derivative, parts.control_energy)
        assert got == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("n,lam,T", PARTS_REQUESTS[::3])
    def test_split_oracle_sums_to_the_cost_oracle(self, n, lam, T):
        assert sum(order_n_parts_mp(n, lam, T)) == pytest.approx(order_n_optimum_mp(n, lam, T), rel=1e-14)

    @pytest.mark.parametrize("n,lam,T", ENVELOPE_REQUESTS)
    def test_control_energy_is_the_weight_derivative(self, n, lam, T):
        # envelope theorem: dJ/dlam = int v^2 at the optimum, so the central
        # difference in log lam is lam int v^2, the printed control part
        h = 1e-6
        up, down = (solve_regular(build_lq(n, lam * (1 + d), T)).cost for d in (h, -h))
        control = solve_regular(build_lq(n, lam, T)).cost_breakdown.control_energy
        assert (up - down) / (2 * h) == pytest.approx(control, rel=1e-6)


def test_shooting_singular_is_a_numerics_error():
    # it wraps SingularMatrix, so it is refused with the other kernel failures
    assert issubclass(ShootingSingular, NumericsError)


class TestShootAdjointBlock:
    def test_matches_closed_form_at_moderate_weight(self):
        lam = 1e-2
        p0 = shoot_adjoint_block(flow_matrix(build_lq(1, lam)), 1.0)
        sol = regular_order1_analytic(lam)
        want = np.array([sol.coefficients["p0_py"], sol.coefficients["p0_pz"]])
        assert np.abs(p0 - want).max() <= 1e-9 * np.abs(want).max()

    def test_singular_block_raises(self):
        # a flow with no control block leaves the terminal state blind to p(0)
        H = np.block([[np.zeros((2, 2)), np.zeros((2, 2))], [np.eye(2), np.zeros((2, 2))]])
        with pytest.raises(ShootingSingular):
            shoot_adjoint_block(H, 1.0)


def certified_or_refused(T):
    """``singular_solution(T)`` with every cost part >= 0, or None where it raises :class:`NegativeCostPart`.

    The arc's gammas grow like ``1/(2T)``, so only a short arc's exact state
    integral cancels below 0; a horizon of 1e-3 or more is never refused.
    """
    try:
        sol = singular_solution(T)
    except NegativeCostPart as exc:
        assert T < 1e-3 and "is negative, but it is the integral of a square" in str(exc)
        return None
    assert min(sol.cost_breakdown) >= 0
    return sol


class TestSingularSolution:
    def test_impulse_areas(self):
        sol = singular_solution(1.0)
        areas = {i.time: i.area for i in sol.impulses}
        assert areas[0.0] == pytest.approx(1.0 / np.sinh(1.0), abs=1e-12)
        assert areas[1.0] == pytest.approx(-1.0 / np.tanh(1.0), abs=1e-12)

    def test_cost_is_coth(self):
        for T in (0.5, 1.0, 2.0):
            sol = singular_solution(T)
            assert sol.cost == pytest.approx(1.0 / np.tanh(T), rel=1e-14)
        assert singular_solution(1.0).cost == pytest.approx(1.3130, abs=1e-4)

    def test_arc_profile(self):
        sol = singular_solution(1.0)
        for t in np.linspace(0.0, 1.0, 101):
            s = sol.trajectory.sample(t)
            assert s["x"] == pytest.approx(np.sinh(t) / np.sinh(1.0), abs=1e-13)
            assert s["y"] == pytest.approx(np.cosh(t) / np.sinh(1.0), abs=1e-13)
            assert s["u"] == pytest.approx(np.exp(t) / np.sinh(1.0), abs=1e-13)

    def test_boundary_value_at_horizon(self):
        assert singular_solution(1.0).trajectory.sample(1.0)["x"] == pytest.approx(1.0, abs=1e-14)

    def test_general_horizon_areas(self):
        sol = singular_solution(2.0)
        areas = {i.time: i.area for i in sol.impulses}
        assert areas[0.0] == pytest.approx(1.0 / np.sinh(2.0), abs=1e-14)
        assert areas[2.0] == pytest.approx(-1.0 / np.tanh(2.0), abs=1e-14)

    @pytest.mark.parametrize("T", [1e-320, 3e-309])
    def test_overflowing_cost_is_refused(self, T):
        # coth(T) is not representable, and the kicks and arc overflow with it
        with pytest.raises(Overflow, match="non-finite cost: inf"):
            singular_solution(T)

    @pytest.mark.parametrize("k", range(21))
    def test_short_horizon_meets_endpoints_or_raises(self, k):
        # the gammas grow like 1/(2T), so the arc loses its endpoints in float64
        T = 10.0**-k
        try:
            sol = certified_or_refused(T)
        except BoundaryResidual:
            assert k >= 8
            return
        if sol is not None:
            assert verify_boundaries(sol, tol=1e-8).passed

    @pytest.mark.parametrize("T", [1e-6, 0.5, 1.0, 2.0, 30.0, 800.0])
    def test_cost_is_coth_bitwise(self, T):
        sol = certified_or_refused(T)
        if sol is not None:
            assert sol.cost == float(1 / np.tanh(T))

    @pytest.mark.parametrize("k", range(81))
    def test_short_horizon_refusal_is_the_endpoint_oracle(self, k):
        # the refused report's largest residual is the hand formula's, bit for bit
        T = 10.0 ** (-k / 4)
        residual = singular_endpoint_residual(T)
        if not residual > 1e-8:
            certified_or_refused(T)
            return
        with pytest.raises(BoundaryResidual) as info:
            singular_solution(T)
        assert info.value.report.max_residual == residual

    def test_vanishing_horizon_raises_boundary_residual(self):
        # x(T) - 1 = -1 in float64: the packaging's certificate refuses the arc
        with pytest.raises(BoundaryResidual, match=r"^boundary residual x\(T\)-1 = -1 exceeds the tolerance 1e-08$"):
            singular_solution(1e-200)

    def test_factor_table_is_the_optimum_at_weight_0(self):
        # x, x', z, v, p_y, p_z on the rates 1 and -1, shared read-only by every arc
        assert octmod._ARC_FACTORS.tolist() == [[1, 1], [1, -1], [2, 0], [2, 0], [-1, 1], [1, -1]]
        assert not octmod._ARC_FACTORS.flags.writeable

    def test_factor_rows_package_the_hand_written_rows(self):
        # horizons 10^(-k/4) down to 1e-310: the same summary bytes, or the same
        # refusal, with every RuntimeWarning an error
        def outcome(solve, T):
            try:
                return _json(solution_summary(solve(T)))
            except (NumericsError, ValueError) as exc:
                return type(exc).__name__, str(exc)

        outcomes = set()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for k in range(1241):
                T = 10.0 ** (-k / 4)
                got = outcome(singular_solution, T)
                assert got == outcome(singular_solution_by_hand, T), T
                outcomes.add(got[0] if isinstance(got, tuple) else "answered")
        assert outcomes == {"answered", "NegativeCostPart", "BoundaryResidual", "Overflow"}

    def test_adjoints_on_singular_set(self):
        # p_y + p_z = 0 and p_y = -xdot hold identically on the arc
        sol = singular_solution(1.0)
        for t in (0.1, 0.5, 0.9):
            s = sol.trajectory.sample(t)
            assert abs(s["py"] + s["pz"]) <= 1e-13
            assert s["py"] == pytest.approx(-s["xdot"], abs=1e-13)


class TestSolveRegular:
    def test_matches_analytic_pointwise(self):
        lam = 1e-4
        generic = modal_solution(1, lam)
        closed = regular_order1_analytic(lam)
        ts = np.linspace(0.0, 1.0, 1001)
        gap = max(
            abs(generic.trajectory.sample(t)["x"] - closed.trajectory.sample(t)["x"]) for t in ts
        )
        assert gap <= 1e-9

    def test_boundary_residuals_and_cost_bracket(self):
        sol = solve_regular(build_lq(1, 1e-4))
        report = verify_boundaries(sol, tol=1e-8)
        assert report.passed
        assert COTH1 <= sol.cost_breakdown.bare <= COTH1 + 0.05

    def test_matches_exponential_basis_pointwise(self):
        # at weight 1e-4 the optimal trajectory is the rate-100 basis solution
        from lincontrol.sta import build_exponential, solve_sta

        generic = modal_solution(1, 1e-4)
        basis = solve_sta(build_exponential(100.0))
        gap = max(
            abs(generic.trajectory.sample(t)["x"] - basis.trajectory.sample(t)["x"])
            for t in np.linspace(0.0, 1.0, 501)
        )
        assert gap <= 1e-8

    def test_ode_integration_oracle(self):
        # independent check: integrate the flow from (0, p0) with tight
        # tolerances at a moderate weight and compare x(t) pointwise
        lam = 1e-2
        H = flow_matrix(build_lq(1, lam))
        sol = solve_regular(build_lq(1, lam))
        p0 = [sol.coefficients["p0_py"], sol.coefficients["p0_pz"]]
        ivp = solve_ivp(
            lambda t, X: H @ X,
            (0.0, 1.0),
            np.concatenate([np.zeros(2), p0]),
            rtol=1e-12,
            atol=1e-14,
            dense_output=True,
        )
        for t in np.linspace(0.0, 1.0, 21):
            y, z = ivp.sol(t)[:2]
            assert z - y == pytest.approx(sol.trajectory.sample(t)["x"], abs=1e-6)

    def test_cost_matches_quadrature(self):
        lam = 1e-3
        sol = solve_regular(build_lq(1, lam))
        total, _ = cost_functional(sol.trajectory, lam=lam, panels=4)
        assert total == pytest.approx(sol.cost, abs=1e-9)

    def test_regularized_dominates_bare(self):
        for lam in (1e-3, 1e-4):
            sol = solve_regular(build_lq(1, lam))
            assert sol.cost >= sol.cost_breakdown.bare >= COTH1

    @pytest.mark.parametrize("n,lam", [(2, 5e-7), (3, 5e-9)])
    def test_higher_order_boundaries(self, n, lam):
        sol = solve_regular(build_lq(n, lam))
        report = verify_boundaries(sol, tol=1e-6)
        assert report.passed
        assert abs(sol.trajectory.sample(1.0)["x"] - 1.0) <= 1e-8

    def test_higher_order_kind_tag(self):
        assert solve_regular(build_lq(2, 1e-4)).kind == "oct-higher"
        assert solve_regular(build_lq(3, 5.0)).kind == "oct-higher"
        assert solve_regular(build_lq(1, 1e-4)).kind == "oct-regular"
        assert solve_regular(build_lq(1, 2.0)).kind == "oct-regular"

    @pytest.mark.parametrize("n", CHAIN_PROBLEMS)
    def test_initial_adjoints_bitwise_per_sum(self, monkeypatch, n):
        # p0_* come from one stacked evaluation; each must round as its own sum's value(0)
        seen = []
        package = octmod.package_rows

        def spy(problem, kind, rows, rates, **kwargs):
            seen.append([ExpSum(row, tuple(rates), problem.T) for row in rows[2 * n + 2 :]])
            return package(problem, kind, rows, rates, **kwargs)

        monkeypatch.setattr(octmod, "package_rows", spy)
        sol = solve_regular(build_lq(*CHAIN_PROBLEMS[n]))
        (p_sums,) = seen
        got = [sol.coefficients[f"p0_{name}"] for name in adjoint_names(n)]
        assert all(type(p) is float for p in got)
        assert np.array(got).tobytes() == np.array([float(real_values(s, 0.0)) for s in p_sums]).tobytes()

    def test_control_identity_u_equals_z0(self):
        for sol in (
            solve_regular(build_lq(1, 1e-4)),
            solve_regular(build_lq(2, 5e-7)),
            solve_regular(build_lq(3, 5e-9)),
        ):
            for t in np.linspace(0.0, 1.0, 11):
                s = sol.trajectory.sample(t)
                # reconstructed drive xdot + x equals the z0 coordinate
                assert abs((s["xdot"] + s["x"]) - s["z0"]) <= 1e-9


#: (n, weight, horizon) that one route or another used to refuse: first order
#: below the weight floor 1e-6 of solve_regular or from 1 up (oct regular), and
#: fast rate times horizon above the cap 700 of solve_regular
FORMERLY_REFUSED = [
    (1, 1e-7, 1.0),
    (1, 1e-9, 1.0),
    (1, 1e-12, 1.0),
    (1, 2.0, 1.0),
    (1, 5.0, 1.0),
    (2, 2.37137370566166e-11, 1.778279410038924),
    (2, 2.37137370566166e-11, 5.623413251903493),
    (2, 1e-9, 5.0),
    (2, 1e-12, 10.0),
    (3, 1e-12, 10.0),
    (3, 1e-15, 5.0),
    (3, 1e-9, 50.0),
    (4, 1e-16, 8.0),
    (4, 1e-12, 25.0),
    (4, 1e-8, 500.0),
]


def _solution_bits(sol):
    """Every field of a solution, the trajectory as its 101-point table, as comparable values."""
    header, table = sample_table(sol, points=101)
    return (
        sol.kind, sol.problem, list(sol.coefficients), bits(list(sol.coefficients.values())),
        bits([sol.cost, *sol.cost_breakdown]), sol.impulses, header, table.tobytes(),
    )


class TestRouting:
    """``solve_regular`` routes every regular problem by one rule."""

    @pytest.mark.parametrize("n,lam,T", FORMERLY_REFUSED)
    def test_formerly_refused_within_oracle(self, n, lam, T):
        sol = solve_regular(build_lq(n, lam, T))
        want = order1_optimum_mp(lam, T) if n == 1 else order_n_optimum_mp(n, lam, T)
        assert sol.cost == pytest.approx(want, rel=1e-9)
        assert verify_boundaries(sol, tol=1e-8).passed

    @pytest.mark.parametrize("n,lam", [
        pytest.param(3, 1e-20, marks=pytest.mark.xfail(
            strict=True, reason="the modal amplitudes lose digits like lam^(-1/2) at n >= 3")),
        pytest.param(4, 1e-24, marks=pytest.mark.xfail(
            strict=True, raises=BoundaryResidual,
            reason="the library refuses it: x^(2)(T) misses by 3.6e-7, the digits the modal amplitudes lose")),
    ])
    def test_tiny_weight_higher_order_within_oracle(self, n, lam):
        # 2.2e-9 and 6.5e-7 off at T = 1; the same loss shows below the old
        # cap, e.g. (4, 1e-18) is 1.2e-8 off at a rate-horizon product of 178
        sol = solve_regular(build_lq(n, lam))
        assert sol.cost == pytest.approx(order_n_optimum_mp(n, lam, 1.0), rel=1e-9)
        assert verify_boundaries(sol, tol=1e-8).passed

    @pytest.mark.parametrize("lam,T", [(1e-12, 1.0), (1e-7, 1.0), (1e-4, 0.3), (1e-2, 1.0), (0.25, 5.0)])
    def test_first_order_below_unit_weight_is_the_family(self, lam, T):
        assert _solution_bits(solve_regular(build_lq(1, lam, T))) == _solution_bits(
            regular_order1_analytic(lam, T)
        )

    @pytest.mark.parametrize("lam", [1e-4, 0.5, 2.0, 5.0])
    def test_first_order_is_the_family_at_every_weight(self, lam):
        assert _solution_bits(solve_regular(build_lq(1, lam))) == _solution_bits(regular_order1_analytic(lam))

    @pytest.mark.parametrize("n,lam", [(1, 1e-4), (2, 5e-7), (3, 5e-9), (8, 1e-16)])
    def test_hand_built_problem_solves_as_build_lq(self, n, lam):
        # build_lq only validates; the solve reads nothing but the problem record
        assert _solution_bits(solve_regular(ControlProblem(T=2.0, n=n, lam=lam))) == _solution_bits(
            solve_regular(build_lq(n, lam, 2.0))
        )

    def test_zero_weight_problem_is_refused(self):
        # a ControlProblem may carry weight 0, the impulsive limit, which no regular route solves
        with pytest.raises(LambdaOutOfRange, match="energy weight must be positive"):
            solve_regular(ControlProblem(T=1, n=2, lam=0))


class TestOrder1Analytic:
    @pytest.mark.parametrize("lam", [1e-250, 1e-300])
    def test_overflowing_adjoint_is_refused(self, lam):
        # p_y carries k^3 = lam^-1.5, which leaves the float range
        with pytest.raises(Overflow, match="non-finite p0_py"):
            regular_order1_analytic(lam)

    @pytest.mark.parametrize("lam", [1e-2, 1e-4, 1e-8, 1e-12])
    def test_boundary_residuals_tiny(self, lam):
        report = verify_boundaries(regular_order1_analytic(lam), tol=1e-9)
        assert report.passed

    def test_initial_adjoint_matches_direct_formula(self):
        # direct (unrescaled) evaluation is representable at this weight
        lam, T = 1e-4, 1.0
        s = np.sqrt(lam)
        kap = 1.0 / s
        det = (
            (1 - s) ** 2 * np.exp(-(1 + kap) * T)
            - (1 + s) ** 2 * np.exp(-(1 - kap) * T)
            - (1 + s) ** 2 * np.exp((1 - kap) * T)
            + (1 - s) ** 2 * np.exp((1 + kap) * T)
            + 8 * s
        ) / (4 * (1 - lam) ** 2 * s)
        pref = 1.0 / (2 * (1 - lam) * det)
        py0 = pref * (-2 * np.exp(-T) + (1 + kap) * np.exp(-kap * T) + (1 - kap) * np.exp(kap * T))
        pz0 = pref * (np.exp(-T) - np.exp(T) - kap * np.exp(-kap * T) + kap * np.exp(kap * T))
        sol = regular_order1_analytic(lam)
        assert sol.coefficients["p0_py"] == pytest.approx(py0, rel=1e-12)
        assert sol.coefficients["p0_pz"] == pytest.approx(pz0, rel=1e-12)

    def test_weight_domain(self):
        for lam in (0.0, -1e-3, np.nan, np.inf):
            with pytest.raises(LambdaOutOfRange):
                regular_order1_analytic(lam)
        # at weight 1 the fast rates +-1/sqrt(lam) equal the slow ones +-1;
        # weights above 1 are answered (see the oracle grid below)
        with pytest.raises(DegenerateBasis):
            regular_order1_analytic(1.0)

    def test_adjoint_dynamics_finite_difference(self):
        # adjoint rates: py' = py - z + 2y, pz' = z - y
        lam = 1e-4
        sol = regular_order1_analytic(lam)
        h = 1e-5
        for t in np.linspace(h, 1.0 - h, 101):
            sp = sol.trajectory.sample(t + h)
            sm = sol.trajectory.sample(t - h)
            s = sol.trajectory.sample(t)
            py_dot = (sp["py"] - sm["py"]) / (2 * h)
            pz_dot = (sp["pz"] - sm["pz"]) / (2 * h)
            assert abs(py_dot - (s["py"] - s["z0"] + 2 * s["y"])) <= 1e-6
            assert abs(pz_dot - (s["z0"] - s["y"])) <= 1e-6

    def test_state_dynamics_finite_difference(self):
        # state rates: lam y' = py + pz - lam y, lam z' = py + pz
        lam = 1e-4
        sol = regular_order1_analytic(lam)
        h = 1e-5
        for t in np.linspace(0.1, 0.9, 33):
            sp = sol.trajectory.sample(t + h)
            sm = sol.trajectory.sample(t - h)
            s = sol.trajectory.sample(t)
            y_dot = (sp["y"] - sm["y"]) / (2 * h)
            z_dot = (sp["z0"] - sm["z0"]) / (2 * h)
            assert lam * y_dot == pytest.approx(s["py"] + s["pz"] - lam * s["y"], abs=1e-6)
            assert lam * z_dot == pytest.approx(s["py"] + s["pz"], abs=1e-6)

    def test_singular_set_attraction(self):
        # the window max of |p_y + p_z| shrinks monotonically with the weight
        maxima = []
        for lam in (1e-3, 1e-4, 1e-5):
            sol = regular_order1_analytic(lam)
            vals = [
                abs(s["py"] + s["pz"]) for s in map(sol.trajectory.sample, np.linspace(0.1, 0.9, 81))
            ]
            maxima.append(max(vals))
        assert maxima[0] > maxima[1] > maxima[2]


    def test_exponential_family_coefficients(self):
        from lincontrol.sta import build_exponential

        sol = regular_order1_analytic(1e-4, 2.0)
        family = build_exponential(100.0, 2.0)
        # the un-anchored a, b and d, and the fast growing term anchored at T
        a, b, _, d = family.offset
        assert sol.coefficients["rate_fast"] == family.k
        assert sol.coefficients["x_coef_slow_pos"] == a
        assert sol.coefficients["x_coef_slow_neg"] == b
        assert sol.coefficients["x_coef_fast_pos_anchored"] == family.x.gammas[2]
        assert sol.coefficients["x_coef_fast_neg"] == d

    def test_near_unit_weight_raises(self):
        # k = 1/sqrt(lam) next to the slow rate: the basis degenerates
        with pytest.raises(DegenerateBasis):
            regular_order1_analytic(0.999999)

    # e^T is not representable at T = 800, but e^t is anchored at T
    @pytest.mark.parametrize(
        "lam,T",
        [(lam, T) for lam in (1.1, 2.0, 5.0, 100.0) for T in (0.1, 1.0, 10.0, 800.0)]
        + [(lam, 800.0) for lam in (1e-12, 1e-4, 0.5)],
    )
    def test_every_weight_and_horizon_within_order_n_oracle(self, lam, T):
        sol = regular_order1_analytic(lam, T)
        assert sol.cost == pytest.approx(float(order_n_optimum_mp(1, lam, T)), rel=1e-9)
        assert verify_boundaries(sol, tol=1e-8).passed

    @pytest.mark.parametrize("T", [0.1, 1.0, 10.0])
    @pytest.mark.parametrize("lam", [1e-1, 1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12])
    def test_cost_matches_extended_precision_oracle(self, lam, T):
        want = order1_optimum_mp(lam, T)
        assert regular_order1_analytic(lam, T).cost == pytest.approx(want, rel=1e-12)

    # both weight bands stop 0.01 short of 1, where the fast rates meet the
    # slow ones and the family's answers are known to be off (ROADMAP item 18, coincident rates)
    @settings(derandomize=True, deadline=None, max_examples=300, database=None)
    @given(
        log_lam=st.floats(np.log(1e-12), np.log(0.99)) | st.floats(np.log(1.01), np.log(100.0)),
        T=st.floats(0.1, 10.0) | st.floats(10.0, 800.0),
    )
    @example(log_lam=np.log(0.988), T=0.177)
    @example(log_lam=np.log(1.01), T=800.0)
    @example(log_lam=np.log(100.0), T=0.1)
    def test_typed_error_or_certified_solution(self, log_lam, T):
        lam = float(np.exp(log_lam))
        try:
            sol = regular_order1_analytic(lam, T)
        except (DegenerateBasis, NumericsError):
            return
        assert verify_boundaries(sol, tol=1e-8).passed
        assert sol.cost == pytest.approx(sol.cost_breakdown.total, rel=1e-9)
        assert sol.cost_breakdown.bare >= 1.0 / np.tanh(T) - 1e-6
        values = [sol.cost, *sol.cost_breakdown, *sol.coefficients.values()]
        values += list(sol.trajectory.table(np.linspace(0.0, T, 201)).values())
        assert all(np.all(np.isfinite(v)) for v in values)


class TestRegularCostAnalytic:
    def test_matches_quadrature(self):
        for lam, T in ((1e-2, 1.0), (1e-4, 1.0), (1e-2, 1.5)):
            sol = regular_order1_analytic(lam, T)
            total, _ = cost_functional(
                sol.trajectory, lam=lam, T=T, panels=max(4, int(1 / np.sqrt(lam) / 12))
            )
            assert regular_order1_analytic(lam, T).cost == pytest.approx(total, abs=1e-8)

    def test_tiny_weight_stays_finite(self):
        # the gap tracks 2.45 sqrt(weight), so 3.5e-3 here
        value = regular_order1_analytic(2e-6).cost
        assert np.isfinite(value)
        assert COTH1 < value <= COTH1 + 5e-3

    def test_square_root_scaling(self):
        lams = np.array([1e-4, 5e-5, 2e-5, 1e-5, 5e-6, 2e-6])
        gaps = np.array([regular_order1_analytic(l).cost - COTH1 for l in lams])
        assert np.all(np.diff(gaps) < 0) and np.all(gaps > 0)
        design = np.vstack([np.ones_like(lams), np.log(lams)]).T
        (_, q), *_ = np.linalg.lstsq(design, np.log(gaps), rcond=None)
        assert 0.45 <= q <= 0.55

    def test_monotone_decrease_to_limit(self):
        costs = [regular_order1_analytic(l).cost for l in (1e-3, 1e-4, 1e-5, 1e-6, 1e-8)]
        assert all(c1 > c2 > COTH1 for c1, c2 in zip(costs, costs[1:]))


class TestSingularConsistency:
    def test_singular_solution_is_exact(self):
        assert singular_consistency_check(singular_solution(1.0)) <= 1e-12

    def test_first_order_window(self):
        assert singular_consistency_check(regular_order1_analytic(1e-5)) <= 0.05

    def test_monotone_in_weight(self):
        devs = [
            singular_consistency_check(regular_order1_analytic(lam))
            for lam in (1e-3, 1e-4, 1e-5)
        ]
        assert devs[0] > devs[1] > devs[2]

    @pytest.mark.parametrize("n,lam,bound", [(1, 1e-5, 0.1), (2, 5e-7, 0.1), (3, 5e-9, 0.1)])
    def test_higher_orders_interior_window(self, n, lam, bound):
        sol = solve_regular(build_lq(n, lam))
        assert singular_consistency_check(sol, window=(0.2, 0.8)) <= bound

    def test_amplitude_converges_to_arc_constant(self):
        sol = regular_order1_analytic(1e-8)
        ts = np.linspace(0.1, 0.9, 81)
        Z, _ = fit_exponential_arc(ts, [sol.trajectory.sample(t)["v"] for t in ts])
        assert Z == pytest.approx(1.0 / np.sinh(1.0), abs=1e-3)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            singular_consistency_check(singular_solution(1.0), window=(0.5, 1.5))

    @pytest.mark.parametrize("window", [("0.1", "0.9"), (None, None), (0.1 + 0j, 0.9 + 0j), (0.1, "0.9"),
                                        (0.1, 0.2, 0.3), (0.5,), 0.5],
                             ids=["strings", "None", "complex", "mixed", "three", "one", "scalar"])
    def test_window_that_is_not_two_reals_is_refused(self, window):
        # compared as given, these used to raise an untyped TypeError; three
        # ends or one raised an unpacking error, and a scalar a TypeError
        with pytest.raises(ValueError, match=r"^window .* must lie inside \(0, 1\.0\)$"):
            singular_consistency_check(singular_solution(1.0), window=window)

    def test_arc_fit_refuses_times_and_values_of_different_lengths(self):
        # used to raise numpy's matmul error
        with pytest.raises(ValueError, match=r"^times of shape \(3,\) and values of shape \(2,\) differ$"):
            fit_exponential_arc([0.1, 0.2, 0.3], [1.0, 2.0])

    @pytest.mark.parametrize("ts,values,shape", [([0.1, 0.2], [0.0, 0.0], r"\(2,\)"), ([], [], r"\(0,\)")],
                             ids=["all-zero", "empty"])
    def test_arc_fit_refuses_values_with_no_nonzero_entry(self, ts, values, shape):
        # all-zero values used to warn on 0 / 0 and return a NaN deviation, and
        # empty ones to warn the same way and raise numpy's zero-size error
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"^values of shape {shape} have no nonzero entry to fit$"):
                fit_exponential_arc(ts, values)

    def test_numpy_window_reads_as_its_floats(self):
        sol = regular_order1_analytic(1e-4)
        window = (np.float32(0.25), np.int64(1) / 2)
        assert singular_consistency_check(sol, window=window) == singular_consistency_check(
            sol, window=tuple(map(float, window)))


#: every solver that hands gamma rows to the packaging
PACKAGED_SOLVERS = {
    "singular": lambda: singular_solution(1.0),
    "first-order": lambda: regular_order1_analytic(1e-4),
    # solve_regular answers first order with the exponential family, so n1 is
    # the modal solve of the same problem, packaged the same way
    "n1": lambda: modal_solution(1, 2.0),
    **{f"n{n}": (lambda args=args: solve_regular(build_lq(*args))) for n, args in CHAIN_PROBLEMS.items()},
    # the exponential family of sta: the first-order rows without the adjoints
    "sta-exp": lambda: solve_sta(build_exponential(100.0, 0.3)),
}


class TestTermEnds:
    """Each route's term end values: its boundary system's, and the packaging's end table."""

    @staticmethod
    def handed(monkeypatch, solve):
        seen = []
        package = octmod.package_rows

        def spy(problem, kind, rows, rates, **kwargs):
            seen.append((problem.T, np.asarray(rows), np.asarray(rates), kwargs["term_ends"]))
            return package(problem, kind, rows, rates, **kwargs)

        monkeypatch.setattr(octmod, "package_rows", spy)
        monkeypatch.setattr(stamod, "package_rows", spy)
        sol = solve()
        (handed,) = seen
        return sol, handed

    @pytest.mark.parametrize("solve", PACKAGED_SOLVERS.values(), ids=PACKAGED_SOLVERS.keys())
    def test_the_end_table_is_real_values_at_the_ends(self, monkeypatch, solve):
        sol, (T, rows, rates, term_ends) = self.handed(monkeypatch, solve)
        t = np.array([0.0, T])
        # real_values' own table at t = (0, T), in its layout and arithmetic
        assert term_ends.shape == (2, len(rates))
        assert term_ends.T.tobytes() == term_table(rates, T, t).tobytes()
        want = real_values(ExpSum(rows, rates, T), t)
        assert term_sums(rows, term_ends.T).tobytes() == want.tobytes()
        assert sol.trajectory.ends.tobytes() == want.tobytes()

    @pytest.mark.parametrize("args", CHAIN_PROBLEMS.values(), ids=[f"n{n}" for n in CHAIN_PROBLEMS])
    def test_a_modal_solve_forms_one_end_table(self, monkeypatch, args):
        # the modal system and the packaging read the same end values
        made = []
        end_values = octmod.end_values
        monkeypatch.setattr(octmod, "end_values", lambda w, T: made.append(end_values(w, T)) or made[-1])
        _, (_, _, _, term_ends) = self.handed(monkeypatch, lambda: solve_regular(build_lq(*args)))
        assert len(made) == 1 and term_ends is made[0]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_the_modal_right_hand_side_is_read_only(self, monkeypatch, n):
        seen = []
        monkeypatch.setattr(octmod, "solve_linear", lambda A, b: seen.append(b) or np.ones(len(b)))
        for _ in range(2):
            octmod._modal_amplitudes(PontryaginFlow(build_lq(n, 1e-4, 2.0)))
        first, second = seen
        assert first is second and not first.flags.writeable
        want = np.zeros(2 * n + 2, dtype=complex)
        want[-1] = 1.0  # at rest at t = 0, and z_0 = x + x' = 1 at t = T
        assert first.tobytes() == want.tobytes()


class TestPackagingBitwise:
    """The gamma-row packaging against one exponential sum per row, byte for byte."""

    @staticmethod
    def packaged_with_reference(monkeypatch, solve):
        refs = []
        package = octmod.package_rows

        def spy(problem, kind, rows, rates, **kwargs):
            refs.append(package_per_sum(problem, kind, rows, rates, **kwargs))
            return package(problem, kind, rows, rates, **kwargs)

        monkeypatch.setattr(octmod, "package_rows", spy)
        monkeypatch.setattr(stamod, "package_rows", spy)
        sol = solve()
        (ref,) = refs
        return sol, ref

    @pytest.mark.parametrize("solve", PACKAGED_SOLVERS.values(), ids=PACKAGED_SOLVERS.keys())
    def test_coefficients_and_costs(self, monkeypatch, solve):
        sol, ref = self.packaged_with_reference(monkeypatch, solve)
        assert list(sol.coefficients) == list(ref.coefficients)
        assert bits(list(sol.coefficients.values())) == bits(list(ref.coefficients.values()))
        assert bits([sol.cost, *sol.cost_breakdown]) == bits([ref.cost, *ref.cost_breakdown])

    @pytest.mark.parametrize("solve", PACKAGED_SOLVERS.values(), ids=PACKAGED_SOLVERS.keys())
    def test_trajectory_rows(self, monkeypatch, solve):
        sol, ref = self.packaged_with_reference(monkeypatch, solve)
        T, n, names = sol.problem.T, sol.problem.n, sol.trajectory.names
        assert names == ref.trajectory.names
        grid = np.linspace(0.0, T, 1001)
        for ts in (0.37 * T, np.array([0.0, T]), grid, grid[:1000].reshape(40, 25)):
            want = ref.trajectory(ts, *names)
            assert sol.trajectory(ts, *names).tobytes() == want.tobytes()
            # the rows the cost quadrature reads, and each row on its own
            assert sol.trajectory(ts, "x", "xdot", "v").tobytes() == want[[0, 1, 2 * n + 1]].tobytes()
            for i, name in enumerate(names):
                assert sol.trajectory(ts, name).tobytes() == want[i : i + 1].tobytes()

    @pytest.mark.parametrize("solve", PACKAGED_SOLVERS.values(), ids=PACKAGED_SOLVERS.keys())
    def test_cost_functional(self, monkeypatch, solve):
        sol, ref = self.packaged_with_reference(monkeypatch, solve)
        for lam, panels in ((0.0, 1), (sol.problem.lam, 3)):
            got, got_parts = cost_functional(sol.trajectory, lam=lam, panels=panels)
            want, want_parts = cost_functional(ref.trajectory, lam=lam, panels=panels)
            assert bits([got, *got_parts]) == bits([want, *want_parts])

    @pytest.mark.parametrize("solve", PACKAGED_SOLVERS.values(), ids=PACKAGED_SOLVERS.keys())
    def test_rows_and_costs_at_the_written_out_anchors(self, monkeypatch, solve):
        # the producers hand over rows and rates only; every term is anchored
        # here by hand, at T where its rate grows and at 0 otherwise
        seen = []
        package = octmod.package_rows

        def spy(problem, kind, rows, rates, **kwargs):
            seen.append((problem, np.asarray(rows, dtype=complex), np.asarray(rates)))
            return package(problem, kind, rows, rates, **kwargs)

        monkeypatch.setattr(octmod, "package_rows", spy)
        monkeypatch.setattr(stamod, "package_rows", spy)
        sol = solve()
        ((problem, rows, rates),) = seen
        T, n, names = problem.T, problem.n, sol.trajectory.names
        tau = anchors_by_rule(rates, T)
        assert tau.any() and not tau.all()
        for ts in (np.linspace(0.0, T, 101), np.array([0.0, T])):
            assert sol.trajectory(ts, *names).tobytes() == real_values_per_term(ExpSum(rows, rates, T), ts).tobytes()
        state, deriv, ctrl = square_integrals_per_pair(rows[[0, 1, 2 * n + 1]], rates, T)
        got = sol.cost_breakdown
        assert bits([got.state, got.derivative, got.control_energy]) == bits(
            [state, deriv, problem.lam * ctrl if problem.lam else 0.0]
        )

    @pytest.mark.parametrize("n", range(1, 9))
    def test_modal_matrices_match_per_row_products(self, n):
        flow = PontryaginFlow(build_lq(n, 10.0 ** (-2 * n)))
        rows, rates = octmod._series_from_modes(flow)
        w, V, c = octmod._modal_amplitudes(flow)
        state = np.array([c * V[j] for j in range(n + 1)])  # x_n, z_{n-1} .. z_0
        assert rows.shape == (len(row_names(n, adjoints=True)), len(w))
        assert rows[: n + 1].tobytes() == telescoped_x_rows(n, state).tobytes()  # x .. x^(n)
        assert rows[n + 1 : 2 * n + 1].tobytes() == state[n:0:-1].tobytes()  # z_0 .. z_{n-1}
        assert rows[2 * n + 1].tobytes() == (c * w * V[1]).tobytes()  # v
        assert rows[2 * n + 2 :].tobytes() == np.array([c * V[n + 1 + j] for j in range(n + 1)]).tobytes()
        assert rates.tobytes() == w.tobytes()
        assert anchors(rates, 1.0).tolist() == anchors_by_rule(w, 1.0).tolist()

    @pytest.mark.parametrize("T", [0.5, 1.0, 30.0])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_modal_system_is_the_written_out_end_values(self, monkeypatch, n, T):
        # a mode anchored at tau carries exp(-w tau) at t = 0 and exp(w (T - tau)) at t = T
        seen = []
        monkeypatch.setattr(octmod, "solve_linear", lambda A, b: seen.append(np.array(A)) or np.ones(len(b)))
        flow = PontryaginFlow(build_lq(n, 1e-4, T))
        octmod._modal_amplitudes(flow)
        w, V = flow.spectrum()
        at0, atT = term_table(w, T, np.array([0.0, T])).T
        want = np.vstack([V[: n + 1] * at0, V[: n + 1] * atT])
        assert len(seen) == 1 and seen[0].tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", range(2, 9))
    def test_telescoped_x_rows_match_the_loop_reference(self, n):
        solved = 0
        for lam in (1e-12, 1e-9, 1e-6, 1e-3, 0.1, 0.5, 2.0):
            for T in (0.1, 0.5, 1.0, 3.0, 10.0, 50.0):
                flow = PontryaginFlow(build_lq(n, lam, T))
                try:
                    rows, _ = octmod._series_from_modes(flow)
                except ShootingSingular:
                    continue
                w, V, c = octmod._modal_amplitudes(flow)
                with np.errstate(over="ignore", invalid="ignore"):
                    want = telescoped_x_rows(n, c * V[: n + 1])
                assert rows[: n + 1].tobytes() == want.tobytes(), (lam, T)
                solved += 1
        assert solved >= 22  # 42 requests solve at n = 2 and 3, 22 at n = 8; the rest are refused

    def test_first_order_matrices_match_term_wise_products(self, monkeypatch):
        lam = 1e-4
        seen = []
        package = octmod.package_rows

        def spy(problem, kind, rows, rates, **kwargs):
            seen.append(rows)
            return package(problem, kind, rows, rates, **kwargs)

        monkeypatch.setattr(octmod, "package_rows", spy)
        regular_order1_analytic(lam)
        x = build_exponential(1.0 / np.sqrt(lam)).x
        r = np.array(x.rates)
        py = lam * (r * r * r + r * r) - r
        # x, x', z, v, p_y, p_z: x's own gammas, then term-wise rate polynomials
        factors = [np.ones(4), r, 1.0 + r, r * r + r, py, lam * (r * r + r) - py]
        want = [[g * f for g, f in zip(x.gammas, row)] for row in factors]
        (rows,) = seen
        assert bits(rows) == bits(want)

    @pytest.mark.parametrize("lam,T", [(1e-4, 1.0), (1e-2, 0.3), (2.0, 1.0), (1e-12, 5.0), (0.5, 800.0)])
    def test_first_order_x_rows_match_exponential_family(self, lam, T):
        # the first-order optimum is the exponential family: its x and x' rows
        # carry the family's own gammas, so both solutions print the same bits
        sol = regular_order1_analytic(lam, T)
        family = solve_sta(build_exponential(1.0 / np.sqrt(lam), T), ControlProblem(T, 1, lam))
        ts = np.linspace(0.0, T, 1001)
        for t in (ts, 0.37 * T, np.array([0.0, T])):
            assert sol.trajectory(t, "x", "xdot").tobytes() == family.trajectory(t, "x", "xdot").tobytes()
        got = [sol.cost, *sol.cost_breakdown]
        want = [family.cost, *family.cost_breakdown]
        assert all(abs(g - w) <= 1e-13 * abs(w) for g, w in zip(got, want))
