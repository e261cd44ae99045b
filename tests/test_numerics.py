"""Contract tests for the dense-algebra and quadrature kernels."""

import os
import subprocess
import sys
import types
import warnings

import numpy as np
import pytest

import lincontrol
from lincontrol import expsums, oct as octmod
from lincontrol.expsums import FEW_COMPLEX_CELLS, FEW_POINTS, ExpSum, product_integral, real_values, square_integrals
from lincontrol.numerics import (
    DefectiveMatrix,
    NonFiniteSample,
    Overflow,
    SingularMatrix,
    eigendecompose,
    gauss_legendre,
    integrate,
    minimize_quadratic,
    solve_linear,
)
from lincontrol.oct import PontryaginFlow, build_lq
from oracles import (
    CHAIN_PROBLEMS,
    anchors_by_rule,
    eigen_reconstruction,
    eigen_residual_bounds,
    eigen_residuals,
    exponential_cofactors,
    flow_matrix,
    mat_exp,
    pair_kernel,
    product_integral_mp,
    real_values_per_term,
    term_table,
)


def exp_boundary_matrix(k, T=1.0):
    return np.array(
        [
            [1.0, 1.0, 1.0, 1.0],
            [np.exp(T), np.exp(-T), np.exp(k * T), np.exp(-k * T)],
            [1.0, -1.0, k, -k],
            [np.exp(T), -np.exp(-T), k * np.exp(k * T), -k * np.exp(-k * T)],
        ]
    )


class TestSolveLinear:
    def test_identity(self):
        x = solve_linear(np.eye(2), [1.0, 2.0])
        assert np.allclose(x, [1.0, 2.0], atol=0)

    def test_hand_invertible_2x2(self):
        x = solve_linear([[2.0, -1.0], [-1.0, 1.0]], [1.0, 0.0])
        assert np.allclose(x, [1.0, 1.0], rtol=0, atol=1e-14)

    def test_exponential_boundary_system_matches_cofactors(self):
        # independent oracle: explicit cofactor formulas for the solution
        k = 100.0
        a, b, c_scaled, d = exponential_cofactors(k)
        expected = np.array([a, b, c_scaled * np.exp(-k), d])
        h = solve_linear(exp_boundary_matrix(k), [0.0, 1.0, 0.0, 0.0])
        assert np.abs(h - expected).max() < 1e-10

    def test_singular_raises(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularMatrix):
                solve_linear([[1.0, 2.0], [2.0, 4.0]], [1.0, 1.0])

    def test_near_singular_raises(self):
        with pytest.raises(SingularMatrix, match="condition number"):
            solve_linear([[1.0, 1.0], [1.0, 1.0 + 1e-15]], [1.0, 1.0])

    def test_zero_column_raises(self):
        with pytest.raises(SingularMatrix, match="column 1 is zero"):
            solve_linear([[1.0, 0.0], [2.0, 0.0]], [1.0, 1.0])

    def test_column_scales_do_not_count_as_conditioning(self):
        x = solve_linear([[1.0, 1e300], [1.0, -1e300]], [2.0, 0.0])
        assert np.allclose(x, [1.0, 1e-300], rtol=1e-15, atol=0)

    def test_complex_system(self):
        A = np.array([[2.0 + 1.0j, 1.0], [1.0j, 3.0 - 2.0j]])
        want = np.array([1.0 - 1.0j, 0.5j])
        x = solve_linear(A, A @ want)
        assert x.dtype == complex
        assert np.abs(x - want).max() <= 1e-15

    def test_residual_property_random_systems(self):
        rng = np.random.default_rng(1234)
        for _ in range(50):
            m = rng.integers(2, 8)
            A = rng.normal(size=(m, m)) + m * np.eye(m)  # well-conditioned
            b = rng.normal(size=m)
            x = solve_linear(A, b)
            assert np.linalg.norm(A @ x - b) <= 1e-12 * (1 + np.linalg.norm(b))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="^A contains non-finite entries$"):
            solve_linear([[np.inf, 0.0], [0.0, 1.0]], [1.0, 1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(np.inf, np.nan), complex(1.0, -np.inf)])
    def test_rejects_each_kind_of_non_finite_entry(self, bad):
        with pytest.raises(ValueError, match="^A contains non-finite entries$"):
            solve_linear([[bad, 0.0], [0.0, 1.0]], [1.0, 1.0])

    @pytest.mark.parametrize("b", [[np.nan, 1.0], np.zeros(3)], ids=["non-finite", "wrong-shape"])
    def test_non_finite_matrix_is_named_before_a_bad_right_hand_side(self, b):
        with pytest.raises(ValueError, match="^A contains non-finite entries$"):
            solve_linear([[np.nan, 0.0], [0.0, 1.0]], b)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_is_named_before_a_zero_column(self, bad):
        with pytest.raises(ValueError, match="^A contains non-finite entries$"):
            solve_linear([[bad, 0.0], [1.0, 0.0]], [1.0, 1.0])

    def test_finite_entry_whose_modulus_overflows_is_solved(self):
        # |1e308 (1 + i)| overflows to inf in the column scale, but the entry is finite
        A = np.array([[1e308 + 1e308j, 1.0], [1.0, 1.0]])
        b = np.array([1.0, 1.0])
        assert solve_linear(A, b).tobytes() == np.linalg.solve(A, b).tobytes()

    @pytest.mark.parametrize("b", [1.0, np.zeros((2, 2, 2)), np.zeros(3), np.zeros((3, 1)), np.zeros(0)],
                             ids=["scalar", "3-d", "long", "long-columns", "empty"])
    def test_rejects_right_hand_side_of_wrong_shape(self, b):
        A = np.eye(1) if np.ndim(b) == 0 else np.eye(2)
        with pytest.raises(ValueError, match="b must have shape"):
            solve_linear(A, b)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(1.0, np.nan)])
    def test_rejects_non_finite_right_hand_side(self, bad):
        with pytest.raises(ValueError, match="b contains non-finite"):
            solve_linear(np.eye(2), [bad, 1.0])
        with pytest.raises(ValueError, match="b contains non-finite"):
            solve_linear(np.eye(2), [[1.0, 2.0], [bad, 1.0]])

    def test_accepts_vector_and_matrix_right_hand_sides(self):
        A = np.array([[2.0, 1.0], [1.0, 3.0]])
        B = np.array([[1.0, 0.0], [2.0, -1.0]])
        X = solve_linear(A, B)
        assert X.shape == (2, 2)
        for k in range(2):
            assert solve_linear(A, B[:, k]).tobytes() == np.linalg.solve(A, B[:, k]).tobytes()
        assert np.allclose(A @ X, B)


class TestEigendecompose:
    def test_diagonal(self):
        w, _ = eigendecompose(np.diag([3.0, 5.0]))
        assert np.allclose(w, [3.0, 5.0])

    def test_order1_flow_eigenvalues_quarter(self):
        # weight 0.25 puts the fast pair exactly at +-2
        w, _ = eigendecompose(flow_matrix(build_lq(1, 0.25)))
        assert np.allclose(sorted(w.real), [-2.0, -1.0, 1.0, 2.0], atol=1e-12)
        assert np.abs(w.imag).max() < 1e-12

    def test_order2_flow_has_complex_pairs(self):
        # oracle: roots of (mu^2 - 1)(lam (-1)^(n+1) mu^(2n) - 1) for n = 2
        lam = 5e-7
        w, _ = PontryaginFlow(build_lq(2, lam)).spectrum()
        w = np.sort_complex(w)
        assert np.abs(w.imag).max() > 1.0
        coeffs = np.zeros(7)
        coeffs[0] = -lam  # -lam mu^6
        coeffs[2] = lam  # +lam mu^4
        coeffs[4] = -1.0  # -mu^2
        coeffs[6] = 1.0
        oracle = np.sort_complex(np.roots(coeffs))
        assert np.abs(w - oracle).max() < 1e-6 * np.abs(w).max()

    def test_deterministic_ordering(self):
        A = np.array([[0.0, -2.0], [2.0, 0.0]])
        w, _ = eigendecompose(A)
        assert w[0].imag < w[1].imag

    def test_residual_invariant_at_use_sites(self):
        for A in (flow_matrix(build_lq(1, 0.25)), flow_matrix(build_lq(1, 1e-2)), np.diag([3.0, 5.0])):
            spec = eigendecompose(A)
            assert np.all(eigen_residuals(A, spec) <= eigen_residual_bounds(spec))

    def test_reconstruction_property(self):
        for lam in (0.25, 1e-2, 1e-4):
            A = flow_matrix(build_lq(1, lam))
            spec = eigendecompose(A)
            err = np.linalg.norm(A - eigen_reconstruction(spec).real)
            assert err <= 1e-9 * np.linalg.norm(A)

    def test_defective_raises(self):
        with pytest.raises(DefectiveMatrix):
            eigendecompose(np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestMatExp:
    def test_zero_time_is_identity(self):
        A = np.arange(16.0).reshape(4, 4)
        assert np.array_equal(mat_exp(A, 0.0), np.eye(4))

    def test_diagonal(self):
        E = mat_exp(np.diag([0.3, -1.2]), 1.0)
        assert np.allclose(E, np.diag(np.exp([0.3, -1.2])), rtol=1e-14)

    def test_matches_eigenbasis_reconstruction(self):
        # exp(M t) must equal V exp(D t) V^-1 assembled from the spectrum
        for lam, t in ((1e-2, 0.3), (1e-2, 1.0), (1e-4, 1.0)):
            M = flow_matrix(build_lq(1, lam))
            E = mat_exp(M, t)
            w, V = eigendecompose(M)
            E2 = (V * np.exp(w * t)) @ np.linalg.inv(V)
            assert np.abs(E - E2.real).max() <= 1e-9 * np.abs(E).max()

    def test_matches_explicit_eigenvector_matrix(self):
        # independent oracle: the order-1 flow diagonalises in closed form,
        # with eigenvector columns for rates (-1, +1, -1/sqrt(lam), +1/sqrt(lam))
        lam, t = 1e-2, 0.3
        s = np.sqrt(lam)
        P = np.array(
            [
                [1.0, 1.0, 1.0, 1.0],
                [0.0, 2.0, 1.0 - s, 1.0 + s],
                [-1.0, 2 * lam - 1.0, -s, s],
                [1.0, 1.0, lam, lam],
            ]
        )
        D = np.diag(np.exp(np.array([-1.0, 1.0, -1.0 / s, 1.0 / s]) * t))
        expected = P @ D @ np.linalg.inv(P)
        E = mat_exp(flow_matrix(build_lq(1, lam)), t)
        assert np.abs(E - expected).max() <= 1e-9 * np.abs(E).max()

    def test_overflow_raises(self):
        with pytest.raises(Overflow):
            mat_exp(flow_matrix(build_lq(1, 1e-8)), 1.0)

    def test_semigroup_property(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            A = rng.normal(size=(4, 4))
            A *= min(1.0, 5.0 / np.linalg.norm(A))
            s, t = rng.uniform(0.0, 1.0, size=2)
            lhs = mat_exp(A, s + t)
            rhs = mat_exp(A, s) @ mat_exp(A, t)
            assert np.linalg.norm(lhs - rhs) <= 1e-9


class TestIntegrate:
    def test_constant(self):
        assert integrate(lambda t: np.ones_like(t), 0.0, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_cubic_transfer_cost(self):
        # x = 3t^2 - 2t^3 has running cost exactly 11/7
        def f(t):
            x = 3 * t**2 - 2 * t**3
            xd = 6 * t - 6 * t**2
            return x * x + xd * xd

        assert integrate(f, 0.0, 1.0) == pytest.approx(11.0 / 7.0, rel=1e-14)
        assert integrate(f, 0.0, 1.0) == pytest.approx(1.57143, rel=5e-5)

    def test_cosh_arc_cost(self):
        # antiderivative sinh(2t)/(2 sinh(1)^2) gives coth(1)
        s1 = np.sinh(1.0)
        val = integrate(lambda t: np.cosh(2 * t) / s1**2, 0.0, 1.0)
        assert val == pytest.approx(1.0 / np.tanh(1.0), rel=1e-13)
        assert val == pytest.approx(1.3130353, rel=1e-6)

    @pytest.mark.parametrize("nodes", [2, 5, 16, 64])
    def test_exact_on_monomials(self, nodes):
        for degree in range(0, 2 * nodes, max(1, nodes // 2)):
            val = integrate(lambda t, d=degree: t**d, 0.0, 1.0, nodes=nodes)
            assert val == pytest.approx(1.0 / (degree + 1), rel=1e-13)

    @pytest.mark.parametrize("nodes", [64.9, 2.0, float("nan"), float("inf"), True, 1])
    def test_node_count_must_be_an_integer_of_two_or_more(self, nodes):
        # 64.9 used to integrate on 64 nodes, and nan and inf raised int()'s own errors
        with pytest.raises(ValueError, match=r"^nodes must be an integer >= 2, got "):
            gauss_legendre(nodes)
        with pytest.raises(ValueError, match=r"^nodes must be an integer >= 2, got "):
            integrate(np.exp, 0.0, 1.0, nodes)

    def test_numpy_integer_node_count(self):
        want = gauss_legendre(5, 0.0, 2.0)
        for got, ref in zip(gauss_legendre(np.int64(5), 0.0, 2.0), want):
            assert got.tobytes() == ref.tobytes()

    def test_stacked_integrands(self):
        vals = integrate(lambda t: [np.ones_like(t), t, t**2], 0.0, 1.0)
        assert vals == pytest.approx([1.0, 0.5, 1.0 / 3.0], rel=1e-14)

    @pytest.mark.parametrize(
        "f",
        [lambda t: t.sum(), lambda t: t[:-1], lambda t: np.ones((t.size, 2)), lambda t: [t, t[:-1]]],
        ids=["scalar", "short", "trailing-axis", "ragged-stack"],
    )
    def test_wrong_shape_raises(self, f):
        with pytest.raises(ValueError):
            integrate(f, 0.0, 1.0)
        with pytest.raises(ValueError):
            integrate(f, [0.0, 0.5], [0.5, 1.0])

    def test_integrand_error_propagates(self):
        # a scalar-only callable fails on the node array; nothing retries it point by point
        import math

        with pytest.raises(TypeError):
            integrate(lambda t: math.exp(t), 0.0, 1.0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_sample_raises(self):
        with pytest.raises(NonFiniteSample):
            integrate(lambda t: 1.0 / (t - t), 0.0, 1.0)

    def test_bad_interval_raises(self):
        with pytest.raises(ValueError):
            integrate(lambda t: t, 1.0, 0.0)

    @pytest.mark.parametrize("panels", [1, 2, 3, 8])
    def test_panels_match_one_call_per_panel(self, panels):
        def stacked(t):
            return [np.exp(t) * np.sin(3.0 * t), t**7, np.cosh(t)]

        def single(t):
            return np.exp(-t) * t**3

        edges = np.linspace(0.0, 2.5, panels + 1)
        got = integrate(stacked, edges[:-1], edges[1:], nodes=16)
        one = integrate(single, edges[:-1], edges[1:], nodes=16)
        assert got.shape == (3, panels) and one.shape == (panels,)
        for p, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
            assert got[:, p].tobytes() == integrate(stacked, a, b, nodes=16).tobytes()
            assert one[p].tobytes() == np.float64(integrate(single, a, b, nodes=16)).tobytes()

    @pytest.mark.parametrize("nodes", [16, 64])
    @pytest.mark.parametrize("rows", [1, 2, 3])
    def test_each_panel_rounds_as_one_dot_product(self, rows, nodes):
        # against np.dot on each panel's own rule, not against integrate itself,
        # so a contraction that rounds otherwise fails whatever path it takes
        def stacked(t):
            return np.array([np.exp(t) * np.sin(3.0 * t), t**7 - 0.3 * t, np.cosh(t) / (1.0 + t)][:rows])

        for panels in range(1, 9):
            edges = np.linspace(0.0, 2.5, panels + 1)
            got = integrate(stacked, edges[:-1], edges[1:], nodes=nodes)
            assert got.shape == (rows, panels) and got.dtype == np.float64
            for p, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
                x, w = gauss_legendre(nodes, a, b)
                y = stacked(x)
                for r in range(rows):
                    assert got[r, p].tobytes() == np.dot(w, y[r]).tobytes(), (panels, p, r)

    def test_panels_evaluate_f_once(self):
        calls = []

        def f(t):
            calls.append(t.shape)
            return t

        vals = integrate(f, [0.0, 1.0, 2.0], [1.0, 2.0, 4.0], nodes=5)
        assert calls == [(15,)]
        assert vals == pytest.approx([0.5, 1.5, 6.0], rel=1e-14)

    @pytest.mark.parametrize(
        "a, b",
        [([], []), ([0.0, 1.0], [1.0]), ([0.0], 1.0), ([[0.0]], [[1.0]]), ([0.0, 1.0], [1.0, 1.0])],
        ids=["no-panels", "lengths", "shapes", "two-dimensional", "empty-panel"],
    )
    def test_bad_panels_raise(self, a, b):
        with pytest.raises(ValueError):
            integrate(lambda t: t, a, b)


class TestMinimizeQuadratic:
    def test_identity_zero(self):
        assert np.allclose(minimize_quadratic(np.eye(3), np.zeros(3)), np.zeros(3))

    def test_quartic_family_coefficient(self):
        # one-parameter reduction: C(a) = (13/630) a^2 + (1/30) a + const = (r a + b)^2 + const'
        r = np.sqrt(13.0 / 630.0)
        a = minimize_quadratic(np.array([[r]]), np.array([1.0 / (60.0 * r)]))
        assert a[0] == pytest.approx(-21.0 / 26.0, rel=1e-12)
        assert a[0] == pytest.approx(-0.8076923, abs=1e-7)

    def test_trigonometric_two_parameter_problem(self):
        from lincontrol.sta import assemble_gram, build_trigonometric

        fam = build_trigonometric(5)
        form = assemble_gram(fam)
        names = fam.paper_coefficients(fam.coefficient_vector(minimize_quadratic(form.A, form.b)))
        assert names["a"] == pytest.approx(0.785988, abs=1e-4)
        assert names["b"] == pytest.approx(-0.356639, abs=1e-4)

    def test_empty_problem(self):
        assert minimize_quadratic(np.zeros((0, 0)), np.zeros(0)).shape == (0,)
        assert minimize_quadratic(np.zeros((3, 0)), np.ones(3)).shape == (0,)

    def test_ill_conditioned_refused(self):
        # full column rank, but cond(A) = 1e8 reaches the gate
        A = np.diag([1.0, 1e-8])
        with pytest.raises(SingularMatrix):
            minimize_quadratic(A, np.ones(2))
        assert np.all(np.isfinite(minimize_quadratic(np.diag([1.0, 2e-8]), np.ones(2))))

    def test_rank_deficient_refused(self):
        with pytest.raises(SingularMatrix):
            minimize_quadratic(np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]]), np.ones(3))

    def test_underdetermined_refused(self):
        with pytest.raises(SingularMatrix):
            minimize_quadratic(np.array([[1.0, 2.0]]), np.ones(1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            minimize_quadratic(np.array([[1.0], [bad]]), np.ones(2))
        with pytest.raises(ValueError):
            minimize_quadratic(np.eye(2), np.array([1.0, bad]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            minimize_quadratic(np.ones(3), np.ones(3))
        with pytest.raises(ValueError):
            minimize_quadratic(np.eye(2), np.ones(3))


#: solvers whose series share one set of rates per solution
STACKED_SOLVERS = {
    "singular": lambda: octmod.singular_solution(1.0),
    "first-order": lambda: octmod.regular_order1_analytic(1e-4),
    "n2": lambda: octmod.solve_regular(build_lq(2, 5e-7)),
    "n3": lambda: octmod.solve_regular(build_lq(3, 5e-9)),
}


#: the oct solvers at every order the packaging serves
OCT_SOLVERS = {
    "singular": STACKED_SOLVERS["singular"],
    "first-order": STACKED_SOLVERS["first-order"],
    **{f"n{n}": (lambda args=args: octmod.solve_regular(build_lq(*args))) for n, args in CHAIN_PROBLEMS.items()},
}


def packaged(monkeypatch, solve):
    """A solver's solution and the gamma rows it hands to the packaging step.

    The rows, one per trajectory row in the order of the trajectory's
    names, are returned as one :class:`ExpSum` over the problem's horizon.
    """
    seen = {}
    package = octmod.package_rows

    def spy(problem, kind, rows, rates, **kwargs):
        seen["sum"] = ExpSum(np.asarray(rows), tuple(rates), problem.T)
        return package(problem, kind, rows, rates, **kwargs)

    monkeypatch.setattr(octmod, "package_rows", spy)
    return solve(), seen["sum"]


def single_sums(s):
    """Each row of the :class:`ExpSum` ``s`` as a sum of its own, 1-D gammas on the same terms."""
    return [ExpSum(g, s.rates, s.T) for g in s.gammas]


def rows(s, index):
    """The rows ``index`` of the :class:`ExpSum` ``s``, on the same terms."""
    return ExpSum(s.gammas[index], s.rates, s.T)


class TestRealValues:
    @pytest.mark.parametrize("solve", STACKED_SOLVERS.values(), ids=STACKED_SOLVERS.keys())
    def test_rows_match_each_sum(self, monkeypatch, solve):
        sums = packaged(monkeypatch, solve)[1]
        T = sums.T
        ts = np.linspace(0.0, 1.0, 101)
        stack = real_values(sums, ts)
        assert stack.shape == (len(sums.gammas), ts.size)
        for s, row in zip(single_sums(sums), stack):
            assert row.tobytes() == real_values(s, ts).tobytes()
            assert all(real_values(s, float(t)).tobytes() == v.tobytes() for t, v in zip(ts, row))
            naive = np.real(sum(g * e for g, e in zip(s.gammas, term_table(s.rates, T, ts))))
            assert np.abs(row - naive).max() <= 1e-14 * np.abs(naive).max()

    @pytest.mark.parametrize("solve", STACKED_SOLVERS.values(), ids=STACKED_SOLVERS.keys())
    def test_2d_times_match_flattened(self, monkeypatch, solve):
        sums = packaged(monkeypatch, solve)[1]
        grid = np.linspace(0.0, 1.0, 60).reshape(4, 15)
        for ts in (grid, grid.T):
            got = real_values(sums, ts)
            assert got.shape == (len(sums.gammas),) + ts.shape
            assert got.tobytes() == real_values(sums, ts.ravel()).reshape(got.shape).tobytes()

    @pytest.mark.parametrize("solve", OCT_SOLVERS.values(), ids=OCT_SOLVERS.keys())
    def test_trajectory_control_rows_match_each_sum(self, monkeypatch, solve):
        # every trajectory row, z_0 .. z_{n-1} and v among them, rounds as its own sum's value
        sol, sums = packaged(monkeypatch, solve)
        n, traj = sol.problem.n, sol.trajectory
        assert traj.names[n + 1 : 2 * n + 2] == (*(f"z{k}" for k in range(n)), "v")
        assert len(sums.gammas) == len(traj.names)
        for ts in (np.linspace(0.0, sol.problem.T, 101), 0.37):
            for row, s in zip(traj(ts, *traj.names), single_sums(sums)):
                assert np.asarray(row).tobytes() == real_values(s, ts).tobytes()

    def test_scalar_value_is_a_float(self):
        s = ExpSum((1.0, 2.0 + 1.0j), (1.0, -1.0j), 1.0)
        assert type(s.value(0.5)) is float
        assert real_values(ExpSum(np.array([s.gammas, s.gammas]), s.rates, s.T), 0.5).shape == (2,)

    def test_different_rates_or_shifts_raise(self):
        # gamma rows whose length is not the number of rates
        for gammas in ((1.0,), np.ones((2, 1)), np.ones((2, 3))):
            with pytest.raises(ValueError):
                real_values(ExpSum(gammas, (1.0, 2.0), 1.0), 0.5)


#: row counts of the complex stacks below: one row, the cost quadrature's
#: ``x, x', v`` and a full table of 18 rows
COMPLEX_ROWS = (1, 3, 18)

#: for each complex stack, the most times that take the one-pass table
ONE_PASS_POINTS = tuple(FEW_COMPLEX_CELLS // rows for rows in COMPLEX_ROWS)

#: evaluation times on both sides of FEW_POINTS and of each complex stack's
#: one-pass limit, as a scalar, 1-D and 2-D arrays
BITWISE_TIMES = {
    "scalar": 0.37,
    **{f"{m}-points": np.linspace(0.0, 1.0, m) for m in (1, 2, FEW_POINTS, FEW_POINTS + 1, 101)},
    **{f"{m + d}-points": np.linspace(0.0, 1.0, m + d) for m in ONE_PASS_POINTS for d in (0, 1)},
    "2d-few": np.linspace(0.0, 1.0, 6).reshape(2, 3),
    "2d-many": np.linspace(0.0, 1.0, 60).reshape(4, 15).T,
    "2d-128": np.linspace(0.0, 1.0, 128).reshape(16, 8),
    "2d-129": np.linspace(0.0, 1.0, 129).reshape(3, 43).T,
}


def _real_sums(monkeypatch):
    return packaged(monkeypatch, STACKED_SOLVERS["first-order"])[1]


def _complex_sums(monkeypatch):
    # order 8: 18 complex rates, the 9 rows x .. x^(8) and the 9 adjoint rows
    _, sums = packaged(monkeypatch, OCT_SOLVERS["n8"])
    return rows(sums, list(range(9)) + list(range(18, 27)))


def _cost_rows(monkeypatch):
    # order 8: the rows x, x' and v that the cost quadrature evaluates
    return rows(packaged(monkeypatch, OCT_SOLVERS["n8"])[1], [0, 1, 17])


#: stacks of sums sharing their rates: real and complex, one row and many
BITWISE_STACKS = {
    "real-one-row": lambda mp: rows(_real_sums(mp), slice(1)),
    "real-stack": _real_sums,
    "complex-one-row": lambda mp: rows(_complex_sums(mp), slice(1)),
    "complex-3-rows": _cost_rows,
    "complex-18-rows": _complex_sums,
}


def one_pass_tables(monkeypatch):
    """The shapes of the product tables :func:`real_values` sums in one pass,
    one per call of ``np.add.accumulate`` in :mod:`lincontrol.expsums`."""
    shapes = []

    class Add:
        def accumulate(self, terms):
            shapes.append(terms.shape)
            return np.add.accumulate(terms)

    spy = types.ModuleType("numpy")
    spy.__getattr__ = lambda name: getattr(np, name)
    spy.add = Add()
    monkeypatch.setattr(expsums, "np", spy)
    return shapes


class TestRealValuesBitwise:
    """``real_values`` against the per-term loop, byte for byte."""

    @pytest.mark.parametrize("t", BITWISE_TIMES.values(), ids=BITWISE_TIMES.keys())
    @pytest.mark.parametrize("stack", BITWISE_STACKS.values(), ids=BITWISE_STACKS.keys())
    def test_matches_per_term_loop(self, monkeypatch, stack, t):
        sums = stack(monkeypatch)
        got, want = real_values(sums, t), real_values_per_term(sums, t)
        assert got.shape == want.shape == (len(sums.gammas),) + np.shape(t)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("stack,rows", [
        ("real-stack", 6), ("complex-one-row", 1), ("complex-3-rows", 3), ("complex-18-rows", 18),
    ])
    def test_one_pass_up_to_the_limit(self, monkeypatch, stack, rows):
        # the last times of each stack that take the one pass are in BITWISE_TIMES, and so is one more
        sums = BITWISE_STACKS[stack](monkeypatch)
        limit = FEW_POINTS if stack.startswith("real") else FEW_COMPLEX_CELLS // rows
        assert len(sums.gammas) == rows and f"{limit}-points" in BITWISE_TIMES and f"{limit + 1}-points" in BITWISE_TIMES
        tables = one_pass_tables(monkeypatch)
        for m in (limit, limit + 1):
            real_values(sums, np.linspace(0.0, 1.0, m))
        assert tables == [(len(sums.rates), rows, limit)]

    @pytest.mark.parametrize("t", BITWISE_TIMES.values(), ids=BITWISE_TIMES.keys())
    def test_complex_gammas_with_zero_imaginary_parts_give_the_real_bits(self, monkeypatch, t):
        # term_sums reads a stack as real from the dtypes alone: these gammas
        # take the complex kernel, whose imaginary products are exact zeros,
        # so the bits are those of the same gammas as floats
        sums = _real_sums(monkeypatch)
        e = expsums._term_table(np.asarray(sums.rates), sums.T, np.asarray(t, dtype=float))
        gammas = np.asarray(sums.gammas, dtype=float)
        assert e.dtype == gammas.dtype == np.float64
        real = np.vstack([gammas, -gammas, np.full_like(gammas, -0.0)])
        want = expsums.term_sums(real, e)
        for imag in (0.0, -0.0):
            complex_ = real.astype(complex)
            complex_.imag = imag
            assert expsums.term_sums(complex_, e).tobytes() == want.tobytes()

    def test_stacks_cover_both_kinds_and_18_rows(self, monkeypatch):
        real, complex_ = _real_sums(monkeypatch), _complex_sums(monkeypatch)
        assert np.isrealobj(real.rates) and not np.imag(real.gammas).any()
        assert len(complex_.gammas) == 18 and np.iscomplexobj(complex_.rates)

    @pytest.mark.parametrize("t", [0.3, np.array([0.3])], ids=["scalar", "one-point"])
    def test_single_row_sums_terms_in_order(self, t):
        # twelve terms whose sum depends on the order of addition: in term
        # order each 1 is lost against 1e16 (sum 0), a pairwise reduction keeps 8
        gammas = (1e16,) + (1.0,) * 10 + (-1e16,)
        s = ExpSum(np.array([gammas]), (0.0,) * 12, 1.0)
        want = real_values_per_term(s, t)
        assert not want.any() and np.add.reduce(np.array(gammas)[:, None])[0] == 8.0
        assert real_values(s, t).tobytes() == want.tobytes()

    @pytest.mark.parametrize("t", [0.5, np.linspace(0.0, 1.0, 3), np.linspace(0.0, 1.0, 50)],
                             ids=["scalar", "few", "many"])
    def test_negative_zero_gammas_give_positive_zero(self, t):
        zero_row = (-0.0, -0.0, -0.0, -0.0)
        stacks = (
            ExpSum(np.array([zero_row, (1.0, 2.0, 1j, -1j)]), (1.0, -1.0, 2.0 + 1.0j, 2.0 - 1.0j), 1.0),
            ExpSum(np.array([(-0.0, -0.0)]), (1.0, -1.0), 1.0),
        )
        for sums in stacks:
            got = real_values(sums, t)
            assert got.tobytes() == real_values_per_term(sums, t).tobytes()
            assert not np.signbit(got[0]).any() and not got[0].any()


#: sums sharing their rates, each exercising one branch of the pair kernel:
#: (horizon, rates, gamma rows)
KERNEL_STACKS = {
    # (1, -1 + 1e-10) and (1, -1) pairs take the near-cancelling series
    "near-cancelling": ExpSum(
        np.array([(0.7, -1.3, 0.4), (0.2, 0.9, -0.5)]), (1.0, -1.0 + 1e-10, -1.0), 1.0,
    ),
    # conjugate pairs of gammas on conjugate rates: real-valued sums
    "complex-conjugate": ExpSum(
        np.array([(0.3 + 0.4j, 0.3 - 0.4j, 1.1, -0.6), (-1.2 + 0.1j, -1.2 - 0.1j, 0.5, 0.8)]),
        (-0.5 + 3j, -0.5 - 3j, 2.0, -2.0), 2.0,
    ),
    # growing rates anchored at T, |s| T = 700: e^{700} itself is never formed
    "anchored-fast": ExpSum(
        np.array([(0.25, -0.5, 1.5, 2.0), (1.0, 1.0, -0.75, 0.5)]), (1400.0, -1400.0, 1.0, -1.0), 0.5,
    ),
    "anchored-fast-complex": ExpSum(
        np.array([(0.5 + 0.5j, 0.5 - 0.5j, 0.3 - 0.2j, 0.3 + 0.2j), (1.0j, -1.0j, 2.0, 2.0)]),
        (600.0 + 360.0j, 600.0 - 360.0j, -600.0 + 360.0j, -600.0 - 360.0j), 1.0,
    ),
}


class TestAnchors:
    @pytest.mark.parametrize("T", [5e-324, 1e-300, 1.0, 1.7976931348623157e308])
    @pytest.mark.parametrize(
        "rates",
        [
            np.array([2.0, -3.0, 0.0, -0.0, 1e-300, -5e-324]),
            np.array([1 + 2j, -1 + 2j, 0j, complex(0.0, 3.0), complex(-0.0, 3.0), complex(-0.0, -3.0), 5e-324 - 1j]),
        ],
        ids=["real", "complex"],
    )
    def test_bitwise_the_where_rule(self, rates, T):
        # +0.0 and -0.0 real parts, purely imaginary rates among them, anchor at 0
        got = expsums.anchors(rates, T)
        want = anchors_by_rule(rates, T)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def kernel_rate_sets():
    """``{name: (rates, T)}``: random real and complex sets, exact and near +-s pairs, modal rates."""
    rng = np.random.default_rng(42)
    sets = {}
    for i in range(12):
        T = float(np.exp(rng.uniform(np.log(0.05), np.log(20.0))))
        m = int(rng.integers(2, 10))
        scale = 30.0 / T  # every rate x horizon stays below about 150, so no exponential overflows
        real = rng.normal(size=m) * scale
        cplx = real + 1j * rng.normal(size=m) * scale
        sets[f"real-{i}"] = (real, T)
        sets[f"complex-{i}"] = (cplx, T)
        sets[f"pairs-real-{i}"] = (np.concatenate([real, -real]), T)
        sets[f"pairs-complex-{i}"] = (np.concatenate([cplx, -cplx, cplx.conj()]), T)
        # |S| T of 1e-9 down to 1e-14, below the series cut at 1e-8
        tiny = 10.0 ** rng.uniform(-14, -9, size=m) / T
        sets[f"near-real-{i}"] = (np.concatenate([real, -real + tiny]), T)
        sets[f"near-complex-{i}"] = (np.concatenate([cplx, -cplx + tiny * (1 - 1j)]), T)
    for n in range(2, 9):
        for lam, T in ((1e-4, 1.0), (5e-9, 3.0), (1e-12, 0.5)):
            sets[f"modal-n{n}-{lam:g}"] = (PontryaginFlow(build_lq(n, lam, T)).spectrum()[0], T)
    return sets


KERNEL_RATE_SETS = kernel_rate_sets()


class TestPairKernel:
    @pytest.mark.parametrize("rates,T", KERNEL_RATE_SETS.values(), ids=KERNEL_RATE_SETS.keys())
    def test_bitwise_the_where_formula(self, rates, T):
        # the exact quotient is written over the series where no pair is near,
        # which leaves every entry's bits as the two np.where calls had them
        f = ExpSum(np.ones(len(rates)), rates, T)
        others = [f, ExpSum(np.ones(3), np.array([1.0, -1.0, 2.5]), T), ExpSum(np.ones(2), (0.5 + 3j, -0.5 + 3j), T)]
        for g in others:
            for a, b in ((f, g), (g, f)):
                got, want = expsums._pair_kernel(a, b), pair_kernel(a.rates, b.rates, a.T)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("sums", KERNEL_STACKS.values(), ids=KERNEL_STACKS.keys())
    def test_matches_extended_precision(self, sums):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for f in single_sums(sums):
                for g in single_sums(sums):
                    got = complex(product_integral(f, g))
                    want = product_integral_mp(f, g)
                    assert abs(got - want) <= 1e-13 * abs(want)
            squares = square_integrals(sums)
        for f, got in zip(single_sums(sums), squares):
            want = product_integral_mp(f, f).real
            assert type(got) is float and abs(got - want) <= 1e-13 * abs(want)

    @pytest.mark.parametrize("rates,T", KERNEL_RATE_SETS.values(), ids=KERNEL_RATE_SETS.keys())
    def test_squares_are_the_product_integral_of_a_sum_with_itself(self, rates, T):
        # square_integrals leaves out product_integral's operand checks, not its arithmetic
        rng = np.random.default_rng(len(rates))
        for gammas in (rng.normal(size=(3, len(rates))),
                       rng.normal(size=(2, len(rates))) + 1j * rng.normal(size=(2, len(rates)))):
            s = ExpSum(gammas, rates, T)
            want = np.real(product_integral(s, s))
            got = square_integrals(s)
            assert all(type(v) is float for v in got)
            assert np.array(got).tobytes() == want.tobytes()

    @pytest.mark.parametrize("sums", KERNEL_STACKS.values(), ids=KERNEL_STACKS.keys())
    def test_stacked_rows_match_single_sums(self, sums):
        g = rows(sums, slice(None, None, -1))
        stacked = product_integral(sums, g)
        assert stacked.shape == (len(sums.gammas),)
        for a, b, row in zip(single_sums(sums), single_sums(g), stacked):
            single = product_integral(a, b)
            assert abs(row - single) <= 1e-15 * abs(single)
        for i, sq in enumerate(square_integrals(sums)):
            assert sq == pytest.approx(square_integrals(rows(sums, [i]))[0], rel=1e-15)

    @pytest.mark.parametrize("solve", STACKED_SOLVERS.values(), ids=STACKED_SOLVERS.keys())
    def test_solution_integrals_match_extended_precision(self, monkeypatch, solve):
        # the state, adjoint and control sums of real solutions, stacked as packaged
        sums = packaged(monkeypatch, solve)[1]
        for s, got in zip(single_sums(sums), square_integrals(sums)):
            want = product_integral_mp(s, s).real
            assert abs(got - want) <= 1e-13 * abs(want)

    def test_mismatched_stacks_raise(self):
        # two row counts, or gamma rows that do not match the rates on either side
        a = ExpSum(np.ones((2, 2)), (1.0, -1.0), 1.0)
        for f, g in ((a, rows(a, [0])), (a, a._replace(gammas=np.ones((2, 1)))), (a._replace(rates=(1.0,)), a)):
            with pytest.raises(ValueError, match="^gamma rows of shapes"):
                product_integral(f, g)

    def test_sums_on_different_horizons_raise(self):
        # the horizon anchors the growing terms, so a pair on two horizons has no one integral
        a = ExpSum(np.ones((1, 2)), (1.0, -1.0), 1.0)
        with pytest.raises(ValueError, match="horizons 1.0 and 2.0"):
            product_integral(a, a._replace(T=2.0))
        assert product_integral(a, a._replace(T=1)).shape == (1,)


def test_import_leaves_scipy_unloaded():
    # neither importing the package nor the sta solves, tables and validation load scipy
    src = os.path.dirname(os.path.dirname(os.path.abspath(lincontrol.__file__)))
    code = (
        "import contextlib, io, sys, lincontrol\n"
        "def loaded(): return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "print(loaded())\n"
        "from lincontrol import cli\n"
        "for argv in (['sta', 'poly'], ['table1'], ['table2'], ['validate']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "print(loaded())\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n[]\n"
