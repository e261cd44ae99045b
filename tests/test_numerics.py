"""Contract tests for the dense-algebra and quadrature kernels."""

import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import lincontrol
from lincontrol import oct as octmod
from lincontrol.expsums import ExpSum, real_values
from lincontrol.numerics import (
    DefectiveMatrix,
    NonFiniteSample,
    Overflow,
    SingularMatrix,
    eigendecompose,
    integrate,
    mat_exp,
    minimize_quadratic,
    solve_linear,
)
from lincontrol.oct import PontryaginFlow, build_lq
from oracles import exponential_cofactors


def order1_flow_matrix(lam):
    return PontryaginFlow(build_lq(1, lam)).H


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
        with pytest.raises(ValueError):
            solve_linear([[np.inf, 0.0], [0.0, 1.0]], [1.0, 1.0])


class TestEigendecompose:
    def test_diagonal(self):
        spec = eigendecompose(np.diag([3.0, 5.0]))
        assert np.allclose(spec.eigenvalues, [3.0, 5.0])

    def test_order1_flow_eigenvalues_quarter(self):
        # weight 0.25 puts the fast pair exactly at +-2
        spec = eigendecompose(order1_flow_matrix(0.25))
        assert np.allclose(sorted(spec.eigenvalues.real), [-2.0, -1.0, 1.0, 2.0], atol=1e-12)
        assert np.abs(spec.eigenvalues.imag).max() < 1e-12

    def test_order2_flow_has_complex_pairs(self):
        # oracle: roots of (mu^2 - 1)(lam (-1)^(n+1) mu^(2n) - 1) for n = 2
        lam = 5e-7
        spec = PontryaginFlow(build_lq(2, lam)).spectrum()
        w = np.sort_complex(spec.eigenvalues)
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
        spec = eigendecompose(A)
        assert spec.eigenvalues[0].imag < spec.eigenvalues[1].imag

    def test_residual_invariant_at_use_sites(self):
        for A in (order1_flow_matrix(0.25), order1_flow_matrix(1e-2), np.diag([3.0, 5.0])):
            spec = eigendecompose(A)
            assert np.all(spec.residuals <= spec.residual_bounds())

    def test_reconstruction_property(self):
        for lam in (0.25, 1e-2, 1e-4):
            A = order1_flow_matrix(lam)
            spec = eigendecompose(A)
            err = np.linalg.norm(A - spec.reconstruct().real)
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
            M = order1_flow_matrix(lam)
            E = mat_exp(M, t)
            spec = eigendecompose(M)
            V = spec.eigenvectors
            E2 = (V * np.exp(spec.eigenvalues * t)) @ np.linalg.inv(V)
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
        E = mat_exp(order1_flow_matrix(lam), t)
        assert np.abs(E - expected).max() <= 1e-9 * np.abs(E).max()

    def test_overflow_raises(self):
        with pytest.raises(Overflow):
            mat_exp(order1_flow_matrix(1e-8), 1.0)

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

    def test_stacked_integrands(self):
        vals = integrate(lambda t: [np.ones_like(t), t, t**2], 0.0, 1.0)
        assert vals == pytest.approx([1.0, 0.5, 1.0 / 3.0], rel=1e-14)

    def test_scalar_only_callable(self):
        import math

        assert integrate(lambda t: math.exp(t), 0.0, 1.0) == pytest.approx(np.e - 1, rel=1e-14)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_sample_raises(self):
        with pytest.raises(NonFiniteSample):
            integrate(lambda t: 1.0 / (t - t), 0.0, 1.0)

    def test_bad_interval_raises(self):
        with pytest.raises(ValueError):
            integrate(lambda t: t, 1.0, 0.0)


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


#: solvers whose series share one rates/shifts tuple per solution
STACKED_SOLVERS = {
    "singular": lambda: octmod.singular_solution(1.0),
    "first-order": lambda: octmod.regular_order1_analytic(1e-4),
    "n2": lambda: octmod.solve_regular(build_lq(2, 5e-7)),
    "n3": lambda: octmod.solve_regular(build_lq(3, 5e-9)),
}


def packaged_series(monkeypatch, solve):
    """Every exponential sum a solver hands to the packaging step."""
    seen = []
    package = octmod._chain_solution

    def spy(problem, kind, state_sums, p_sums, v_sum, **kwargs):
        seen.extend([*state_sums, *p_sums, v_sum])
        return package(problem, kind, state_sums, p_sums, v_sum, **kwargs)

    monkeypatch.setattr(octmod, "_chain_solution", spy)
    solve()
    return seen


class TestRealValues:
    @pytest.mark.parametrize("solve", STACKED_SOLVERS.values(), ids=STACKED_SOLVERS.keys())
    def test_rows_match_each_sum(self, monkeypatch, solve):
        sums = packaged_series(monkeypatch, solve)
        ts = np.linspace(0.0, 1.0, 101)
        stack = real_values(sums, ts)
        assert stack.shape == (len(sums), ts.size)
        for s, row in zip(sums, stack):
            assert row.tobytes() == s.value(ts).tobytes()
            assert all(np.float64(s.value(float(t))).tobytes() == v.tobytes() for t, v in zip(ts, row))
            naive = np.real(sum(
                g * np.exp(r * (ts - sh)) for g, r, sh in zip(s.gammas, s.rates, s.shifts)
            ))
            assert np.abs(row - naive).max() <= 1e-14 * np.abs(naive).max()

    def test_scalar_value_is_a_float(self):
        s = ExpSum((1.0, 2.0 + 1.0j), (1.0, -1.0j), (0.0, 0.0))
        assert type(s.value(0.5)) is float
        assert real_values([s, s], 0.5).shape == (2,)

    def test_different_rates_or_shifts_raise(self):
        a = ExpSum((1.0,), (1.0,), (0.0,))
        with pytest.raises(ValueError):
            real_values([a, ExpSum((1.0,), (2.0,), (0.0,))], 0.5)
        with pytest.raises(ValueError):
            real_values([a, ExpSum((1.0,), (1.0,), (1.0,))], 0.5)


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
