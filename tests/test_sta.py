"""Tests for the basis families, constraint elimination, and Gram minimisation."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lincontrol.model import ControlProblem, InvalidOrder, cost_functional, verify_boundaries
from lincontrol.numerics import NumericsError, Overflow, SingularMatrix, minimize_quadratic
from lincontrol.sta import (
    DegenerateBasis,
    assemble_gram,
    build_exponential,
    build_polynomial,
    build_trigonometric,
    solve_sta,
)
from oracles import exponential_cofactors, sta_optimum_mp

FAMILIES = {
    "poly4": lambda: build_polynomial(4),
    "poly6": lambda: build_polynomial(6),
    "trig5": lambda: build_trigonometric(5),
    "trig6": lambda: build_trigonometric(6),
}


def paper_names(fam, params):
    """The reported coefficients of the family member at free parameters ``params``."""
    return fam.paper_coefficients(fam.coefficient_vector(params))


def monomials(names, N):
    return [names[f"a{k}"] for k in range(2, N + 1)]


class TestPolynomialFamily:
    def test_unique_cubic(self):
        fam = build_polynomial(3)
        assert fam.free_dim == 0
        assert np.allclose(monomials(paper_names(fam, ()), 3), [3.0, -2.0], atol=1e-13)

    def test_quartic_parametrisation(self):
        # monomials (a2, a3, a4) = (3 + a, -(2 + 2a), a)
        fam = build_polynomial(4)
        for p in (-0.8076923, 0.0, 2.5):
            names = paper_names(fam, [p])
            a = names["a"]
            assert np.allclose(monomials(names, 4), [3 + a, -(2 + 2 * a), a], atol=1e-12)

    def test_quintic_parametrisation(self):
        # monomials (a2 .. a5) = (3 + a + 2b, -(2 + 2a + 3b), a, b)
        fam = build_polynomial(5)
        names = paper_names(fam, [1.25, -0.5])
        a, b = names["a"], names["b"]
        expected = [3 + a + 2 * b, -(2 + 2 * a + 3 * b), a, b]
        assert np.allclose(monomials(names, 5), expected, atol=1e-12)

    def test_free_dim_rule(self):
        for N in range(3, 9):
            assert build_polynomial(N).free_dim == N - 3

    def test_below_minimum_order(self):
        with pytest.raises(InvalidOrder):
            build_polynomial(2)

    def test_above_exact_cost_rule(self):
        # the 48-node cost rule is exact only through N = 47
        assert build_polynomial(47).free_dim == 44
        with pytest.raises(InvalidOrder):
            build_polynomial(48)

    def test_free_tail_names(self):
        names = solve_sta(build_polynomial(30)).coefficients
        assert [names[c] for c in "az"] == [names["a4"], names["a29"]]
        assert "a30" in names


class TestTrigonometricFamily:
    def test_unique_n3(self):
        fam = build_trigonometric(3)
        assert fam.free_dim == 0
        assert np.allclose(fam.coefficient_vector(()), [0.75, 0.0, -0.25], atol=1e-13)

    def test_n4_parametrisation(self):
        # sine coefficients (a1 .. a4) = (0.75 - 2a, 2a, -(0.25 + 2a), a)
        fam = build_trigonometric(4)
        names = paper_names(fam, [0.0202])
        a = names["a"]
        coeffs = [names[f"a{k}"] for k in range(1, 5)]
        assert np.allclose(coeffs, [0.75 - 2 * a, 2 * a, -(0.25 + 2 * a), a], atol=1e-12)

    def test_n6_parametrisation(self):
        fam = build_trigonometric(6)
        names = paper_names(fam, [0.3, -0.2, 0.1])
        a, b, c = names["a"], names["b"], names["c"]
        coeffs = [names[f"a{k}"] for k in range(1, 7)]
        expected = [0.75 - 2 * a - 2 * b, 2 * a - 3 * c, -(0.25 + 2 * a + b), a, b, c]
        assert np.allclose(coeffs, expected, atol=1e-12)

    def test_n5_naming_convention(self):
        # (a, b) enter the tail as a4 = a - b, a5 = b
        fam = build_trigonometric(5)
        names = paper_names(fam, [0.785988, -0.356639])
        a, b = names["a"], names["b"]
        assert names["a4"] == pytest.approx(a - b, abs=1e-12)
        assert names["a5"] == pytest.approx(b, abs=1e-12)


class TestConstraintElimination:
    @pytest.mark.parametrize("builder", [build_polynomial, build_trigonometric])
    @pytest.mark.parametrize("N", [3, 4, 5, 6, 8])
    def test_boundary_residuals_random_parameters(self, builder, N):
        fam = builder(N)
        rng = np.random.default_rng(7 * N)
        for _ in range(1000):
            p = rng.normal(scale=10.0, size=fam.free_dim)
            coeffs = fam.coefficient_vector(p)
            x0, xT, xd0, xdT = fam.boundary_values(coeffs)
            assert abs(x0) <= 1e-10
            assert abs(xT - 1.0) <= 1e-10
            assert abs(xd0) <= 1e-10
            assert abs(xdT) <= 1e-10

    @pytest.mark.parametrize("k", [0.5, 3.0, 10.0, 100.0, 450.0, 800.0, 1.0 + 1e-4, 1.0 - 1e-4])
    def test_exponential_boundary_residuals(self, k):
        fam = build_exponential(k)
        x0, xT, xd0, xdT = fam.boundary_values(fam.offset)
        assert max(abs(x0), abs(xT - 1.0), abs(xd0), abs(xdT)) <= 1e-10


class TestExponentialFamily:
    @pytest.mark.parametrize("k", [0.5, 3.0, 31.6227766, 100.0, 300.0, 650.0])
    def test_cofactors_match_direct_solve(self, k):
        fam = build_exponential(k)
        a, b, c_scaled, d = exponential_cofactors(k)
        got = np.array([fam.offset[0], fam.offset[1], fam.c_scaled, fam.offset[3]])
        want = np.array([a, b, c_scaled, d])
        assert np.all(np.abs(got - want) <= 1e-9 * np.maximum(np.abs(want), 1e-30))

    def test_degenerate_at_unit_rate(self):
        with pytest.raises(DegenerateBasis):
            build_exponential(1.0)

    @pytest.mark.parametrize(
        "k, T", [(1.0 + 1e-8, 1.0), (1.0 - 1e-8, 1.0), (1.0 + 1e-12, 1.0), (1.0 + 1e-8, 2.5)]
    )
    def test_degenerate_near_unit_rate(self, k, T):
        # the coefficients would cancel to boundary residuals of 1e-8 and worse
        with pytest.raises(DegenerateBasis):
            build_exponential(k, T)

    def test_long_horizon_raises_overflow_without_warning(self):
        # e^T leaves the float range; a numpy RuntimeWarning would fail here
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(Overflow, match="T=800"):
                build_exponential(100.0, 800.0)

    def test_large_rate_no_overflow(self):
        fam = build_exponential(1200.0)
        assert np.isfinite(fam.c_scaled)
        sol = solve_sta(fam)
        assert np.isfinite(sol.cost)
        assert sol.cost > 1.0

    def test_negative_rate_normalised(self):
        assert build_exponential(-100.0).k == 100.0

    def test_rate_100_cost(self):
        sol = solve_sta(build_exponential(100.0))
        assert sol.cost == pytest.approx(1.325271, rel=5e-5)


class TestAssembleGram:
    def test_quartic_coefficients(self):
        # C(a) = (13/630) a^2 + 2 (1/60) a + 11/7 in the paper's free coefficient a = a4
        fam = build_polynomial(4)
        form = assemble_gram(fam)
        for p in (-3.0, -0.5, 0.0, 0.7, 4.0):
            a = paper_names(fam, [p])["a"]
            expected = 13.0 / 630.0 * a * a + 2.0 / 60.0 * a + 2 * 11.0 / 14.0
            assert form.value([p]) == pytest.approx(expected, rel=1e-12)

    def test_cubic_constant(self):
        form = assemble_gram(build_polynomial(3))
        assert form.free_dim == 0
        assert form.value(()) == pytest.approx(1.57143, rel=5e-5)

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    @pytest.mark.parametrize("lam", [0.0, 1e-3])
    def test_gram_matches_quadrature(self, name, lam):
        # oracle: 64-node quadrature of the running cost at random parameters
        fam = FAMILIES[name]()
        form = assemble_gram(fam, lam)
        rng = np.random.default_rng(11)
        for _ in range(3):
            p = rng.normal(size=fam.free_dim)
            coeffs = fam.coefficient_vector(p)

            def f(t):
                x = fam.x_value(coeffs, t, 0)
                xd = fam.x_value(coeffs, t, 1)
                xdd = fam.x_value(coeffs, t, 2)
                return x * x + xd * xd + lam * (xdd + xd) ** 2

            from lincontrol.numerics import integrate

            oracle = integrate(f, 0.0, 1.0, nodes=64)
            assert abs(form.value(p) - oracle) <= 1e-10

    def test_exponential_gram_matches_quadrature(self):
        fam = build_exponential(100.0)
        form = assemble_gram(fam)
        total, _ = cost_functional(solve_sta(fam).trajectory, lam=0.0, panels=8)
        assert abs(form.c0 - total) <= 1e-10

    def test_positive_definite_enforced(self):
        for name in FAMILIES:
            fam = FAMILIES[name]()
            form = assemble_gram(fam)
            if form.free_dim:
                assert np.linalg.svd(form.A, compute_uv=False).min() > 0


class TestSolveSta:
    def test_polynomial_table(self):
        sol4 = solve_sta(build_polynomial(4))
        assert sol4.coefficients["a"] == pytest.approx(-21.0 / 26.0, abs=1e-7)
        assert sol4.cost == pytest.approx(1.55797, rel=5e-5)
        sol5 = solve_sta(build_polynomial(5))
        assert sol5.cost == pytest.approx(1.40276, rel=5e-5)
        sol6 = solve_sta(build_polynomial(6))
        assert sol6.coefficients["a"] == pytest.approx(6.956942, abs=1e-4)
        assert sol6.coefficients["b"] == pytest.approx(5.627256, abs=1e-4)
        assert sol6.coefficients["c"] == pytest.approx(-5.135011, abs=1e-4)
        assert sol6.cost == pytest.approx(1.39986, rel=5e-5)

    def test_trigonometric_table(self):
        assert solve_sta(build_trigonometric(3)).cost == pytest.approx(1.70041, rel=5e-5)
        sol4 = solve_sta(build_trigonometric(4))
        assert sol4.coefficients["a"] == pytest.approx(0.0202, abs=1e-3)
        assert sol4.cost == pytest.approx(1.69843, rel=5e-5)
        sol5 = solve_sta(build_trigonometric(5))
        assert sol5.coefficients["a"] == pytest.approx(0.785988, abs=1e-4)
        assert sol5.coefficients["b"] == pytest.approx(-0.356639, abs=1e-4)
        assert sol5.cost == pytest.approx(1.48104, rel=5e-5)
        sol6 = solve_sta(build_trigonometric(6))
        assert sol6.coefficients["a"] == pytest.approx(1.0407, abs=1e-4)
        assert sol6.coefficients["b"] == pytest.approx(-0.312242, abs=1e-4)
        assert sol6.coefficients["c"] == pytest.approx(-0.0105136, abs=1e-4)
        assert sol6.cost == pytest.approx(1.48099, rel=5e-5)

    def test_monotone_improvement_with_order(self):
        for builder in (build_polynomial, build_trigonometric):
            costs = [solve_sta(builder(N)).cost for N in (3, 4, 5, 6)]
            assert all(c1 >= c2 - 1e-12 for c1, c2 in zip(costs, costs[1:]))

    def test_minimizer_local_optimality(self):
        # nudging any free parameter must not lower the quadratic cost
        for name in FAMILIES:
            fam = FAMILIES[name]()
            form = assemble_gram(fam)
            sol = solve_sta(fam)
            p_opt = minimize_quadratic(form.A, form.b)
            base = form.value(p_opt)
            assert base == sol.cost
            for i in range(fam.free_dim):
                for delta in (-1e-3, 1e-3):
                    p = p_opt.copy()
                    p[i] += delta
                    assert form.value(p) >= base

    def test_exponential_cost_decreases_toward_singular_limit(self):
        costs = [solve_sta(build_exponential(1 / np.sqrt(lam))).cost for lam in (1e-2, 1e-3, 1e-4)]
        assert costs[0] > costs[1] > costs[2]
        assert costs[-1] <= 1.326

    def test_rejects_higher_order_problems(self):
        with pytest.raises(InvalidOrder):
            solve_sta(build_polynomial(4), ControlProblem(n=2))

    def test_horizon_mismatch(self):
        with pytest.raises(ValueError):
            solve_sta(build_polynomial(4, T=2.0), ControlProblem(T=1.0))

    def test_regularized_gram_still_solvable(self):
        sol = solve_sta(build_polynomial(5), ControlProblem(lam=1e-3))
        assert sol.cost_breakdown.control_energy > 0
        assert sol.cost == pytest.approx(sol.cost_breakdown.total, abs=1e-12)


ORACLE_HORIZONS = [0.1, 1.0, 6.31, 10.0]


class TestExtendedPrecisionOracle:
    @pytest.mark.parametrize("T", ORACLE_HORIZONS)
    @pytest.mark.parametrize("N", [*range(3, 21), 30, 47])
    def test_polynomial_cost(self, N, T):
        # the 60-digit monomial KKT system is itself singular from N = 30
        want = sta_optimum_mp("polynomial", N, T, dps=150 if N >= 30 else 60)
        assert solve_sta(build_polynomial(N, T)).cost == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("T", ORACLE_HORIZONS)
    @pytest.mark.parametrize("N", range(3, 14))
    def test_trigonometric_cost(self, N, T):
        # cond(A) reaches 9.5e6 at N = 12 and 5.1e7 at N = 13
        want = sta_optimum_mp("trigonometric", N, T)
        rel = 1e-10 if N <= 11 else 1e-9
        assert solve_sta(build_trigonometric(N, T)).cost == pytest.approx(want, rel=rel)

    @pytest.mark.parametrize("T", ORACLE_HORIZONS)
    def test_trigonometric_refused_from_order_14(self, T):
        with pytest.raises(SingularMatrix):
            solve_sta(build_trigonometric(14, T))


class TestCertificate:
    @settings(derandomize=True, deadline=None, max_examples=300, database=None)
    @given(
        family=st.one_of(
            st.tuples(st.just(build_polynomial), st.integers(3, 47)),
            st.tuples(st.just(build_trigonometric), st.integers(3, 19)),
        ),
        log_T=st.floats(np.log(0.1), np.log(10.0)),
    )
    def test_typed_error_or_certified_solution(self, family, log_T):
        # the sines' reduced Gram form fails the conditioning gate from N = 14 at every horizon
        builder, N = family
        T = float(np.exp(log_T))
        refuses = builder is build_trigonometric and N >= 14
        try:
            sol = solve_sta(builder(N, T))
        except NumericsError:
            assert refuses
            return
        assert not refuses
        assert verify_boundaries(sol, tol=1e-8).passed
        assert sol.cost == pytest.approx(sol.cost_breakdown.total, rel=1e-9)
        assert sol.cost_breakdown.bare >= 1.0 / np.tanh(T) - 1e-6
        values = [sol.cost, *sol.cost_breakdown.as_dict().values(), *sol.coefficients.values()]
        values += list(sol.trajectory.table(np.linspace(0.0, T, 201)).values())
        assert all(np.all(np.isfinite(v)) for v in values)
