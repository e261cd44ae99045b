"""Tests for the basis families, constraint elimination, and Gram minimisation."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from numpy.polynomial import Legendre
from hypothesis import strategies as st

from lincontrol import sta as stamod
from lincontrol.expsums import end_values
from lincontrol.model import ControlProblem, InvalidOrder, cost_functional, verify_boundaries
from lincontrol.numerics import (
    NumericsError,
    Overflow,
    SingularMatrix,
    gauss_legendre,
    minimize_quadratic,
    solve_linear,
)
from lincontrol.oct import regular_order1_analytic
from lincontrol.sta import (
    COST_NODES,
    DegenerateBasis,
    PolynomialAnsatz,
    TrigonometricAnsatz,
    _reference_tables,
    assemble_gram,
    build_exponential,
    build_polynomial,
    build_trigonometric,
    solve_sta,
)
from oracles import bits, boundary_values, exponential_cofactors, order_n_optimum_mp, sta_optimum_mp

FAMILIES = {
    "poly4": lambda: build_polynomial(4),
    "poly6": lambda: build_polynomial(6),
    "trig5": lambda: build_trigonometric(5),
    "trig6": lambda: build_trigonometric(6),
}


def paper_names(fam, params):
    """The reported coefficients of the family member at free parameters ``params``."""
    return fam.paper_coefficients(fam.coefficient_vector(params))


def gram_value(form, p):
    """The cost ``|A p + b|^2 + c0`` of the Gram form ``form`` at the free parameters ``p``."""
    r = form.A @ np.asarray(p, dtype=float).reshape(-1) + form.b
    return float(r @ r + form.c0)


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


class TestOrderDomain:
    @pytest.mark.parametrize("N", [3.5, float("nan"), float("inf")])
    @pytest.mark.parametrize("build,family", [(build_polynomial, "polynomial"), (build_trigonometric, "trigonometric")],
                             ids=["poly", "trig"])
    def test_non_integer_order_is_refused(self, build, family, N):
        # 3.5 used to build N = 3, and nan raised numpy's bare conversion error
        with pytest.raises(InvalidOrder, match=f"^{family} order must be an integer .*, got {N}$"):
            build(N)

    def test_sine_order_above_20_is_refused(self):
        # the cost rule is exact to roundoff for the sines only up to N = 20
        assert build_trigonometric(20).N == 20
        with pytest.raises(InvalidOrder, match=r"^trigonometric order must be an integer 3 <= N <= 20, got 21$"):
            build_trigonometric(21)

    @pytest.mark.parametrize("build", [build_polynomial, build_trigonometric], ids=["poly", "trig"])
    def test_integral_float_order_is_the_integer_order(self, build):
        assert build(5.0).N == 5 and type(build(5.0).N) is int

    @pytest.mark.parametrize("N", ["5", None, 1j, 5 + 0j, True, np.True_, 10**400],
                             ids=["str", "none", "complex", "real-complex", "bool", "numpy-bool", "huge"])
    @pytest.mark.parametrize("build,family", [(build_polynomial, "polynomial"), (build_trigonometric, "trigonometric")],
                             ids=["poly", "trig"])
    def test_order_that_is_not_a_number_is_refused(self, build, family, N):
        # a string, None or a complex used to raise an untyped TypeError from a comparison
        with pytest.raises(InvalidOrder, match=f"^{family} order must be an integer .*, got {re.escape(str(N))}$"):
            build(N)

    @pytest.mark.parametrize("N", [5, 5.0, np.int64(5), np.int32(5), np.float64(5.0), np.float32(5.0)],
                             ids=["int", "float", "int64", "int32", "float64", "float32"])
    @pytest.mark.parametrize("build", [build_polynomial, build_trigonometric], ids=["poly", "trig"])
    def test_numeric_order_types_give_the_same_bits(self, build, N):
        family = build(N)
        assert family.N == 5 and type(family.N) is int
        sol, want = solve_sta(family), solve_sta(build(5))
        assert bits([sol.cost, *sol.coefficients.values()]) == bits([want.cost, *want.coefficients.values()])


@pytest.mark.parametrize("T", [True, np.True_], ids=["bool", "numpy-bool"])
@pytest.mark.parametrize("build,first", [(build_polynomial, 6), (build_trigonometric, 6), (build_exponential, 100.0)],
                         ids=["poly", "trig", "exp"])
def test_bool_horizon_is_refused(build, first, T):
    # a bool horizon used to build the family at T = 1.0; the problem record refuses it
    with pytest.raises(ValueError, match=r"^horizon must be finite and positive, got True$"):
        build(first, T)


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
            x0, xT, xd0, xdT = boundary_values(fam, coeffs)
            assert abs(x0) <= 1e-10
            assert abs(xT - 1.0) <= 1e-10
            assert abs(xd0) <= 1e-10
            assert abs(xdT) <= 1e-10

    @pytest.mark.parametrize("k", [0.5, 3.0, 10.0, 100.0, 450.0, 800.0, 1.0 + 1e-4, 1.0 - 1e-4])
    def test_exponential_boundary_residuals(self, k):
        assert verify_boundaries(solve_sta(build_exponential(k)), tol=1e-10).passed


ELIMINATOR_ORDERS = [(build_polynomial, N) for N in (3, 4, 12, 30, 47)] + [
    (build_trigonometric, N) for N in (3, 4, 8, 13, 20)
]


class TestEliminator:
    """The boundary elimination is built once per (family, N) and serves every horizon."""

    @pytest.mark.parametrize("builder, N", ELIMINATOR_ORDERS, ids=lambda v: getattr(v, "__name__", v))
    def test_shared_across_horizons_read_only(self, builder, N):
        short, long = builder(N, 0.1), builder(N, 10.0)
        assert short.free_map is long.free_map
        assert short.offset is long.offset
        assert short.free_map.shape == (short.offset.size, N - 3)
        for array in (short.offset, short.free_map):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[...] = 0.0

    @pytest.mark.parametrize("T", [0.1, 1.0, 10.0])
    @pytest.mark.parametrize("builder, N", ELIMINATOR_ORDERS, ids=lambda v: getattr(v, "__name__", v))
    def test_end_rows_at_each_horizon(self, builder, N, T):
        # each of x(0), x(T), x'(0), x'(T) within 1e-13 of that row's largest entry,
        # times 1 + the 2-norm of the vector it is applied to
        fam = builder(N, T)
        ends = np.array([0.0, T])
        rows = fam.basis(ends, 1).transpose(0, 2, 1).reshape(4, -1)
        scale = np.abs(rows).max(axis=1)
        conditions = fam.x_stack(fam.offset, ends, 1).ravel() - [0.0, 1.0, 0.0, 0.0]
        assert np.all(np.abs(conditions) <= 1e-13 * scale * (1.0 + np.linalg.norm(fam.offset)))
        # the columns of free_map are orthonormal, so each has 2-norm 1
        assert np.all(np.abs(rows @ fam.free_map) <= 2e-13 * scale[:, None])

    @pytest.mark.parametrize("builder", [build_polynomial, build_trigonometric])
    def test_zero_weight_gram_has_no_control_rows(self, builder):
        fam = builder(8, 0.7)
        assert fam.gram(0.0).A.shape == (2 * COST_NODES, 5)
        assert fam.gram(1e-3).A.shape == (3 * COST_NODES, 5)

    @pytest.mark.parametrize("T", [0.1, 0.158])
    @pytest.mark.parametrize("N", [12, 20, 30])
    def test_polynomial_cost_short_horizons(self, N, T):
        want = sta_optimum_mp("polynomial", N, T, dps=150)
        assert solve_sta(build_polynomial(N, T)).cost == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("T", [0.1, 0.158, 1.0, 6.31, 10.0])
    @pytest.mark.parametrize("N", [12, 13])
    def test_trigonometric_cost_near_the_gate(self, N, T):
        # cond(A) is 9.5e6 and 5.1e7 at these orders; the gap is rounding at that scale
        want = sta_optimum_mp("trigonometric", N, T)
        assert solve_sta(build_trigonometric(N, T)).cost == pytest.approx(want, rel=2.7e-10)


class TestExponentialFamily:
    @pytest.mark.parametrize("k", [0.5, 3.0, 31.6227766, 100.0, 300.0, 650.0])
    def test_cofactors_match_direct_solve(self, k):
        fam = build_exponential(k)
        a, b, c_scaled, d = exponential_cofactors(k)
        got = np.array([fam.offset[0], fam.offset[1], fam.x.gammas[2], fam.offset[3]])
        want = np.array([a, b, c_scaled, d])
        assert np.all(np.abs(got - want) <= 1e-9 * np.maximum(np.abs(want), 1e-30))

    @pytest.mark.parametrize("solve", [
        lambda: solve_sta(build_exponential(37.5, 2.25), ControlProblem(T=2.25, n=1, lam=0.0)),
        lambda: regular_order1_analytic(3e-6, 0.75),
    ], ids=["sta-exp", "first-order"])
    def test_a_fresh_solve_forms_and_solves_its_system_once(self, monkeypatch, solve):
        # one end table and one linear solve per solution, however it is packaged
        calls = []
        for name in ("end_values", "solve_linear"):
            original = getattr(stamod, name)
            monkeypatch.setattr(stamod, name, lambda *args, _f=original, _name=name: calls.append(_name) or _f(*args))
        solve()
        assert calls == ["end_values", "solve_linear"]

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

    def test_long_horizon_without_warning(self):
        # e^T is not representable, but both growing terms are anchored at T,
        # so no entry overflows; a numpy RuntimeWarning would fail here
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fam = build_exponential(100.0, 800.0)
            sol = solve_sta(fam, ControlProblem(T=800.0, n=1, lam=1e-4))
        # the un-anchored a and c underflow to 0; at weight k^-2 the family is the optimum
        assert fam.offset[0] == 0.0 and fam.offset[2] == 0.0
        assert sol.cost == pytest.approx(float(order_n_optimum_mp(1, 1e-4, 800.0)), rel=1e-9)
        assert verify_boundaries(sol, tol=1e-8).passed

    @pytest.mark.parametrize("k", [1e308, -1e308, 1.35e154])
    def test_rate_with_overflowing_square_raises_overflow(self, k):
        # x'' scales a term by k^2, which leaves the float range
        with pytest.raises(Overflow, match="k\\^2 overflows"):
            build_exponential(k, 5.0)

    def test_large_rate_no_overflow(self):
        fam = build_exponential(1200.0)
        assert np.all(np.isfinite(fam.x.gammas))
        sol = solve_sta(fam)
        assert np.isfinite(sol.cost)
        assert sol.cost > 1.0

    def test_negative_rate_normalised(self):
        assert build_exponential(-100.0).k == 100.0

    @pytest.mark.parametrize("k", ["100", True, np.True_, None, 1j, 100 + 0j, 10**400, 0, -0.0, np.inf, np.nan],
                             ids=["str", "bool", "numpy-bool", "none", "complex", "real-complex", "huge", "zero",
                                  "negative-zero", "inf", "nan"])
    def test_rate_that_is_not_a_finite_nonzero_real_is_refused(self, k):
        # "100" used to build rate 100, True to reach the boundary solve and
        # fail as DegenerateBasis, None and 1j to raise TypeError and 10**400
        # OverflowError; the message shows the rate as given
        with pytest.raises(ValueError, match=f"^k must be finite and nonzero, got {re.escape(str(k))}$") as info:
            build_exponential(k)
        assert type(info.value) is ValueError

    @pytest.mark.parametrize("k", [100, -100, np.int64(100), np.float64(100.0), np.float32(100.0)],
                             ids=["int", "negative-int", "int64", "float64", "float32"])
    def test_numeric_rate_types_give_the_same_bits(self, k):
        family = build_exponential(k)
        assert family.k == 100.0 and type(family.k) is float
        assert bits(family.x.gammas) == bits(build_exponential(100.0).x.gammas)

    @pytest.mark.parametrize("T", [0.3, 1.0, 800.0])
    @pytest.mark.parametrize("lam", [1e-2, 1e-4, 1e-6])
    def test_same_bits_as_the_first_order_optimum(self, lam, T):
        # the family at rate k is the optimum at weight k^-2, packaged from the same gamma rows
        family = build_exponential(1.0 / np.sqrt(lam), T)
        sol, optimum = solve_sta(family), regular_order1_analytic(lam, T)
        ts = np.linspace(0.0, T, 101)
        names = ("x", "x^(1)", "u", "v")
        assert sol.trajectory(ts, *names).tobytes() == optimum.trajectory(ts, *names).tobytes()
        parts, want = sol.cost_breakdown, optimum.cost_breakdown
        assert bits([parts.state, parts.derivative]) == bits([want.state, want.derivative])
        weighted = solve_sta(family, ControlProblem(T=T, lam=lam))
        assert bits([assemble_gram(family, lam).c0]) == bits([weighted.cost]) == bits([optimum.cost])

    def test_rate_100_cost(self):
        sol = solve_sta(build_exponential(100.0))
        assert sol.cost == pytest.approx(1.325271, rel=5e-5)

    @pytest.mark.parametrize("T", [1e-3, 1.0, 30.0, 800.0])
    @pytest.mark.parametrize("k", [0.5, 2.0, 100.0, 1e3, 1e6])
    def test_boundary_system_is_the_written_out_matrix(self, monkeypatch, k, T):
        # the rows x(0), x(T), x'(0), x'(T) come from expsums.end_values; the
        # reference is the matrix written out by hand, and its solve
        eT, ekT = np.exp(-T), np.exp(-k * T)
        B = np.array([[eT, 1.0, ekT, 1.0], [1.0, eT, 1.0, ekT], [eT, -1.0, k * ekT, -k], [1.0, -eT, k, -k * ekT]])
        seen = []

        def spy(A, b):
            seen.append(np.array(A))
            return solve_linear(A, b)

        monkeypatch.setattr(stamod, "solve_linear", spy)
        want = solve_linear(B, np.array([0.0, 1.0, 0.0, 0.0]))
        if np.abs(B * want).sum(axis=1).max() <= 1e7:
            assert bits(build_exponential(k, T).x.gammas) == bits(want)
        else:  # k = 0.5 and 2 at T = 1e-3
            with pytest.raises(DegenerateBasis, match="terms of .* cancel"):
                build_exponential(k, T)
        assert len(seen) == 1 and seen[0].tobytes() == B.tobytes()

    @pytest.mark.parametrize("k,T", [
        (6.551855340272074, 0.5922908908066409),
        (20.342849891070017, 0.15489643554561094),
        (4.032248337006658, 6.924541451868035),
    ])
    def test_unanchored_coefficients_come_from_the_system_end_table(self, k, T):
        # a = a_T e^{-T} and c = c_T e^{-kT} are read off the t = 0 row of the
        # boundary system; at these inputs math.exp and np.exp differ in the
        # last bit of e^{-T} or e^{-kT}, which moved a or c by one bit
        family = build_exponential(k, T)
        want = np.array(family.x.gammas) * end_values(np.array(family.x.rates), T)[0]
        assert bits(family.offset) == bits(want)


class TestAssembleGram:
    def test_quartic_coefficients(self):
        # C(a) = (13/630) a^2 + 2 (1/60) a + 11/7 in the paper's free coefficient a = a4
        fam = build_polynomial(4)
        form = assemble_gram(fam)
        for p in (-3.0, -0.5, 0.0, 0.7, 4.0):
            a = paper_names(fam, [p])["a"]
            expected = 13.0 / 630.0 * a * a + 2.0 / 60.0 * a + 2 * 11.0 / 14.0
            assert gram_value(form, [p]) == pytest.approx(expected, rel=1e-12)

    def test_cubic_constant(self):
        form = assemble_gram(build_polynomial(3))
        assert form.A.shape[1] == 0
        assert gram_value(form, ()) == pytest.approx(1.57143, rel=5e-5)

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
                x, xd, xdd = fam.x_stack(coeffs, t)
                return x * x + xd * xd + lam * (xdd + xd) ** 2

            from lincontrol.numerics import integrate

            oracle = integrate(f, 0.0, 1.0, nodes=64)
            assert abs(gram_value(form, p) - oracle) <= 1e-10

    def test_exponential_gram_matches_quadrature(self):
        fam = build_exponential(100.0)
        form = assemble_gram(fam)
        total, _ = cost_functional(solve_sta(fam).trajectory, lam=0.0, panels=8)
        assert abs(form.c0 - total) <= 1e-10

    @pytest.mark.parametrize("lam", [-1.0, np.nan, np.inf, True, np.True_, "1e-3"],
                             ids=["negative", "nan", "inf", "bool", "numpy-bool", "str"])
    @pytest.mark.parametrize("build,first", [(build_polynomial, 5), (build_trigonometric, 6), (build_exponential, 100.0)],
                             ids=["poly", "trig", "exp"])
    def test_bad_weight_is_refused(self, build, first, lam):
        # -1.0 used to raise a bare "math domain error", nan to give control
        # rows of NaN, True to weigh v by 1 and "1e-3" to raise TypeError
        fam = build(first)
        for gram in (fam.gram, lambda lam: assemble_gram(fam, lam)):
            with pytest.raises(ValueError, match=f"^regularization weight must be finite and >= 0, got {lam}$"):
                gram(lam)

    def test_positive_definite_enforced(self):
        for name in FAMILIES:
            fam = FAMILIES[name]()
            form = assemble_gram(fam)
            if form.A.shape[1]:
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
            base = gram_value(form, p_opt)
            assert sol.cost == sol.cost_breakdown.total
            for i in range(fam.free_dim):
                for delta in (-1e-3, 1e-3):
                    p = p_opt.copy()
                    p[i] += delta
                    assert gram_value(form, p) >= base

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


def direct_basis(family, N, T, ts, k):
    """The k-th derivative of every basis function at horizon T, from its own definition."""
    if family is PolynomialAnsatz:
        return np.array([Legendre.basis(j, domain=[0.0, T]).deriv(k)(ts) for j in range(N + 1)])
    w = np.arange(1, N + 1)[:, None] * np.pi / (2.0 * T)
    return (-1.0) ** (k // 2) * w**k * (np.cos if k % 2 else np.sin)(w * ts)


TABLE_ORDERS = [(PolynomialAnsatz, N) for N in (3, 12, 20, 47)] + [
    (TrigonometricAnsatz, N) for N in (3, 8, 13)
]


class TestXStack:
    """``x_stack`` contracts every derivative in one stacked product, with each product's own bits."""

    @pytest.mark.parametrize("points", [2, 64, 2001])
    @pytest.mark.parametrize("family", [PolynomialAnsatz, TrigonometricAnsatz], ids=["poly", "trig"])
    def test_stacked_product_is_the_per_derivative_products(self, family, points):
        rng = np.random.default_rng(points)
        for N in range(3, 21):
            fam = family(N, 1.7)
            grid = np.linspace(0.0, 1.7, points)  # two points are the ends, the cached endpoint table
            for ts in (grid, grid[1:2].reshape(()), grid[: points // 2 * 2].reshape(2, -1)):
                for order in range(3):
                    coeffs = rng.normal(size=fam.offset.size) * 10.0 ** rng.uniform(-3.0, 3.0)
                    tables = fam.basis(ts.ravel() if ts.ndim > 1 else ts, order)
                    want = np.array([coeffs @ table for table in tables]).reshape((order + 1,) + ts.shape)
                    assert fam.x_stack(coeffs, ts, order).tobytes() == want.tobytes(), (N, ts.shape, order)


class TestReferenceTables:
    """The horizon-2 tables, rescaled, against each basis evaluated directly at horizon T."""

    @staticmethod
    def assert_close(got, want):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("T", ORACLE_HORIZONS)
    @pytest.mark.parametrize("family, N", TABLE_ORDERS, ids=lambda v: getattr(v, "kind", v))
    def test_cost_tables(self, family, N, T):
        ts, ws = gauss_legendre(COST_NODES, 0.0, T)
        x, xd, xdd = (direct_basis(family, N, T, ts, k) * np.sqrt(ws) for k in range(3))
        for got, want in zip(family(N, T)._cost_tables, (x, xd, xdd + xd)):
            self.assert_close(got, want)

    @pytest.mark.parametrize("T", ORACLE_HORIZONS)
    @pytest.mark.parametrize("family, N", TABLE_ORDERS, ids=lambda v: getattr(v, "kind", v))
    def test_boundary_rows_and_basis(self, family, N, T):
        ends = _reference_tables(family, N)[1]
        for k in range(3):
            self.assert_close((2.0 / T) ** k * ends[k], direct_basis(family, N, T, np.array([0.0, T]), k))
        ts = np.linspace(0.0, T, 7)
        for k, got in enumerate(family(N, T).basis(ts, 2)):
            self.assert_close(got, direct_basis(family, N, T, ts, k))

    @pytest.mark.parametrize("T", ORACLE_HORIZONS)
    @pytest.mark.parametrize("family, N", TABLE_ORDERS, ids=lambda v: getattr(v, "kind", v))
    def test_endpoint_path_matches_a_new_table(self, monkeypatch, family, N, T):
        # at ts = (0, T) the cached endpoint table stands in for reference_basis, bit for bit
        fam = family(N, T)
        coeffs = fam.coefficient_vector(np.linspace(-1.0, 1.0, fam.free_dim))
        ends = np.array([0.0, T])
        tables = [fam.reference_basis(N, 2.0 * ends / T, k) for k in range(3)]

        def unused(*args):
            raise AssertionError("the endpoint path builds no new table")

        monkeypatch.setattr(family, "reference_basis", staticmethod(unused))
        for k, table in enumerate(tables):
            table *= ((2.0 / T) ** np.arange(k + 1)).reshape(-1, 1, 1)
            assert fam.basis(ends, k).tobytes() == table.tobytes()
            want = np.array([coeffs @ rows for rows in table])
            assert fam.x_stack(coeffs, ends, k).tobytes() == want.tobytes()

    @pytest.mark.parametrize("family, N", TABLE_ORDERS, ids=lambda v: getattr(v, "kind", v))
    def test_rows_build_only_the_orders_they_need(self, monkeypatch, family, N):
        traj = solve_sta(family(N, 1.3)).trajectory
        ts = np.linspace(0.0, 1.3, 7)
        table = traj.table(ts)
        orders = []
        reference_basis = family.reference_basis

        def spy(N, u, order):
            orders.append(order)
            return reference_basis(N, u, order)

        monkeypatch.setattr(family, "reference_basis", staticmethod(spy))
        for name, order in (("x", 0), ("xdot", 1), ("u", 1), ("v", 2)):
            orders.clear()
            row = traj(ts, name)[0]
            assert orders == [order], name
            assert row.tobytes() == table[name].tobytes(), name

    def test_the_endpoint_path_hands_out_a_copy(self):
        # the tables are shared read-only (tests/test_model.py::test_cached_tables_are_shared_and_read_only)
        ends = _reference_tables(PolynomialAnsatz, 5)[1]
        assert ends.shape == (3, 6, 2)
        # the endpoint path hands out a scaled copy, never the cached table
        table = PolynomialAnsatz(5, 1.0).basis(np.array([0.0, 1.0]), 2)
        table[...] = 0.0
        assert ends.any()


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
        assert sol.cost == sol.cost_breakdown.total
        assert sol.cost_breakdown.bare >= 1.0 / np.tanh(T) - 1e-6
        values = [sol.cost, *sol.cost_breakdown, *sol.coefficients.values()]
        values += list(sol.trajectory.table(np.linspace(0.0, T, 201)).values())
        assert all(np.all(np.isfinite(v)) for v in values)

    @settings(derandomize=True, deadline=None, max_examples=200, database=None)
    @given(
        log_k=st.floats(np.log(1.1), np.log(1e3)),
        T=st.floats(0.1, 10.0),
        lam=st.sampled_from([0.0, 1e-3]),
    )
    def test_exponential_typed_error_or_certified_solution(self, log_k, T, lam):
        try:
            sol = solve_sta(build_exponential(float(np.exp(log_k)), T), ControlProblem(T=T, lam=lam))
        except (DegenerateBasis, NumericsError):
            return
        assert verify_boundaries(sol, tol=1e-8).passed
        assert sol.cost == sol.cost_breakdown.total
        assert sol.cost_breakdown.bare >= 1.0 / np.tanh(T) - 1e-6
        values = [sol.cost, *sol.cost_breakdown, *sol.coefficients.values()]
        values += list(sol.trajectory.table(np.linspace(0.0, T, 201)).values())
        assert all(np.all(np.isfinite(v)) for v in values)
