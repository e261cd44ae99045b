"""Tests for the problem types, cost functional, boundary checks, and CSV."""

import pickle
import sys

import numpy as np
import pytest

from lincontrol import expsums, floattext, model as modelmod, numerics, sta as stamod
from lincontrol.cli import _json, solution_summary
from lincontrol.model import (
    ALIASES,
    CSV_BLOCK_ROWS,
    BoundaryReport,
    BoundaryResidual,
    ControlProblem,
    CostBreakdown,
    Impulse,
    InvalidOrder,
    NegativeCostPart,
    ProtocolSolution,
    Trajectory,
    adjoint_names,
    row_names,
    cost_functional,
    csv_text,
    sample_table,
    verify_boundaries,
    write_csv,
)
from lincontrol.numerics import NumericsError, Overflow
from lincontrol.oct import (
    ShootingSingular,
    _mode_tables,
    build_lq,
    regular_order1_analytic,
    singular_consistency_check,
    singular_solution,
    solve_regular,
)
from lincontrol.sta import (
    PolynomialAnsatz,
    TrigonometricAnsatz,
    _reference_tables,
    build_exponential,
    build_polynomial,
    build_trigonometric,
    solve_sta,
)
from oracles import CHAIN_PROBLEMS, cost_functional_per_panel, modal_solution, singular_consistency_from_table
from fingerprint import ops, workloads

COTH1 = 1.0 / np.tanh(1.0)


def hand_built(rows):
    """A first-order trajectory on ``[0, 1]`` whose rows ``x, x', u, v`` are ``rows(ts)``."""
    def evaluate(ts, index):
        return np.array(rows(ts))[index]

    ends = evaluate(np.array([0.0, 1.0]), [0, 1, 2, 3])
    return Trajectory(T=1.0, n=1, names=row_names(1), evaluate=evaluate, ends=ends)


def fresh_trajectory(traj, evaluate=None):
    """A new :class:`Trajectory` with ``traj``'s fields, ``evaluate`` if given, and an end table that
    evaluator makes of every row at ``[0, T]``."""
    evaluate = evaluate or traj.evaluate
    ends = evaluate(np.array([0.0, traj.T]), list(range(len(traj.names))))
    return Trajectory(T=traj.T, n=traj.n, names=traj.names, evaluate=evaluate, ends=ends)


def fresh_solution(sol, trajectory):
    """A new :class:`ProtocolSolution` with ``sol``'s fields on ``trajectory``; its residuals are not built."""
    return ProtocolSolution(
        problem=sol.problem, kind=sol.kind, coefficients=sol.coefficients, trajectory=trajectory,
        impulses=sol.impulses, cost=sol.cost, cost_breakdown=sol.cost_breakdown,
    )


def smoothstep_solution(cost_breakdown):
    """``x = 3t^2 - 2t^3`` on ``[0, 1]``, which meets the first-order ends, with the parts ``cost_breakdown``."""
    traj = hand_built(lambda ts: (
        3 * ts**2 - 2 * ts**3, 6 * ts - 6 * ts**2, 3 * ts**2 - 2 * ts**3 + 6 * ts - 6 * ts**2,
        6 - 6 * ts - 6 * ts**2,
    ))
    return ProtocolSolution(
        problem=ControlProblem(), kind="hand-built", coefficients={}, trajectory=traj, impulses=(),
        cost=sum(cost_breakdown), cost_breakdown=cost_breakdown,
    )


def linear_ramp_trajectory():
    """x(t) = t, ignoring boundary validity; for cost arithmetic only."""
    return hand_built(lambda ts: (ts, np.ones_like(ts), 1.0 + ts, np.ones_like(ts)))


class TestControlProblem:
    def test_defaults(self):
        p = ControlProblem()
        assert (p.T, p.n, p.lam) == (1.0, 1, 0.0)

    @pytest.mark.parametrize(
        "kwargs",
        [{"T": 0.0}, {"T": -1.0}, {"lam": -0.5}, {"lam": float("nan")}, {"T": float("inf")}],
    )
    def test_invalid_values(self, kwargs):
        with pytest.raises(ValueError):
            ControlProblem(**kwargs)

    def test_invalid_order(self):
        with pytest.raises(InvalidOrder):
            ControlProblem(n=0)

    @pytest.mark.parametrize("n", [2.5, float("nan"), float("inf")])
    def test_non_integer_order(self, n):
        # nan and inf used to raise int()'s own ValueError and OverflowError
        with pytest.raises(InvalidOrder, match=f"^derivative order must be an integer >= 1, got {n}$"):
            ControlProblem(n=n)

    def test_fields_are_stored_as_python_numbers(self):
        p = ControlProblem(T=np.float32(0.5), n=np.int64(2), lam=np.float16(0.25))
        assert (type(p.T), type(p.n), type(p.lam)) == (float, int, float)
        assert (p.T, p.n, p.lam) == (0.5, 2, 0.25)
        assert type(ControlProblem(n=3.0).n) is int
        assert ControlProblem(T=2, n=np.float64(3), lam=1) == ControlProblem(T=2.0, n=3, lam=1.0)

    @pytest.mark.parametrize("field", ["T", "n", "lam"])
    @pytest.mark.parametrize("value", [True, False, np.True_, np.False_, "1", None, 1j], ids=repr)
    def test_a_bool_or_a_non_real_is_refused(self, field, value):
        # True was taken as 1 and False as a weight of 0; a string raised a TypeError
        with pytest.raises(InvalidOrder if field == "n" else ValueError, match=f"got {value}$"):
            ControlProblem(**{field: value})

    @pytest.mark.parametrize(
        "field,value", [("T", 10**400), ("n", 10**400), ("lam", -(10**400))], ids=["T", "n", "lam"]
    )
    def test_an_integer_past_the_float_range_is_refused(self, field, value):
        # T and lam raised an OverflowError, and the order was accepted
        with pytest.raises(InvalidOrder if field == "n" else ValueError):
            ControlProblem(**{field: value})


def record_fields():
    """One instance of every record of the package, and its field names in order."""
    sol = regular_order1_analytic(1e-4)
    return {
        "ControlProblem": (ControlProblem(T=2.0, n=3, lam=0.5), ("T", "n", "lam")),
        "Impulse": (Impulse(time=0.0, area=1.5), ("time", "area")),
        "Trajectory": (sol.trajectory, ("T", "n", "names", "evaluate", "ends")),
        "CostBreakdown": (sol.cost_breakdown, ("state", "derivative", "control_energy")),
        "ProtocolSolution": (
            sol, ("problem", "kind", "coefficients", "trajectory", "impulses", "cost", "cost_breakdown"),
        ),
        "BoundaryReport": (verify_boundaries(sol), ("residuals", "tol")),
        "GramForm": (build_polynomial(5).gram(), ("A", "b", "c0")),
    }


def unpickled_problem(T):
    """What unpickling a :class:`ControlProblem` calls, with the horizon ``T``."""
    newobj, (cls, _, n, lam) = ControlProblem().__reduce_ex__(2)[:2]
    return newobj(cls, T, n, lam)


RECORDS = ("ControlProblem", "Impulse", "Trajectory", "CostBreakdown", "ProtocolSolution", "BoundaryReport", "GramForm")


class TestRecords:
    """Every record keeps its field names, keyword construction and immutability."""

    def test_cost_breakdown_keys_keep_their_order(self):
        parts = CostBreakdown(1.0, 2.0, 3.0)._asdict()
        assert type(parts) is dict
        assert list(parts.items()) == [("state", 1.0), ("derivative", 2.0), ("control_energy", 3.0)]

    @pytest.mark.parametrize("name", RECORDS)
    def test_keyword_construction_keeps_every_field(self, name):
        record, fields = record_fields()[name]
        rebuilt = type(record)(**{field: getattr(record, field) for field in fields})
        assert type(rebuilt).__name__ == name
        assert all(getattr(rebuilt, field) is getattr(record, field) for field in fields)

    @pytest.mark.parametrize("name", RECORDS)
    def test_no_field_can_be_assigned_or_deleted(self, name):
        record, fields = record_fields()[name]
        cached = {"ProtocolSolution": ("boundary_residuals",)}.get(name, ())
        for field in (*fields, *cached, "extra"):
            before = getattr(record, field, None)
            with pytest.raises(AttributeError):
                setattr(record, field, 0.0)
            with pytest.raises(AttributeError):
                delattr(record, field)
            assert getattr(record, field, None) is before

    def test_problem_equality_and_hash_are_by_value(self):
        a = ControlProblem(T=2, n=np.int64(3), lam=np.float32(0.5))
        b = ControlProblem(2.0, 3, 0.5)
        assert a == b and hash(a) == hash(b)
        assert len({a, b, ControlProblem(T=2.0, n=3, lam=0.25)}) == 2
        assert a != ControlProblem(T=2.0, n=2, lam=0.5)
        assert repr(a) == "ControlProblem(T=2.0, n=3, lam=0.5)"

    @pytest.mark.parametrize("build", [
        lambda: ControlProblem(T=-1.0),
        lambda: ControlProblem._make((-1.0, 1, 0.0)),
        lambda: ControlProblem()._replace(T=-1.0),
        lambda: ControlProblem()._replace(lam=True),
        lambda: ControlProblem()._replace(n=0),
        lambda: unpickled_problem(T=np.nan),
    ], ids=["call", "make", "replace-T", "replace-lam", "replace-n", "unpickle"])
    def test_no_construction_path_skips_the_checks(self, build):
        with pytest.raises(ValueError):
            build()

    def test_every_construction_path_normalises(self):
        want = ControlProblem(T=2.0, n=3, lam=0.5)
        for p in (
            ControlProblem._make((2, 3.0, np.float64(0.5))),
            ControlProblem(T=2.0)._replace(n=np.int64(3), lam=0.5),
            pickle.loads(pickle.dumps(want)),
        ):
            assert p == want and type(p) is ControlProblem
            assert (type(p.T), type(p.n), type(p.lam)) == (float, int, float)
        with pytest.raises(ValueError):
            ControlProblem._make((2.0, 3))

    def test_ends_and_residuals_are_built_once(self):
        sol, calls = spied(solve_sta(build_polynomial(5)))
        ends, residuals = sol.trajectory.ends, sol.boundary_residuals
        assert sol.trajectory.ends is ends and sol.boundary_residuals is residuals
        assert calls == []  # the end table is the one spied() made the record with
        assert vars(sol.trajectory)["ends"] is ends and vars(sol)["boundary_residuals"] is residuals


#: five routes, each a function of the request fields it reads, and its plain request
REQUEST_ROUTES = {
    "singular": (lambda T: singular_solution(T), {"T": 1.0}),
    "order1": (lambda T, lam: regular_order1_analytic(lam, T), {"T": 1.0, "lam": 1e-4}),
    "sta-exp": (
        lambda T, n, lam: solve_sta(build_exponential(100.0, T), ControlProblem(T=T, n=n, lam=lam)),
        {"T": 1.0, "n": 1, "lam": 0.0},
    ),
    "sta-poly6": (
        lambda T, n, lam: solve_sta(build_polynomial(6, T), ControlProblem(T=T, n=n, lam=lam)),
        {"T": 1.0, "n": 1, "lam": 0.0},
    ),
    "modal-n3": (lambda T, n, lam: solve_regular(build_lq(n, lam, T)), {"T": 1.0, "n": 3, "lam": 1e-4}),
}

#: (field, value) requests of other types; the plain request converts the value with PLAIN_TYPES
REQUEST_VALUES = [
    ("T", 1), ("T", np.float32(0.3)), ("T", np.float16(1)), ("T", True),
    ("n", 1.0), ("n", 2.0), ("n", np.int64(2)), ("n", True),
    ("lam", np.float32(1e-4)),
]
PLAIN_TYPES = {"T": float, "n": int, "lam": float}


def _request_outcome(route, fields):
    """The summary JSON and the 101-point table of a request, or its raised type and message."""
    try:
        sol = route(**fields)
    except (ValueError, NumericsError) as exc:
        return type(exc).__name__, str(exc)
    return _json(solution_summary(sol)), csv_text(sol, 101)


class TestRequestTypes:
    """A request takes one numeric path whatever the types of its fields."""

    @pytest.mark.parametrize(
        "route,field,value",
        [
            pytest.param(r, f, v, id=f"{r}-{f}={v!r}")
            for r, (_, plain) in REQUEST_ROUTES.items()
            for f, v in REQUEST_VALUES
            if f in plain
        ],
    )
    def test_same_bytes_as_the_plain_request_or_a_typed_error(self, route, field, value):
        # a float order raised a TypeError; a float32 or float16 horizon made the
        # exponential routes compute in that precision and miss their ends, and a
        # float32 weight printed the first-order rate_fast in float32
        solve, plain = REQUEST_ROUTES[route]
        if isinstance(value, bool):
            with pytest.raises(InvalidOrder if field == "n" else ValueError, match="got True$"):
                solve(**{**plain, field: value})
            return
        want = _request_outcome(solve, {**plain, field: PLAIN_TYPES[field](value)})
        assert _request_outcome(solve, {**plain, field: value}) == want


class TestProtocolSolution:
    @pytest.mark.parametrize(
        "field,kwargs",
        [
            ("cost", {"cost": np.inf}),
            ("cost part derivative", {"cost_breakdown": CostBreakdown(1.0, np.nan, 0.0)}),
            ("p0_py", {"coefficients": {"p0_py": np.nan, "p0_pz": 1.0}}),
        ],
    )
    def test_non_finite_value_is_refused_by_name(self, field, kwargs):
        fields = dict(
            problem=ControlProblem(), kind="hand-built", coefficients={}, trajectory=linear_ramp_trajectory(),
            impulses=(), cost=1.0, cost_breakdown=CostBreakdown(1.0, 0.0, 0.0),
        )
        with pytest.raises(Overflow, match=f"hand-built solution has a non-finite {field}: "):
            ProtocolSolution(**{**fields, **kwargs})

    def test_finite_values_whose_sum_overflows_pass(self):
        sol = ProtocolSolution(
            problem=ControlProblem(), kind="hand-built", coefficients={"a": 1e308, "b": 1e308},
            trajectory=linear_ramp_trajectory(), impulses=(), cost=1e308,
            cost_breakdown=CostBreakdown(1e308, 0.0, 0.0),
        )
        assert sol.coefficients == {"a": 1e308, "b": 1e308}


class TestCostFunctional:
    def test_singular_bare_cost_is_coth1(self):
        total, parts = cost_functional(singular_solution(1.0).trajectory, lam=0.0)
        assert total == pytest.approx(COTH1, abs=1e-9)
        assert total == pytest.approx(1.3130, abs=1e-4)
        assert parts.control_energy == 0.0

    def test_linear_ramp(self):
        total, _ = cost_functional(linear_ramp_trajectory(), lam=0.0)
        assert total == pytest.approx(4.0 / 3.0, rel=1e-13)

    def test_exponential_rate_100(self):
        sol = solve_sta(build_exponential(100.0))
        total, _ = cost_functional(sol.trajectory, lam=0.0, panels=8)
        assert total == pytest.approx(1.325271, rel=5e-5)

    @pytest.mark.parametrize(
        "sol,panels",
        [
            (solve_sta(build_polynomial(6)), 1),
            (solve_sta(build_trigonometric(6)), 1),
            (solve_sta(build_exponential(100.0)), 8),
            (singular_solution(1.0), 1),
        ],
        ids=["poly6", "trig6", "exp100", "singular"],
    )
    def test_invariant_under_node_doubling(self, sol, panels):
        t64, _ = cost_functional(sol.trajectory, lam=0.0, nodes=64, panels=panels)
        t128, _ = cost_functional(sol.trajectory, lam=0.0, nodes=128, panels=panels)
        assert abs(t64 - t128) <= 1e-9

    def test_solution_cost_matches_quadrature(self):
        for sol, panels in [
            (solve_sta(build_polynomial(5)), 1),
            (solve_sta(build_trigonometric(5)), 1),
            (solve_sta(build_exponential(100.0)), 8),
            (regular_order1_analytic(1e-4), 8),
        ]:
            total, _ = cost_functional(sol.trajectory, lam=sol.problem.lam, panels=panels)
            assert total == pytest.approx(sol.cost, abs=1e-9)

    def test_global_lower_bound(self):
        solutions = [
            singular_solution(1.0),
            solve_sta(build_polynomial(6)),
            solve_sta(build_trigonometric(4)),
            solve_sta(build_exponential(10.0)),
            regular_order1_analytic(1e-3),
        ]
        for sol in solutions:
            assert sol.cost_breakdown.bare >= COTH1 - 1e-6

    @pytest.mark.parametrize("panels", [0, -1, 1.5, 2.0, "2", True])
    def test_bad_panel_counts_raise(self, panels):
        # zero panels used to return a silent cost of 0.0
        with pytest.raises(ValueError):
            cost_functional(singular_solution(1.0).trajectory, panels=panels)

    def test_numpy_integer_panels(self):
        traj = singular_solution(1.0).trajectory
        assert cost_functional(traj, panels=np.int64(3)) == cost_functional(traj, panels=3)

    @pytest.mark.parametrize(
        "lam",
        [-1.0, -1e-300, np.nan, np.inf, -np.inf, True, np.True_, "1e-3", 1e-3 + 0j,
         pytest.param(10**400, id="past-float-range")],
    )
    def test_bad_weight_is_refused(self, lam):
        # a negative or NaN weight used to give the bare cost, an infinite one a non-finite total;
        # True used to weigh v by 1, and a string or a complex weight raised TypeError
        traj = solve_regular(build_lq(2, 1e-3)).trajectory
        with pytest.raises(ValueError, match="regularization weight must be finite and >= 0"):
            cost_functional(traj, lam=lam)

    @pytest.mark.parametrize(
        "T",
        [True, np.True_, "1", 1.0 + 0j, 0.0, -0.0, -1.0, np.nan, np.inf,
         pytest.param(10**400, id="past-float-range")],
    )
    def test_bad_horizon_is_refused(self, T):
        # T=True used to integrate over [0, 1]
        traj = solve_regular(build_lq(2, 1e-3)).trajectory
        with pytest.raises(ValueError, match="horizon must be finite and positive"):
            cost_functional(traj, lam=1e-3, T=T)

    @pytest.mark.parametrize("T", [2.0, 0.5])
    def test_another_horizon_is_refused(self, T):
        # T=2.0 used to return 157637.69 from the sums evaluated past their
        # horizon, and T=0.5 a cost of 0.588 against 1.764
        traj = solve_regular(build_lq(2, 1e-4)).trajectory
        with pytest.raises(ValueError, match=rf"^horizon {T} is not the trajectory's horizon 1\.0$"):
            cost_functional(traj, lam=1e-4, T=T)

    @pytest.mark.parametrize("lam,panels", [(1e308, 1), (2.15e305, 4)], ids=["panel", "panel-sum"])
    def test_overflowing_part_is_refused_and_named(self, lam, panels):
        # lam=1e308 used to warn of an overflow in multiply and return an
        # infinite total; at 2.15e305 every panel of v^2 is finite, and their
        # sum, 1466 lam, overflows in the accumulate
        traj = solve_regular(build_lq(2, 1e-4)).trajectory
        with pytest.raises(Overflow, match="^the quadrature has a non-finite cost part control_energy: inf$"):
            cost_functional(traj, lam=lam, panels=panels)

    def test_numeric_types_give_the_same_bits(self):
        traj = solve_regular(build_lq(2, 1e-3)).trajectory

        def bits(lam, T):
            total, parts = cost_functional(traj, lam=lam, T=T, panels=3)
            return np.array([total, *parts]).tobytes()

        want = bits(1e-3, 1.0)
        assert bits(np.float64(1e-3), np.float64(1.0)) == want
        assert bits(1e-3, 1) == bits(1e-3, np.int64(1)) == bits(1e-3, None) == want
        assert bits(0, 1.0) == bits(np.int64(0), 1.0) == bits(0.0, 1.0)


#: the rows of each basis family and order whose cost is checked against its parts
BASIS_ORDERS = [(build_polynomial, N) for N in (*range(3, 14), 20, 47)] + [
    (build_trigonometric, N) for N in range(3, 14)
]


class TestCostIsTheSumOfItsParts:
    """Every route but the impulsive arc prints a cost that is its parts' sum, bit for bit."""

    @pytest.mark.parametrize("lam", [0.0, 1e-3])
    @pytest.mark.parametrize("T", [0.1, 1.0, 10.0])
    @pytest.mark.parametrize("builder, N", BASIS_ORDERS, ids=lambda v: getattr(v, "__name__", v))
    def test_basis_families(self, builder, N, T, lam):
        sol = solve_sta(builder(N, T), ControlProblem(T=T, lam=lam))
        assert sol.cost == sol.cost_breakdown.total

    @pytest.mark.parametrize("lam", [0.0, 1e-3])
    @pytest.mark.parametrize("k", [10.0, 100.0, 1e4])
    def test_exponential_family(self, k, lam):
        sol = solve_sta(build_exponential(k), ControlProblem(lam=lam))
        assert sol.cost == sol.cost_breakdown.total

    @pytest.mark.parametrize("lam", [1e-2, 1e-6])
    def test_first_order_optimum(self, lam):
        sol = solve_regular(build_lq(1, lam))
        assert sol.cost == sol.cost_breakdown.total

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_modal_route(self, n):
        answered = 0
        for lam in (1e-2, 1e-4, 1e-6, 1e-8):
            try:
                sol = solve_regular(build_lq(n, lam))
            except (ShootingSingular, BoundaryResidual):
                continue
            assert sol.cost == sol.cost_breakdown.total, lam
            answered += 1
        assert answered


#: one solver of every kind, first-order optima included, and the chain at n = 2..8
SOLVER_KINDS = {
    "poly5": lambda: solve_sta(build_polynomial(5)),
    "poly12-T2": lambda: solve_sta(build_polynomial(12, 2.0), ControlProblem(T=2.0, lam=1e-3)),
    "trig6": lambda: solve_sta(build_trigonometric(6)),
    "exp100": lambda: solve_sta(build_exponential(100.0)),
    "singular": lambda: singular_solution(1.0),
    "first-order": lambda: regular_order1_analytic(1e-4),
    **{f"n{n}": (lambda args=args: solve_regular(build_lq(*args))) for n, args in CHAIN_PROBLEMS.items()},
}


class TestBatchedEvaluation:
    @pytest.mark.parametrize("make", SOLVER_KINDS.values(), ids=SOLVER_KINDS.keys())
    def test_cost_functional_matches_per_panel_reference(self, make):
        sol = make()
        for lam in sorted({0.0, sol.problem.lam}):
            for panels in range(1, 9):
                got, want = (
                    np.array([total, *parts])
                    for total, parts in (
                        cost_functional(sol.trajectory, lam=lam, panels=panels),
                        cost_functional_per_panel(sol.trajectory, lam=lam, panels=panels),
                    )
                )
                assert got.tobytes() == want.tobytes(), (lam, panels)

    @pytest.mark.parametrize("make", SOLVER_KINDS.values(), ids=SOLVER_KINDS.keys())
    def test_table_at_2d_times_is_flattened_table(self, make):
        traj = make().trajectory
        ts = np.linspace(0.0, traj.T, 24).reshape(4, 6)
        got = traj.table(ts)
        flat = traj.table(ts.ravel())
        assert got.keys() == flat.keys()
        for name, col in got.items():
            assert np.shape(col) == ts.shape, name
            assert np.asarray(col).tobytes() == np.asarray(flat[name]).reshape(ts.shape).tobytes(), name

    @pytest.mark.parametrize("make", SOLVER_KINDS.values(), ids=SOLVER_KINDS.keys())
    def test_consistency_check_matches_table_reference(self, make):
        sol = make()
        got = singular_consistency_check(sol)
        want = singular_consistency_from_table(sol)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


class TestVerifyBoundaries:
    def test_cubic_polynomial_exact(self):
        report = verify_boundaries(solve_sta(build_polynomial(3)), tol=1e-12)
        assert report.passed
        # the Legendre coefficients meet the conditions to roundoff (about 2.7e-15)
        assert report.max_residual <= 1e-14

    def test_constant_trajectory_fails(self):
        sol_like = solve_sta(build_polynomial(3))
        bad = type(sol_like)(
            problem=sol_like.problem, kind="sta-poly", coefficients={},
            trajectory=hand_built(lambda ts: [np.zeros_like(ts)] * 4),
            impulses=(), cost=0.0, cost_breakdown=sol_like.cost_breakdown,
        )
        report = verify_boundaries(bad, tol=1e-10)
        assert not report.passed
        assert report.residuals["x(T)-1"] == pytest.approx(-1.0)

    def test_singular_arc_passes_with_impulse_correction(self):
        report = verify_boundaries(singular_solution(1.0), tol=1e-12)
        assert report.passed

    def test_order3_regular(self):
        sol = solve_regular(build_lq(3, 5e-9))
        report = verify_boundaries(sol, tol=1e-6)
        assert report.passed
        assert len(report.residuals) == 8  # x plus three derivatives, both ends

    @pytest.mark.parametrize("make", [lambda: solve_sta(build_polynomial(6)), lambda: singular_solution(1.0),
                                      lambda: solve_regular(build_lq(3, 5e-9))], ids=["poly6", "singular", "n3"])
    def test_reports_share_one_read_only_residual_table(self, make):
        # the table is built once per solution, not once per report or summary
        sol = make()
        summary = solution_summary(sol)["boundary_residuals"]
        first, second = verify_boundaries(sol), verify_boundaries(sol, tol=1e-12)
        assert first.residuals is second.residuals is sol.boundary_residuals
        with pytest.raises(TypeError):
            first.residuals["x(0)"] = 1.0
        assert solution_summary(sol)["boundary_residuals"] == summary == dict(first.residuals)

    @pytest.mark.parametrize("tol", [True, np.True_, "1e-8", None, 1e-8 + 0j, float("nan"), -1.0, float("inf")],
                             ids=["True", "np.True_", "str", "None", "complex", "nan", "negative", "inf"])
    def test_tolerance_that_is_not_a_finite_real_is_refused_at_the_call(self, tol):
        # True used to certify at 1.0, and a string or None to raise TypeError only when passed was read
        with pytest.raises(ValueError, match="boundary tolerance must be a finite real >= 0"):
            verify_boundaries(singular_solution(1.0), tol=tol)

    @pytest.mark.parametrize("tol", [1e-8, np.float64(1e-8), 0], ids=["float", "np.float64", "zero"])
    def test_real_tolerances_give_the_report(self, tol):
        sol = singular_solution(1.0)
        report = verify_boundaries(sol, tol=tol)
        assert report == BoundaryReport(sol.boundary_residuals, tol)
        assert type(report.tol) is type(tol)
        assert report.passed == (report.max_residual <= tol)


NAN = float("nan")


class TestBoundaryReport:
    @pytest.mark.parametrize("residuals,name", [
        ({"a": 0.0, "b": NAN}, "b"),
        ({"a": NAN, "b": 0.0}, "a"),
        ({"a": 1e-9, "b": NAN, "c": -2.0, "d": NAN}, "b"),
    ])
    def test_nan_residual_fails_and_is_named(self, residuals, name):
        # max() over abs values used to drop a NaN that was not the first entry
        report = BoundaryReport(residuals, tol=1e-8)
        assert not report.passed
        assert np.isnan(report.max_residual)
        assert report.worst[0] == name
        assert str(BoundaryResidual(report)) == f"boundary residual {name} = nan exceeds the tolerance 1e-08"

    def test_worst_is_the_first_largest(self):
        report = BoundaryReport({"a": 1e-9, "b": -3e-6, "c": 3e-6}, tol=1e-8)
        assert report.worst == ("b", -3e-6)
        assert report.max_residual == 3e-6


def _scaled_last(original):
    """``original`` with the last entry of its result times ``1 + 1e-6``."""
    def perturbed(*args, **kwargs):
        values = np.array(original(*args, **kwargs), dtype=float)
        values[-1] *= 1.0 + 1e-6
        return values
    return perturbed


class TestCertify:
    """Every solver refuses a solution that misses a boundary condition by more than 1e-8."""

    def test_returns_the_solution_it_passes(self):
        sol = solve_sta(build_polynomial(5))
        assert modelmod.certify(sol) is sol

    @pytest.mark.parametrize("solve", [
        lambda: solve_sta(build_polynomial(6)),
        lambda: solve_sta(build_trigonometric(6)),
    ], ids=["poly", "trig"])
    def test_planted_basis_coefficient(self, monkeypatch, solve):
        from lincontrol import sta

        monkeypatch.setattr(sta.AnsatzFamily, "coefficient_vector",
                            _scaled_last(sta.AnsatzFamily.coefficient_vector))
        with pytest.raises(BoundaryResidual):
            solve()

    def test_planted_modal_amplitude(self, monkeypatch):
        from lincontrol import oct as octmod

        original = octmod._modal_amplitudes

        def perturbed(flow):
            w, V, c = original(flow)
            c = c.copy()
            c[0] *= 1.0 + 1e-6
            return w, V, c

        monkeypatch.setattr(octmod, "_modal_amplitudes", perturbed)
        with pytest.raises(BoundaryResidual):
            solve_regular(build_lq(2, 1e-4))

    @pytest.mark.parametrize("solve", [
        lambda: solve_sta(build_exponential(100.0)),
        lambda: regular_order1_analytic(1e-4),
    ], ids=["sta-exp", "first-order"])
    def test_planted_exponential_coefficient(self, monkeypatch, solve):
        from lincontrol import sta

        # the exponential family's one linear solve is its boundary system
        monkeypatch.setattr(sta, "solve_linear", _scaled_last(sta.solve_linear))
        with pytest.raises(BoundaryResidual):
            solve()

    def test_vanishing_impulsive_horizon(self):
        with pytest.raises(BoundaryResidual) as info:
            singular_solution(1e-200)
        assert info.value.report.residuals["x(T)-1"] == -1.0

    @pytest.mark.parametrize("n,lam", [(7, 1e-14), (8, 1e-16)])
    def test_long_chains_at_unit_horizon(self, n, lam):
        # the fast rate is 10 and the ends are missed by 2.4e-8 and 2.7e-6
        with pytest.raises(BoundaryResidual):
            solve_regular(build_lq(n, lam))

    @pytest.mark.parametrize("parts,name", [
        ((-1e-300, 1.2, 0.0), "state"),
        ((0.1, -2.0, 0.5), "derivative"),
        ((0.1, 1.2, -3e-17), "control_energy"),
        ((-1.0, -2.0, 0.0), "derivative"),
    ])
    def test_a_negative_part_is_refused_by_name(self, parts, name):
        sol = smoothstep_solution(CostBreakdown(*parts))
        assert verify_boundaries(sol).passed
        with pytest.raises(NegativeCostPart, match=rf"^cost part {name} = -\S+ is negative, but it is the integral of a square$"):
            modelmod.certify(sol)

    def test_zero_parts_pass(self):
        sol = smoothstep_solution(CostBreakdown(0.0, -0.0, 0.0))
        assert modelmod.certify(sol) is sol

    def test_the_boundary_report_is_checked_first(self):
        sol = fresh_solution(smoothstep_solution(CostBreakdown(-1.0, 1.0, 0.0)), linear_ramp_trajectory())
        with pytest.raises(BoundaryResidual):
            modelmod.certify(sol)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_verdict_and_residuals_are_verify_boundaries_on_the_solve_sweep_pool(self, monkeypatch, seed):
        # certify builds its report at BOUNDARY_TOL without verify_boundaries'
        # check of the tolerance; on every op that packages a solution both
        # give the same verdict on the same residual mapping
        certify = modelmod.certify
        monkeypatch.setattr(modelmod, "certify", lambda sol: sol)
        verdicts = []
        for op in workloads.pool("solve-sweep", seed):
            try:
                sol = ops.solve(op)
            except (ValueError, NumericsError):  # refused before the packaging
                continue
            report = verify_boundaries(sol)
            try:
                certify(sol)
                passed, residuals = True, sol.boundary_residuals
            except BoundaryResidual as exc:
                assert exc.report.tol == modelmod.BOUNDARY_TOL
                passed, residuals = exc.report.passed, exc.report.residuals
            except NegativeCostPart:
                passed, residuals = True, sol.boundary_residuals
            assert passed == report.passed
            assert residuals is report.residuals
            verdicts.append(passed)
        # both verdicts occur on the pool
        assert len(verdicts) > 300 and not all(verdicts) and any(verdicts)


#: one solution per route and order: the basis families, the impulsive arc and the first-order
#: optimum at n = 1, and the modal solve at every order 1..8
HEADER_ROUTES = {
    "sta-poly-n1": lambda: solve_sta(build_polynomial(4)),
    "sta-trig-n1": lambda: solve_sta(build_trigonometric(6)),
    "sta-exp-n1": lambda: solve_sta(build_exponential(100.0)),
    "oct-singular-n1": lambda: singular_solution(1.0),
    "first-order-n1": lambda: regular_order1_analytic(1e-4),
    "modal-n1": lambda: modal_solution(1, 2.0),
    **{f"modal-n{n}": (lambda n=n: solve_regular(build_lq(*CHAIN_PROBLEMS[n]))) for n in range(2, 9)},
}


#: each cached table of the package, by a call that builds it, and each table built at import
CACHED_TABLES = {
    **{f"order-n{n}": (lambda n=n: modelmod._order_table(n)) for n in (1, 2, 8)},
    **{f"modes-n{n}": (lambda n=n: _mode_tables(n)) for n in (1, 2, 8)},
    "reference-poly5": lambda: _reference_tables(PolynomialAnsatz, 5),
    "reference-trig8": lambda: _reference_tables(TrigonometricAnsatz, 8),
    **{f"legendre-derivative-{N}": (lambda N=N: stamod._legendre_derivative(N)) for N in (3, 47)},
    **{f"monomial-matrix-{N}": (lambda N=N: stamod._monomial_matrix(N)) for N in (3, 47)},
    **{f"leggauss-{nodes}": (lambda nodes=nodes: numerics._leggauss(nodes)) for nodes in (48, 64)},
    **{f"floattext.{name}": (lambda name=name: getattr(floattext, name))
       for name in ("_DIGIT_WORDS", "_FIRST", "_LAST", "_WHOLE", "_POINT")},
}


@pytest.mark.parametrize("build", CACHED_TABLES.values(), ids=CACHED_TABLES.keys())
def test_cached_tables_are_shared_and_read_only(build):
    # one table per order or per family and order: a second call returns the same objects,
    # and no caller can write to a shared array
    table = build()
    assert build() is table
    arrays = [table] if isinstance(table, np.ndarray) else [part for part in table if isinstance(part, np.ndarray)]
    assert arrays
    for array in arrays:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array.flat[0] = 1.0


class TestSampling:
    def test_singular_midpoint_row(self):
        header, rows = sample_table(singular_solution(1.0), points=3)
        assert header[:2] == ["t", "x"]
        mid = rows[1]
        assert mid[0] == pytest.approx(0.5)
        assert mid[1] == pytest.approx(np.sinh(0.5) / np.sinh(1.0), rel=1e-14)

    def test_two_points_hits_endpoints(self):
        _, rows = sample_table(solve_sta(build_polynomial(4)), points=2)
        assert rows[0][0] == 0.0
        assert rows[1][0] == 1.0

    def test_min_points(self):
        with pytest.raises(ValueError):
            sample_table(singular_solution(1.0), points=1)

    @pytest.mark.parametrize("points", [3.5, 2.0, "5", None, True])
    def test_non_integer_points(self, points, tmp_path):
        sol = singular_solution(1.0)
        for tabulate in (sample_table, csv_text, lambda s, p: write_csv(s, tmp_path / "t.csv", p)):
            with pytest.raises(ValueError, match="points must be an integer"):
                tabulate(sol, points)
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("points", [np.int64(5), np.int32(5), np.uint8(5)])
    def test_numpy_integer_points(self, points):
        sol = solve_sta(build_polynomial(4))
        assert csv_text(sol, points) == csv_text(sol, 5)

    def test_table_is_one_float_array(self):
        sol = solve_regular(build_lq(2, 5e-7))
        header, table = sample_table(sol, 7)
        assert isinstance(table, np.ndarray) and table.dtype == float
        assert table.shape == (7, len(header))

    def test_header_first_order_with_adjoints(self):
        header, _ = sample_table(singular_solution(1.0), points=2)
        assert header == ["t", "x", "xdot", "u", "v", "y", "z0", "py", "pz"]

    def test_header_sta(self):
        header, _ = sample_table(solve_sta(build_polynomial(4)), points=2)
        assert header == ["t", "x", "xdot", "u", "v", "y", "z0"]

    def test_header_order2(self):
        header, _ = sample_table(solve_regular(build_lq(2, 5e-7)), points=2)
        assert header == ["t", "x", "xdot", "u", "v", "z0", "z1", "px2", "pz1", "pz0"]

    def test_header_order3(self):
        sol = solve_regular(build_lq(3, 5e-9))
        header, _ = sample_table(sol, points=2)
        assert header == [
            "t", "x", "xdot", "u", "v", "z0", "z1", "z2", "px3", "pz2", "pz1", "pz0",
        ]

    @pytest.mark.parametrize("route", HEADER_ROUTES.values(), ids=HEADER_ROUTES.keys())
    def test_header_is_the_benchmarks_expected_header(self, route):
        # the package's column names and the header the benchmark's CSV check expects are one list
        sol = route()
        header = sol.trajectory.csv_columns()
        assert header == ops.expected_header(sol.kind, sol.problem.n)
        assert sample_table(sol, points=2)[0] == header

    def test_csv_round_trip_matches_evaluator(self):
        sol = regular_order1_analytic(1e-4)
        text = csv_text(sol, points=101)
        lines = text.split("\n")
        header = lines[0].split(",")
        xcol = header.index("x")
        for line in lines[1:6]:
            fields = line.split(",")
            t = float(fields[0])
            assert float(fields[xcol]) == pytest.approx(
                sol.trajectory.sample(t)["x"], abs=1e-12
            )

    def test_csv_is_lf_and_17_digits(self, tmp_path):
        path = tmp_path / "traj.csv"
        write_csv(singular_solution(1.0), path, points=5)
        raw = path.read_bytes()
        assert b"\r" not in raw
        text = raw.decode()
        value = text.split("\n")[3].split(",")[1]
        # shortest 17-significant-digit rendering must round-trip
        assert float(value) == singular_solution(1.0).trajectory.sample(0.5)["x"]

    def test_byte_identical_reruns(self):
        sol = solve_sta(build_trigonometric(6))
        assert csv_text(sol, points=64) == csv_text(sol, points=64)


TABLE_KINDS = {
    "poly4": lambda: solve_sta(build_polynomial(4)),
    "trig6": lambda: solve_sta(build_trigonometric(6)),
    "exp100": lambda: solve_sta(build_exponential(100.0)),
    "singular": lambda: singular_solution(1.0),
    "first-order-1e-4": lambda: regular_order1_analytic(1e-4),
    "n2": lambda: solve_regular(build_lq(2, 5e-7)),
    "n3-5e-9": lambda: solve_regular(build_lq(3, 5e-9)),
}


#: the entries of :data:`TABLE_KINDS` that the optimal-control packaging builds
OCT_TABLE_KINDS = ["singular", "first-order-1e-4", "n2", "n3-5e-9"]


class TestTable:
    def test_oct_table_evaluates_each_exponential_once(self, monkeypatch):
        # every row, adjoints included, comes from one real_values call
        calls = []

        def spy(sums, t):
            calls.append(len(sums.gammas))
            return expsums.real_values(sums, t)

        monkeypatch.setattr(modelmod, "real_values", spy)
        sol = solve_regular(build_lq(2, 5e-7))
        traj = sol.trajectory
        calls.clear()
        cols = traj.table(np.linspace(0.0, traj.T, 11))
        assert calls == [2 * 2 + 2 + 3]  # x, x', x'', z0, z1, v and three adjoints
        assert set(adjoint_names(2)) <= cols.keys()
        calls.clear()
        # a request evaluates the rows it names and no others
        assert traj(np.array([0.0, traj.T]), "x", "x^(1)", "x^(2)").shape == (3, 2)
        assert calls == [3]

    @pytest.mark.parametrize("make", TABLE_KINDS.values(), ids=TABLE_KINDS.keys())
    def test_rows_match_samples(self, make):
        traj = make().trajectory
        grid = np.linspace(0.0, traj.T, 101)
        cols = traj.table(grid)
        for i, t in enumerate(grid):
            s = traj.sample(t)
            assert s.keys() == cols.keys() == {"t", "xdot", "y", "u", *traj.names}
            assert all(type(value) is float for value in s.values())
            for name, value in s.items():
                scale = np.abs(cols[name]).max()
                assert abs(cols[name][i] - value) <= 1e-12 * scale


@pytest.mark.parametrize(
    "make, name",
    [
        (TABLE_KINDS["n2"], "py"),  # a first-order adjoint on a second-order solution
        (TABLE_KINDS["exp100"], "pz"),  # an adjoint on a solution that has none
        (TABLE_KINDS["singular"], "zdot"),
    ],
    ids=["n2-py", "exp100-pz", "singular-zdot"],
)
def test_unknown_row_names_itself_and_the_known_ones(make, name):
    traj = make().trajectory
    with pytest.raises(ValueError, match=f"no row '{name}'") as info:
        traj(np.array([0.0, 0.5]), "x", name)
    assert all(known in str(info.value) for known in (*traj.names, *ALIASES))


class TestEndTable:
    @pytest.mark.parametrize("make", TABLE_KINDS.values(), ids=TABLE_KINDS.keys())
    def test_ends_are_a_fresh_evaluation_of_every_row(self, make):
        traj = make().trajectory
        want = traj.evaluate(np.array([0.0, traj.T]), list(range(len(traj.names))))
        assert traj.ends.shape == (len(traj.names), 2)
        assert traj.ends.tobytes() == want.tobytes()
        assert not traj.ends.flags.writeable

    @pytest.mark.parametrize("make", TABLE_KINDS.values(), ids=TABLE_KINDS.keys())
    def test_ends_are_the_grid_end_columns(self, make):
        traj = make().trajectory
        grid = traj(np.linspace(0.0, traj.T, 3), *traj.names)
        assert traj.ends.tobytes() == np.ascontiguousarray(grid[:, [0, -1]]).tobytes()

    @pytest.mark.parametrize("make", [TABLE_KINDS[k] for k in OCT_TABLE_KINDS], ids=OCT_TABLE_KINDS)
    def test_boundary_report_of_a_packaged_solution_evaluates_nothing(self, monkeypatch, make):
        calls = []

        def spy(sums, t):
            calls.append(("real_values", np.shape(t)))
            return expsums.real_values(sums, t)

        def spy_term_sums(gammas, e):
            calls.append(("term_sums", np.shape(e)[1:]))
            return expsums.term_sums(gammas, e)

        monkeypatch.setattr(modelmod, "real_values", spy)
        monkeypatch.setattr(modelmod, "term_sums", spy_term_sums)
        sol = make()
        assert calls == [("term_sums", (2,))]  # the packaging's end table, on the route's term ends
        calls.clear()
        report = verify_boundaries(sol)
        assert calls == []
        fresh = fresh_solution(sol, fresh_trajectory(sol.trajectory))
        assert verify_boundaries(fresh).residuals == report.residuals


    @pytest.mark.parametrize("make", TABLE_KINDS.values(), ids=TABLE_KINDS.keys())
    def test_the_packaging_builds_the_end_table_in_one_pass(self, monkeypatch, make):
        # one evaluation of every row at [0, T], before the certificate, handed to the record;
        # certify, verify_boundaries and the summary then evaluate nothing
        events, handed = [], []
        real_values, term_sums, x_stack, scaled_tables, init, certify = (
            modelmod.real_values, modelmod.term_sums, stamod.AnsatzFamily.x_stack,
            stamod.AnsatzFamily._scaled_tables, Trajectory.__init__, modelmod.certify,
        )

        def spy_real_values(sums, t):
            events.append(("real_values", np.shape(t), len(sums.gammas)))
            return real_values(sums, t)

        def spy_term_sums(gammas, e):
            events.append(("term_sums", np.shape(e)[1:], len(gammas)))
            return term_sums(gammas, e)

        def spy_x_stack(family, coeffs, t, order=2):
            events.append(("x_stack", np.asarray(t).tolist(), order))
            return x_stack(family, coeffs, t, order)

        def spy_scaled_tables(family):
            # gram and cost_parts read the cost tables; solve_sta reads the end table
            if sys._getframe(1).f_code.co_name == "solve_sta":
                events.append(("end table", family.T))
            return scaled_tables.__get__(family, type(family))

        def spy_init(traj, *args, **kwargs):
            init(traj, *args, **kwargs)
            handed.append(kwargs.get("ends"))

        def spy_certify(sol):
            events.append("certify")
            certify(sol)
            events.append("certified")
            return sol

        monkeypatch.setattr(modelmod, "real_values", spy_real_values)
        monkeypatch.setattr(modelmod, "term_sums", spy_term_sums)
        monkeypatch.setattr(stamod.AnsatzFamily, "x_stack", spy_x_stack)
        monkeypatch.setattr(stamod.AnsatzFamily, "_scaled_tables", property(spy_scaled_tables))
        monkeypatch.setattr(Trajectory, "__init__", spy_init)
        monkeypatch.setattr(modelmod, "certify", spy_certify)
        sol = make()
        traj = sol.trajectory
        if sol.kind in ("sta-poly", "sta-trig"):  # the family's cached end table, read once
            evaluation = ("end table", traj.T)
        else:  # every row on the term ends the route built for its boundary system
            evaluation = ("term_sums", (2,), len(traj.names))
        assert events == [evaluation, "certify", "certified"]
        assert len(handed) == 1 and handed[0] is traj.ends
        assert not traj.ends.flags.writeable
        fresh = traj.evaluate(np.array([0.0, traj.T]), list(range(len(traj.names))))
        assert traj.ends.tobytes() == fresh.tobytes()
        events.clear()
        verify_boundaries(sol)
        solution_summary(sol)
        assert events == []

    def test_a_handed_table_is_kept_read_only(self):
        ends = np.zeros((4, 2))
        traj = Trajectory(T=1.0, n=1, names=row_names(1), evaluate=None, ends=ends)
        assert traj.ends is ends
        assert not ends.flags.writeable


def spied(sol):
    """``sol`` with an evaluator that records the times' shape and the row names of every call
    after the one that builds its end table."""
    calls = []
    traj = sol.trajectory

    def evaluate(ts, index):
        calls.append((np.shape(ts), [traj.names[i] for i in index]))
        return traj.evaluate(ts, index)

    spy = fresh_solution(sol, fresh_trajectory(traj, evaluate))
    assert calls == [((2,), list(traj.names))]
    calls.clear()
    return spy, calls


class TestRowContract:
    @pytest.mark.parametrize("make", TABLE_KINDS.values(), ids=TABLE_KINDS.keys())
    def test_each_row_alone_is_bitwise_the_full_request(self, make):
        # 8 and 9 points straddle the cut between real_values' two summation layouts
        assert expsums.FEW_POINTS == 8
        traj = make().trajectory
        for ts in (0.37 * traj.T, *(np.linspace(0.0, traj.T, points) for points in (1, 8, 9, 2001))):
            full = traj(ts, *traj.names)
            assert full.shape == (len(traj.names),) + np.shape(ts)
            for i, name in enumerate(traj.names):
                assert traj(ts, name).tobytes() == full[i : i + 1].tobytes(), (name, np.shape(ts))

    def test_aliases(self):
        traj = regular_order1_analytic(1e-4).trajectory
        ts = np.linspace(0.0, traj.T, 11)
        assert traj(ts, "xdot", "y", "u").tobytes() == traj(ts, "x^(1)", "x^(1)", "z0").tobytes()

    @pytest.mark.parametrize("make", TABLE_KINDS.values(), ids=TABLE_KINDS.keys())
    def test_verify_boundaries_reads_the_derivatives_at_two_times(self, make):
        # read from the end table the record was made with: no evaluation
        made = make()
        sol, calls = spied(made)
        assert verify_boundaries(sol).residuals == verify_boundaries(made).residuals
        assert calls == []

    @pytest.mark.parametrize("make", TABLE_KINDS.values(), ids=TABLE_KINDS.keys())
    @pytest.mark.parametrize("lam, rows", [(0.0, ["x", "x^(1)"]), (0.5, ["x", "x^(1)", "v"])])
    def test_cost_functional_reads_its_rows_once(self, make, lam, rows):
        sol, calls = spied(make())
        cost_functional(sol.trajectory, lam=lam, nodes=16, panels=3)
        assert calls == [((48,), rows)]

    @pytest.mark.parametrize("make", TABLE_KINDS.values(), ids=[f"auto-{k}" for k in TABLE_KINDS])
    def test_consistency_check_reads_one_row(self, make):
        # the profile the check picks by itself: v at first order, u = z0 above
        sol, calls = spied(make())
        singular_consistency_check(sol)
        assert calls == [((161,), ["v" if sol.problem.n == 1 else "z0"])]

    @pytest.mark.parametrize("make", TABLE_KINDS.values(), ids=TABLE_KINDS.keys())
    def test_sample_table_reads_every_row_once(self, make):
        sol, calls = spied(make())
        sample_table(sol, 101)
        assert calls == [((101,), list(sol.trajectory.names))]


def per_cell_csv(sol, points):
    """The CSV text built one cell at a time, as the reference for the bytes."""
    header, rows = sample_table(sol, points)
    lines = [",".join(header)] + [",".join(format(float(x), ".17g") for x in row) for row in rows]
    return "\n".join(lines) + "\n"


#: cells whose 17-digit rendering is easy to get wrong
SPECIAL_CELLS = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, 0.1])


class TestCsvBytes:
    @pytest.mark.parametrize(
        "points", [2, 3, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1, 1001, 2001]
    )
    @pytest.mark.parametrize("make", TABLE_KINDS.values(), ids=TABLE_KINDS.keys())
    def test_matches_per_cell_formatting(self, make, points):
        sol = make()
        assert csv_text(sol, points) == per_cell_csv(sol, points)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_every_trajectory_csv_op(self, seed):
        solved = 0
        for op in workloads.pool("trajectory-csv", seed):
            try:
                sol = ops.solve(op)
            except NumericsError:
                continue
            solved += 1
            assert csv_text(sol, op["points"]) == per_cell_csv(sol, op["points"]), op
        assert solved >= 40

    def test_equal_but_not_bitwise_equal_columns(self):
        # +0.0 == -0.0, but the two render differently, so the x and xdot
        # columns share no text
        traj = hand_built(lambda ts: [np.zeros_like(ts), -np.zeros_like(ts)] * 2)
        sol = ProtocolSolution(
            problem=ControlProblem(), kind="hand-built", coefficients={}, trajectory=traj,
            impulses=(), cost=0.0, cost_breakdown=CostBreakdown(0.0, 0.0, 0.0),
        )
        text = csv_text(sol, 3)
        assert text == per_cell_csv(sol, 3)
        assert text.split("\n")[1].split(",")[1:5] == ["0", "-0", "0", "-0"]

    def test_special_values(self):
        def rows(ts):
            cells = np.resize(SPECIAL_CELLS, ts.shape)
            return cells, -cells, -cells, cells

        traj = hand_built(rows)
        sol = ProtocolSolution(
            problem=ControlProblem(), kind="hand-built", coefficients={}, trajectory=traj,
            impulses=(), cost=0.0, cost_breakdown=CostBreakdown(0.0, 0.0, 0.0),
        )
        text = csv_text(sol, len(SPECIAL_CELLS))
        assert text == per_cell_csv(sol, len(SPECIAL_CELLS))
        cells = {c for line in text.split("\n")[1:] for c in line.split(",")}
        assert {"nan", "inf", "-inf", "-0", "4.9406564584124654e-324"} <= cells


class TestFirstOrderIdentities:
    def test_state_relations_along_samples(self):
        # x = z0 - y and u = z0 at every sample
        for sol in (
            singular_solution(1.0),
            solve_sta(build_polynomial(5)),
            regular_order1_analytic(1e-3),
        ):
            for t in np.linspace(0.0, 1.0, 17):
                s = sol.trajectory.sample(t)
                assert abs(s["x"] - (s["z0"] - s["y"])) <= 1e-10
                assert abs(s["u"] - s["z0"]) <= 1e-10

    def test_singular_arc_derivative_identity(self):
        # xdot on the arc equals cosh(t)/sinh(1), the analytic derivative
        sol = singular_solution(1.0)
        for t in np.linspace(0.01, 0.99, 25):
            s = sol.trajectory.sample(t)
            assert abs(s["xdot"] - np.cosh(t) / np.sinh(1.0)) <= 1e-12
