"""Problem statement, trajectories, impulses, and the cost functional.

The controlled system is the damped drive ``xdot + x = u`` steered from
``x(0) = 0`` to ``x(T) = 1`` with the first ``n`` derivatives of ``x``
pinned to zero at both endpoints.  Solutions are scored by the running cost

    C = int_0^T [x^2 + xdot^2] dt            (bare cost)
    C_R = C + lambda * int_0^T v^2 dt        (regularized cost)

where ``v`` is the auxiliary control (``v = udot`` for ``n = 1`` and
``v = u^(n)`` in general).  Trajectories are closed-form series, never
stored arrays: named rows behind one evaluator, which each check asks for
the rows it reads.  Tabulating them is exact, so no interpolation error
enters any downstream check.  CSV text is ``'%.17g'`` of every cell, byte
for byte, from the exact numpy kernel of :mod:`lincontrol.floattext`.
Impulsive controls are represented symbolically by :class:`Impulse`
records and excluded from all integrals.

The names and indices of a boundary order (its rows, adjoints, cost rows
and boundary residuals) are one read-only table, built once per order;
:func:`row_names` and :func:`adjoint_names` read it.  Every route builds
its solution record with one assembler, :func:`assemble_solution`, which
returns it through :func:`certify`.

The value records (:class:`ControlProblem`, :class:`Impulse`,
:class:`CostBreakdown`, :class:`BoundaryReport`) are named tuples, and
:class:`Trajectory` and :class:`ProtocolSolution` are plain classes that
keep their fields and cached results in the instance dict.  Every record
refuses field assignment with ``AttributeError``.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .expsums import ExpSum, real_values, square_integrals, term_sums
from .numerics import NumericsError, Overflow, _count, integrate


class InvalidOrder(ValueError):
    """Requested basis size or derivative order is below the minimum."""


class _ProblemFields(NamedTuple):
    T: float
    n: int
    lam: float


class ControlProblem(_ProblemFields):
    """Full problem statement: horizon, boundary order, regularization.

    The one owner of a request's rules.  A field may be any real number,
    numpy scalars included, and is stored as a Python ``float`` (``T``,
    ``lam``) or ``int`` (``n``); a bool or a non-real is refused.  A named
    tuple, equal and hashed by value; every way of making one, ``_make``,
    ``_replace`` and unpickling included, runs the checks.

    Parameters
    ----------
    T : float
        Control horizon, strictly positive.  All tabulated values use 1.
    n : int
        Number of derivatives of ``x`` forced to vanish at both endpoints.
    lam : float
        Weight of the control-energy term; 0 selects the singular limit.
    """

    __slots__ = ()

    def __new__(cls, T=1.0, n=1, lam=0.0):
        T_, n_, lam_ = _real(T), _real(n), _real(lam)
        if not (math.isfinite(T_) and T_ > 0):
            raise ValueError(f"horizon must be finite and positive, got {T}")
        # n % 1 is NaN for a NaN or an infinity, so neither passes as an integer
        if not (n_ >= 1 and n_ % 1 == 0):
            raise InvalidOrder(f"derivative order must be an integer >= 1, got {n}")
        if not (math.isfinite(lam_) and lam_ >= 0):
            raise ValueError(f"regularization weight must be finite and >= 0, got {lam}")
        return tuple.__new__(cls, (T_, int(n), lam_))

    @classmethod
    def _make(cls, iterable):
        # the named tuple's own _make, and _replace through it, would skip __new__
        T, n, lam = iterable
        return cls(T, n, lam)


def _real(value):
    """``value`` as a Python float; NaN, which every field refuses, for a bool
    (numpy's too), a non-real or an integer past the float range."""
    if type(value) is float:
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        return math.nan
    try:
        return float(value)
    except OverflowError:
        return math.nan


class Impulse(NamedTuple):
    """Instantaneous control kick of finite signed area at ``t = time``."""

    time: float
    area: float


#: the tables :func:`_order_table` builds once per boundary order
_OrderTable = NamedTuple("_OrderTable", [("rows", tuple), ("adjoints", tuple), ("cost_index", np.ndarray),
                                          ("residuals", tuple)])


@lru_cache(maxsize=64)
def _order_table(n):
    """The names and the index of boundary order ``n``, built once and shared read-only.

    ``rows`` is :func:`row_names` without and with the adjoints,
    ``adjoints`` the :func:`adjoint_names`, ``cost_index`` the read-only
    index of the rows ``x``, ``x'`` and ``v`` that :func:`exact_cost` reads,
    and ``residuals`` the names of the boundary residuals in report order.
    """
    names = ("x",) + tuple(f"x^({j})" for j in range(1, n + 1)) + tuple(f"z{k}" for k in range(n)) + ("v",)
    adjoints = ("py", "pz") if n == 1 else (f"px{n}",) + tuple(f"pz{k}" for k in range(n - 1, -1, -1))
    cost_index = np.array([0, 1, 2 * n + 1])
    cost_index.setflags(write=False)
    residuals = ("x(0)", "x(T)-1") + tuple(f"x^({j})({end})" for j in range(1, n + 1) for end in "0T")
    return _OrderTable((names, names + adjoints), adjoints, cost_index, residuals)


def adjoint_names(n):
    """Names of the adjoint columns at boundary order ``n``, in chain order.

    The tuple is built once per order and shared by every caller.
    """
    return _order_table(n).adjoints


def row_names(n, adjoints=False):
    """The rows of an order-``n`` trajectory: ``x, x^(1) .. x^(n), z0 .. z{n-1}, v``,
    then the :func:`adjoint_names` when ``adjoints`` is true.

    Both tuples are built once per order and shared by every caller.
    """
    return _order_table(n).rows[bool(adjoints)]


def row_factors(rates, adjoint_weight=None):
    """The factors that turn ``x``'s gammas on the array ``rates`` into the gamma rows of ``row_names(1)``.

    Row ``a`` of the ``(rows, terms)`` array is the polynomial in the rates
    that multiplies ``x``'s gammas into row ``a``: ``1, r, 1 + r, r^2 + r``
    for ``x, x', u = x' + x, v = x'' + x'``, then ``p_y, p_z`` of the
    optimum at weight ``lam = adjoint_weight`` if given.  The flow (``p_y +
    p_z = lam v``, ``p_y' = p_y + 2y - z``, ``p_z' = z - y``) gives ``p_y =
    lam (x''' + x'') - x'`` and ``p_z = lam v - p_y``.  The one table of
    these factors: the exponential family multiplies it by its gammas, and
    the impulsive arc, the optimum at weight 0 on the rates ``+-1``, by its
    two.
    """
    F = np.empty((4 if adjoint_weight is None else 6, len(rates)))
    F[0], F[1], F[2], F[3] = 1.0, rates, 1.0 + rates, rates * rates + rates
    if adjoint_weight is not None:
        with np.errstate(over="ignore"):
            # r^3 overflows for weights below about 1e-206; the packaged p_y is then refused
            F[4] = adjoint_weight * (rates * rates * rates + rates * rates) - rates
        F[5] = adjoint_weight * F[3] - F[4]
    return F


#: other names of trajectory rows: ``xdot`` and ``y`` are ``x'``, and ``u`` is ``z0``
ALIASES = {"xdot": "x^(1)", "y": "x^(1)", "u": "z0"}


class _Record:
    """A plain record: its ``__init__`` fills the instance dict, and then no
    attribute may be assigned or deleted."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a {type(self).__name__}")


class Trajectory(_Record):
    """Closed-form trajectory on ``[0, T]``: named rows and one evaluator.

    ``names`` are the rows of :func:`row_names`: ``x`` and its derivatives
    ``x^(1) .. x^(n)``, the augmented coordinates ``z0 .. z{n-1}`` (``z0``
    is the physical control ``u``), the auxiliary control ``v`` and, for
    optimal-control solutions, the adjoints.  ``evaluate(ts, index)``
    returns the rows at the positions in the list ``index``, stacked as
    ``(len(index),) + ts.shape`` for any shape of ``ts``; each row holds the
    same bits whatever else is requested with it, so a caller asks for only
    the rows it reads.  Calling the trajectory, ``traj(ts, *names)``, does
    that by name, :data:`ALIASES` included; :meth:`table` evaluates every
    row on a whole grid in one call.

    :attr:`ends` is every row at ``t = 0`` and ``t = T``, a ``(rows, 2)``
    array handed in by the pass that builds the solution and kept
    read-only, so the boundary report and the packaging's initial adjoints
    share one evaluation.
    """

    def __init__(self, T, n, names, evaluate, ends):
        ends.setflags(write=False)
        self.__dict__.update(T=T, n=n, names=names, evaluate=evaluate, ends=ends)

    def __call__(self, ts, *names):
        """The rows ``names`` at the times ``ts``, from one evaluation; ``ValueError`` names an unknown one."""
        try:
            index = [self.names.index(ALIASES.get(name, name)) for name in names]
        except ValueError:
            name = next(name for name in names if ALIASES.get(name, name) not in self.names)
            known = ", ".join((*self.names, *ALIASES))
            raise ValueError(f"no row {name!r}; the rows and aliases are {known}") from None
        return self.evaluate(np.asarray(ts, dtype=float), index)

    def csv_columns(self):
        """The columns a CSV table shows, in order: ``t, x, xdot, u, v``, ``y``
        (first order only), ``z0..``, then the adjoints when present."""
        n = self.n
        names = ["t", "x", "xdot", "u", "v"] + (["y"] if n == 1 else [])
        return names + [f"z{k}" for k in range(n)] + list(self.names[2 * n + 2 :])

    def table(self, ts):
        """Every row and alias, and ``t``, evaluated at the times ``ts`` (array or scalar)."""
        ts = np.asarray(ts, dtype=float)
        cols = dict(zip(self.names, self.evaluate(ts, list(range(len(self.names))))))
        cols.update(t=ts, **{alias: cols[name] for alias, name in ALIASES.items()})
        return cols

    def sample(self, t):
        """:meth:`table` at one instant, as a dict of floats."""
        return {k: float(v) for k, v in self.table(float(t)).items()}

    def grid(self, points):
        return np.linspace(0.0, self.T, points)


class CostBreakdown(NamedTuple):
    """The three integrand parts of the regularized cost."""

    state: float
    derivative: float
    control_energy: float

    @property
    def total(self):
        return self.state + self.derivative + self.control_energy

    @property
    def bare(self):
        return self.state + self.derivative

    def as_dict(self):
        return self._asdict()


class ProtocolSolution(_Record):
    """A solved protocol: coefficients, trajectory, impulses, and cost.

    ``kind`` is one of ``sta-poly``, ``sta-trig``, ``sta-exp``,
    ``oct-singular``, ``oct-regular``, ``oct-higher``.  ``cost`` always
    matches the quadrature of the running cost over ``(0, T)`` (impulses
    excluded), and is ``cost_breakdown.total`` except on the impulsive arc,
    whose cost is ``coth(T)`` exactly; ``cost_breakdown.bare`` is the cost
    without the control-energy term.  A ``cost``, cost part or coefficient that is not
    finite raises :class:`~lincontrol.numerics.Overflow` naming it, so no
    solver returns a NaN or infinite number.
    """

    def __init__(self, problem, kind, coefficients, trajectory, impulses, cost, cost_breakdown):
        # a NaN or an infinity anywhere makes the sum non-finite; when only
        # the sum overflows, the loop below finds nothing to refuse
        if not math.isfinite(sum((cost, *cost_breakdown, *coefficients.values()))):
            named = {"cost": cost, **{f"cost part {k}": v for k, v in cost_breakdown.as_dict().items()}}
            for name, value in {**named, **coefficients}.items():
                if not math.isfinite(value):
                    raise Overflow(f"{kind} solution has a non-finite {name}: {value}")
        self.__dict__.update(
            problem=problem, kind=kind, coefficients=coefficients, trajectory=trajectory,
            impulses=impulses, cost=cost, cost_breakdown=cost_breakdown,
        )

    @cached_property
    def boundary_residuals(self):
        """Residuals of ``x`` and its first ``n`` derivatives at both endpoints, a read-only mapping.

        Derivatives are the trajectory's analytic rows ``x^(1) .. x^(n)``,
        read from its end table :attr:`Trajectory.ends`, so the report
        costs no evaluation.  For impulsive solutions the first-derivative
        conditions hold across the bangs: the kick area is removed from the
        arc value before comparing, since a bang of area ``A`` moves
        ``xdot`` by ``A`` instantaneously.  Built on first use and kept, so
        every report and summary of the solution reads the same mapping.
        """
        n = self.problem.n
        T = self.problem.T
        values = self.trajectory.ends[: n + 1].ravel().tolist()
        values[1] -= 1.0
        if self.impulses:
            values[2] -= sum(i.area for i in self.impulses if i.time == 0.0)
            values[3] += sum(i.area for i in self.impulses if i.time == T)
        else:
            values[3] += 0.0  # as adding no kick area does: an x'(T) of -0.0 reports 0
        return MappingProxyType(dict(zip(_order_table(n).residuals, values)))


def exact_cost(problem, rows, rates):
    """The :class:`CostBreakdown` of gamma rows in :func:`row_names` order, adjoints optional.

    The parts are the exact square integrals of the rows ``x``, ``x'`` and
    ``v`` on the terms ``rates`` over the problem's horizon, with complex
    gammas.  The package's one exact cost: :func:`package_rows` and
    :meth:`~lincontrol.sta.ExponentialAnsatz.gram` call it inside their own
    ``np.errstate`` block, which keeps a gamma outside the float range
    silent here; a caller without one sees numpy's warning.
    """
    cost_rows = np.asarray(rows, dtype=complex)[_order_table(problem.n).cost_index]
    state, deriv, ctrl = square_integrals(ExpSum(cost_rows, rates, problem.T))
    return CostBreakdown(state, deriv, problem.lam * ctrl if problem.lam else 0.0)


def package_rows(problem, kind, rows, rates, *, term_ends, impulses=(), cost_override=None, coefficients=None):
    """Package gamma rows into a :class:`ProtocolSolution`.

    ``rows`` holds one gamma row per name of ``row_names(n)`` or, when there
    are more rows, of ``row_names(n, adjoints=True)``, all on the terms
    ``rates``, anchored by the problem's horizon as every
    :class:`~lincontrol.expsums.ExpSum` is.  ``term_ends`` is each term's
    value at ``t = 0`` and ``T``, the :func:`~lincontrol.expsums.end_values`
    of ``rates`` that the route built for its own boundary system.  The rows
    form a single gamma matrix, real when every row is, and the evaluator
    hands :func:`~lincontrol.expsums.real_values` the requested rows only.
    The cost is :func:`exact_cost`'s, and it and every row at ``t = 0`` and
    ``T`` are formed inside one ``np.errstate`` block; the rows at the ends
    are one :func:`~lincontrol.expsums.term_sums` of the whole stack on
    ``term_ends``, the bits of ``real_values`` there.
    :func:`assemble_solution` builds the record from them.

    A gamma outside the float range turns the cost or a coefficient into
    NaN or infinity without a warning here, and :class:`ProtocolSolution`
    refuses it with :class:`~lincontrol.numerics.Overflow`; :func:`certify`
    then refuses a solution that misses a boundary condition.
    """
    stack = np.asarray(rows)
    with np.errstate(over="ignore", invalid="ignore"):
        breakdown = exact_cost(problem, stack, rates)
        ends = term_sums(stack, term_ends.T)

    def evaluate(ts, index):
        return real_values(ExpSum(stack[index], rates, problem.T), ts)

    return assemble_solution(problem, kind, evaluate, ends, breakdown, impulses=impulses, cost=cost_override,
                             coefficients=coefficients)


def assemble_solution(problem, kind, evaluate, ends, breakdown, *, impulses=(), cost=None, coefficients=None):
    """The certified :class:`ProtocolSolution` of a trajectory's evaluator and end table.

    The one assembler of a solution record: :func:`package_rows` and the
    polynomial and sine branch of :func:`~lincontrol.sta.solve_sta` call
    it.  ``ends`` is every row at ``t = 0`` and ``T``, in the order of
    ``row_names(n)`` or, when there are more rows, of ``row_names(n,
    adjoints=True)``; it becomes the trajectory's :attr:`Trajectory.ends`.
    The coefficients are the adjoints at ``t = 0`` (``p0_*``) read from it,
    if any, then ``coefficients``.  ``cost`` defaults to the breakdown's
    total.  The record is returned through :func:`certify`.
    """
    n = problem.n
    adjoints = len(ends) > 2 * n + 2  # more rows than the 2n + 2 of row_names(n)
    coefficients = coefficients or {}
    if adjoints:  # the adjoints at t = 0 lead the coefficients
        initial = ends[2 * n + 2 :, 0].tolist()
        coefficients = {f"p0_{nm}": value for nm, value in zip(adjoint_names(n), initial)} | coefficients
    trajectory = Trajectory(T=problem.T, n=n, names=row_names(n, adjoints), evaluate=evaluate, ends=ends)
    cost = breakdown.total if cost is None else cost
    return certify(ProtocolSolution(problem, kind, coefficients, trajectory, tuple(impulses), cost, breakdown))


def cost_functional(traj, lam=0.0, T=None, nodes=64, panels=1):
    """Quadrature of the running cost along a trajectory, over its own horizon.

    ``T`` may be passed, and must then be the trajectory's horizon.  The
    integral is split into ``panels`` equal panels, each integrated with
    an ``nodes``-point Gauss-Legendre rule, so boundary layers of width
    ``1/rate`` are resolved by choosing ``panels ~ rate * T / 16``.  Endpoint
    impulses never contribute: quadrature nodes are interior points.  The
    trajectory's rows ``x``, ``x^(1)`` and, only for ``lam > 0``, ``v`` are
    evaluated once, on every panel's nodes together; the panel integrals are
    summed in panel order, from 0, by one ``np.add.accumulate``.

    Returns
    -------
    (float, CostBreakdown)
        Total cost and its (state, derivative, control-energy) parts.

    Raises
    ------
    ValueError
        If :class:`ControlProblem` refuses ``lam`` or ``T``, ``T`` is not the
        trajectory's horizon, ``panels`` is not an integer ``>= 1`` or
        ``nodes`` not one ``>= 2`` (a numpy integer counts, a bool does not).
    ~lincontrol.numerics.Overflow
        If a part or the total is not finite, naming it.
    """
    problem = ControlProblem(T=traj.T if T is None else T, lam=lam)
    if problem.T != traj.T:
        raise ValueError(f"horizon {problem.T} is not the trajectory's horizon {traj.T}")
    names = ("x", "x^(1)", "v")[: 3 if problem.lam > 0 else 2]

    def integrand(ts):
        return traj(ts, *names) ** 2

    edges = np.linspace(0.0, problem.T, _count(panels, "panels", 1) + 1)
    terms = integrate(integrand, edges[:-1], edges[1:], nodes)
    parts = np.zeros(3)
    with np.errstate(over="ignore"):  # a part that overflows is refused below
        terms[2:] *= problem.lam  # the row v, there only at a positive weight
        terms[:, 0] += 0.0
        parts[: len(names)] = np.add.accumulate(terms, axis=1)[:, -1]
    breakdown = CostBreakdown(parts[0], parts[1], parts[2])
    if not math.isfinite(breakdown.total):
        # a part that is not finite is named; when none is, only their sum overflowed
        named = {**{f"cost part {k}": v for k, v in breakdown.as_dict().items()}, "cost": breakdown.total}
        name, value = next(item for item in named.items() if not math.isfinite(item[1]))
        raise Overflow(f"the quadrature has a non-finite {name}: {value}")
    return breakdown.total, breakdown


#: the one boundary tolerance: of :func:`certify`, and so of every solution a solver returns
BOUNDARY_TOL = 1e-8


class BoundaryReport(NamedTuple):
    """Residuals of every boundary condition, checked against one tolerance."""

    residuals: MappingProxyType
    tol: float

    @property
    def worst(self):
        """``(name, value)`` of the largest residual in magnitude; a NaN ranks above every number."""
        return max(self.residuals.items(), key=lambda item: (math.isnan(item[1]), abs(item[1])))

    @property
    def max_residual(self):
        return abs(self.worst[1])

    @property
    def passed(self):
        # max_residual <= tol, without ranking: a NaN compares false and fails
        return all(abs(v) <= self.tol for v in self.residuals.values())


class BoundaryResidual(NumericsError):
    """A solution misses one of its boundary conditions by more than the tolerance."""

    def __init__(self, report):
        name, value = report.worst
        super().__init__(
            f"boundary residual {name} = {value:.3g} exceeds the tolerance {report.tol:g}"
        )
        self.report = report


class NegativeCostPart(NumericsError):
    """A cost part, the integral of a square, came out negative: its exact
    integral lost its digits to cancellation."""


def verify_boundaries(sol, tol=BOUNDARY_TOL):
    """The :class:`BoundaryReport` of :attr:`ProtocolSolution.boundary_residuals` at ``tol``.

    A tolerance that is not a finite real ``>= 0``, read by
    :class:`ControlProblem`'s rule (a bool, numpy's too, a string, ``None``
    or a complex number is none), raises ``ValueError``.
    """
    if not 0 <= _real(tol) < math.inf:
        raise ValueError(f"boundary tolerance must be a finite real >= 0, got {tol!r}")
    return BoundaryReport(residuals=sol.boundary_residuals, tol=tol)


def certify(sol):
    """``sol``, or its typed refusal: :class:`BoundaryResidual` when its report
    fails at :data:`BOUNDARY_TOL`, then :class:`NegativeCostPart` when a cost
    part is below 0.

    The one certificate: :func:`assemble_solution` returns every solution
    through it, so no solver returns one that misses its ends or prints a
    negative integral of a square.  Its report is :func:`verify_boundaries`'
    at the default tolerance, built directly: the constant tolerance needs
    no check.
    """
    report = BoundaryReport(residuals=sol.boundary_residuals, tol=BOUNDARY_TOL)
    if not report.passed:
        raise BoundaryResidual(report)
    parts = sol.cost_breakdown
    if not min(parts) >= 0:
        name, value = min(parts.as_dict().items(), key=lambda item: item[1])
        raise NegativeCostPart(f"cost part {name} = {value:.3g} is negative, but it is the integral of a square")
    return sol


def sample_table(sol, points):
    """Tabulate the trajectory on ``points`` evenly spaced times.

    Returns ``(header, table)``: the trajectory's
    :meth:`Trajectory.csv_columns` and one float array shaped ``(points,
    len(header))``, row ``i`` holding every column at the ``i``-th time.

    Raises
    ------
    ValueError
        If ``points`` is not an integer ``>= 2`` (a numpy integer counts, a bool does not).
    """
    traj = sol.trajectory
    header = traj.csv_columns()
    cols = traj.table(traj.grid(_count(points, "points", 2)))
    return header, np.column_stack([cols[name] for name in header])


#: :func:`csv_text` formats this many rows at a time.  A block's temporaries
#: take about 160 bytes per distinct cell in :mod:`lincontrol.floattext` and
#: 100 per printed cell after it: about 1 MB at 512 rows of 11 distinct
#: columns, whatever the table's length.  In 4 s trajectory-csv runs, peak RSS
#: rose over ``%`` formatting by 1.0 MB at 512 rows and 0.6 MB at 384 or
#: 256, whose ops were 5 and 10 % slower
CSV_BLOCK_ROWS = 512


def csv_text(sol, points=1001):
    """Render the sample table as CSV: 17 significant digits, LF endings.

    Every cell is ``'%.17g' % value``, byte for byte.  The digits come from
    :func:`lincontrol.floattext.cells`, an exact numpy kernel that leaves
    zeros, subnormals, non-finite values and near-ties to ``%`` itself.
    Columns that name one trajectory row (``u`` and ``z0``, and ``xdot``
    and ``y`` at first order, by :data:`ALIASES`) are formatted once and
    their text is copied into place.  The table is formatted a block of
    :data:`CSV_BLOCK_ROWS` rows at a time.
    """
    from . import floattext

    header, table = sample_table(sol, points)
    names = [ALIASES.get(name, name) for name in header]
    distinct = list(dict.fromkeys(names))
    first = [names.index(name) for name in distinct]
    copies = [distinct.index(name) for name in names]
    separators = np.full(len(header), ord(","), dtype=np.uint8)
    separators[-1] = ord("\n")
    words = floattext.WIDTH // 8
    parts = [",".join(header) + "\n"]
    for start in range(0, points, CSV_BLOCK_ROWS):
        block = table[start : start + CSV_BLOCK_ROWS, first]
        cells = floattext.cells(block).view(np.uint64).reshape(len(block), len(distinct), words)
        text = cells[:, copies].view(np.uint8)
        # the last byte of a cell's row is always NUL: it takes the separator
        text[:, :, -1] = separators
        parts.append(text.tobytes().translate(None, b"\0").decode("ascii"))
    return "".join(parts)


def write_csv(sol, path, points=1001):
    """Write :func:`csv_text` output to ``path`` byte-for-byte."""
    text = csv_text(sol, points)
    with open(path, "w", newline="") as fh:
        fh.write(text)
    return path
