"""Seeded operation lists for the four benchmark workloads.

An operation ("op") is a plain dict: ``kind`` names what is solved and the
remaining keys are its parameters.  Every list is a pure function of the
seed, so the same seed always gives the same ops.  Horizons ``T`` are
log-uniform on [0.1, 10], weights on [1e-12, 1e-1] and exponential rates on
[2, 1e3].

Parameters are drawn on jittered grids (one draw in each cell of a fixed
grid) rather than independently, so each run covers the parameter box the
same way and seeds stay comparable.  The number of ops that fail must not
depend on the seed either: two sets of runs with different seeds have to
report the same failure counts.  So the kinds whose outcome changes inside
the box (poly and trig, whose defects start near N = 8, and
``solve_regular``, whose defect region at short T has a curved edge) sit
on the cell centres, and the seed only orders them.  The other kinds pass
everywhere in the box, and the seed moves them within their cells.  No
draw is steered away from a defect: every cell of every defect region is
still drawn.
"""

from __future__ import annotations

import math
import random

T_RANGE = (0.1, 10.0)
LAM_RANGE = (1e-12, 1e-1)
K_RANGE = (2.0, 1e3)
ORDER_RANGE = (3, 20)
HIGHER_N = (2, 8)

#: quadrature cost grows with fast-rate x horizon; oracle-check keeps draws below this
ORACLE_RATE_HORIZON_MAX = 128.0

#: the ROADMAP item 3 silent-failure reproducers, as library calls
REPRODUCERS = (
    {"kind": "oct-regular", "n": 8, "lam": 1e-3, "T": 1.0, "repro": "oct higher --n 8 --lambda 1e-3"},
    {"kind": "oct-regular", "n": 3, "lam": 1e-4, "T": 1e-3, "repro": "oct higher --n 3 --lambda 1e-4 --T 1e-3"},
    {"kind": "oct-order1", "lam": 1e-4, "T": 800.0, "repro": "oct regular --lambda 1e-4 --T 800"},
    {"kind": "oct-order1", "lam": 0.999999, "T": 1.0, "repro": "regular_order1_analytic(0.999999)"},
    {"kind": "sta-poly", "N": 4, "T": 1.0, "lam": float("nan"), "repro": "ControlProblem(lam=nan)"},
    {"kind": "oct-singular", "T": float("inf"), "repro": "ControlProblem(T=inf)"},
)

#: the same reproducers as CLI invocations
CLI_REPRODUCERS = (
    ["oct", "higher", "--n", "8", "--lambda", "1e-3"],
    ["oct", "higher", "--n", "3", "--lambda", "1e-4", "--T", "1e-3"],
    ["oct", "regular", "--lambda", "1e-4", "--T", "800"],
    ["oct", "regular", "--lambda", "0.999999"],
    ["sta", "poly", "--lambda", "nan"],
    ["oct", "singular", "--T", "inf"],
)

WORKLOADS = ("cli-mix", "solve-sweep", "trajectory-csv", "oracle-check")


def _strata(rng, count, lo, hi, jitter=True):
    """``count`` log-uniform draws on [lo, hi], one per equal log-width stratum, shuffled.

    Without ``jitter`` each draw is its stratum's centre.
    """
    a, b = math.log(lo), math.log(hi)
    width = (b - a) / count
    out = [math.exp(a + (i + (rng.random() if jitter else 0.5)) * width) for i in range(count)]
    rng.shuffle(out)
    return out


def _grid(rng, gx, gy, xr, yr, jitter=True):
    """Jittered log-log grid: one point in each of the ``gx * gy`` cells (its centre without ``jitter``)."""
    ax, bx = math.log(xr[0]), math.log(xr[1])
    ay, by = math.log(yr[0]), math.log(yr[1])
    out = []
    for i in range(gx):
        for j in range(gy):
            x = math.exp(ax + (i + (rng.random() if jitter else 0.5)) * (bx - ax) / gx)
            y = math.exp(ay + (j + (rng.random() if jitter else 0.5)) * (by - ay) / gy)
            out.append((x, y))
    rng.shuffle(out)
    return out


def _basis_ops(rng, kind, t_cells):
    """Every order in ``ORDER_RANGE`` at the centres of ``t_cells`` horizon strata."""
    return [{"kind": kind, "N": N, "T": T}
            for N in range(ORDER_RANGE[0], ORDER_RANGE[1] + 1)
            for T in _strata(rng, t_cells, *T_RANGE, jitter=False)]


def solve_draws(rng):
    """The solve-sweep draw mix, without the reproducers.

    poly, trig and ``solve_regular`` sit on cell centres (see the module
    docstring); the rest are jittered within their cells.
    """
    ops = _basis_ops(rng, "sta-poly", 5) + _basis_ops(rng, "sta-trig", 5)
    ops += [{"kind": "sta-exp", "k": k, "T": T} for k, T in _grid(rng, 8, 8, K_RANGE, T_RANGE)]
    ops += [{"kind": "oct-singular", "T": T} for T in _strata(rng, 32, *T_RANGE)]
    ops += [{"kind": "oct-order1", "lam": lam, "T": T} for lam, T in _grid(rng, 8, 8, LAM_RANGE, T_RANGE)]
    for n in range(HIGHER_N[0], HIGHER_N[1] + 1):
        ops += [
            {"kind": "oct-regular", "n": n, "lam": lam, "T": T}
            for lam, T in _grid(rng, 4, 4, LAM_RANGE, T_RANGE, jitter=False)
        ]
    return ops


def fast_rate(op):
    """Fastest time scale of an op's trajectory, as a rate (1/time)."""
    kind, T = op["kind"], op["T"]
    if kind == "sta-poly":
        return op["N"] / T
    if kind == "sta-trig":
        return op["N"] * math.pi / (2.0 * T)
    if kind == "sta-exp":
        return max(1.0, op["k"])
    if kind == "oct-singular":
        return 1.0
    if kind == "oct-order1":
        return max(1.0, op["lam"] ** -0.5)
    return max(1.0, op["lam"] ** (-1.0 / (2 * op["n"])))


def solve_sweep(seed):
    """One pass of solve-sweep: about 460 drawn solves plus the reproducers."""
    rng = random.Random(f"solve-sweep:{seed}")
    ops = solve_draws(rng) + [dict(op) for op in REPRODUCERS]
    rng.shuffle(ops)
    return ops


#: ops per kind in one oracle-check pass
ORACLE_QUOTA = {"sta-poly": 18, "sta-trig": 18, "sta-exp": 18, "oct-singular": 12, "oct-order1": 18, "oct-regular": 35}

#: solve-sweep draw batches that oracle-check and trajectory-csv pick from; more batches, finer strata
CANDIDATE_BATCHES = 8


def _decisive(op):
    """Sort key of what decides an op's outcome and cost.

    The basis order for poly and trig (it decides the defects), otherwise
    rate x horizon (it decides the cost and the refusal), after the
    boundary order for ``solve_regular``.
    """
    if "N" in op:
        return (op["N"], op["T"])
    return (op.get("n", 1), fast_rate(op) * op["T"])


def _spread(ops, count):
    """``count`` ops evenly spaced through ``ops`` sorted by :func:`_decisive`: a stratified subsample."""
    ranked = sorted(ops, key=_decisive)
    return [ranked[int((i + 0.5) * len(ranked) / count)] for i in range(count)]


def oracle_check(seed):
    """One pass of oracle-check: solve-sweep draws with fast-rate x T <= 128."""
    rng = random.Random(f"oracle-check:{seed}")
    kept = {kind: [] for kind in ORACLE_QUOTA}
    for _ in range(CANDIDATE_BATCHES):
        for op in solve_draws(rng):
            if fast_rate(op) * op["T"] <= ORACLE_RATE_HORIZON_MAX:
                kept[op["kind"]].append(op)
    ops = [op for kind, q in ORACLE_QUOTA.items() for op in _spread(kept[kind], q)]
    for op in ops:
        op["panels"] = max(1, math.ceil(fast_rate(op) * op["T"] / 16.0))
    rng.shuffle(ops)
    return ops


#: ops per kind in one trajectory-csv pass (half at 1001 points, half at 2001)
CSV_PER_KIND = 6

#: trajectory-csv kinds; oct-regular is split by boundary order
CSV_KINDS = ("sta-poly", "sta-trig", "sta-exp", "oct-singular", "oct-order1", "oct-regular n=2", "oct-regular n=3")


def trajectory_csv(seed):
    """One pass of trajectory-csv: 6 solves of each of 7 kinds, each followed by a CSV.

    Each kind's ops are spread evenly through the solve-sweep draws of that
    kind, as in oracle-check, so the share of high orders (the poly and trig
    defect region) and of refused rate x horizon products is the same for
    every seed.
    """
    rng = random.Random(f"trajectory-csv:{seed}")
    groups = {kind: [] for kind in CSV_KINDS}
    for op in [op for _ in range(CANDIDATE_BATCHES) for op in solve_draws(rng)]:
        name = f"{op['kind']} n={op['n']}" if op["kind"] == "oct-regular" else op["kind"]
        if name in groups:
            groups[name].append(op)
    ops = []
    for name in CSV_KINDS:
        picked = _spread(groups[name], CSV_PER_KIND)
        ops += [{**op, "points": 1001 if i % 2 == 0 else 2001} for i, op in enumerate(picked)]
    rng.shuffle(ops)
    return ops


def _num(x):
    return repr(float(x))


def cli_mix(seed):
    """One pass of cli-mix: every subcommand once, five of them as CSV, plus the reproducers.

    Each op draws from a band where its outcome does not depend on the
    seed, so neither does the share of failures: poly N 3-7 and CSV trig
    N 3-7 solve; trig N 14-19 lies in the known defect region; ``oct higher``
    at n 7-8 on T in [0.1, 1] is in the short-horizon defect region, and
    its CSV run at n 3, T in [1, 10] and weights above 1e-9 is not.
    """
    rng = random.Random(f"cli-mix:{seed}")
    T = _strata(rng, 6, *T_RANGE)
    lam = _strata(rng, 2, *LAM_RANGE)
    sweep = sorted(_strata(rng, 4, 1e-6, 1e-2), reverse=True)
    argvs = [
        (["sta", "poly", "--order", str(rng.randint(3, 7)), "--T", _num(T[0])], "solution"),
        (["sta", "trig", "--order", str(rng.randint(14, 19)), "--T", _num(T[1])], "solution"),
        (["sta", "exp", "--k", _num(_strata(rng, 1, *K_RANGE)[0]), "--T", _num(T[2])], "solution"),
        (["sta", "trig", "--order", str(rng.randint(3, 7)), "--T", _num(T[3]),
          "--format", "csv", "--points", "1001"], "csv"),
        (["oct", "singular", "--T", _num(T[4])], "solution"),
        (["oct", "regular", "--lambda", _num(lam[0]), "--T", _num(T[5]), "--format", "csv", "--points", "1001"], "csv"),
        (["oct", "higher", "--n", str(rng.randint(7, 8)), "--lambda", _num(lam[1]),
          "--T", _num(_strata(rng, 1, 0.1, 1.0)[0])], "solution"),
        (["oct", "higher", "--n", "3", "--lambda", _num(_strata(rng, 1, 1e-9, 1e-1)[0]),
          "--T", _num(_strata(rng, 1, 1.0, 10.0)[0]), "--format", "csv", "--points", "2001"], "csv"),
        (["table1"], "table"),
        (["table2", "--format", "csv"], "table-csv"),
        (["sweep-lambda", "--lambdas", ",".join(map(_num, sweep))], "sweep-csv"),
        (["validate"], "validate"),
        (["--version"], "version"),
    ]
    argvs += [(list(a), "solution") for a in CLI_REPRODUCERS]
    ops = [{"kind": "cli", "argv": a, "check": c} for a, c in argvs]
    rng.shuffle(ops)
    return ops


POOLS = {
    "cli-mix": cli_mix,
    "solve-sweep": solve_sweep,
    "trajectory-csv": trajectory_csv,
    "oracle-check": oracle_check,
}


def pool(workload, seed):
    """The op list of one pass of ``workload`` for ``seed``."""
    return POOLS[workload](seed)


#: the fixed first op a fresh process runs; ``setup_s`` ends when it returns
WARMUP_OPS = {
    "cli-mix": {"kind": "cli", "argv": ["sta", "poly", "--order", "4"], "check": "solution"},
    "solve-sweep": {"kind": "sta-poly", "N": 4, "T": 1.0},
    "trajectory-csv": {"kind": "oct-regular", "n": 3, "lam": 5e-9, "T": 1.0, "points": 1001},
    "oracle-check": {"kind": "oct-order1", "lam": 1e-4, "T": 1.0, "panels": 7},
}
