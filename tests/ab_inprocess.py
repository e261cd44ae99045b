"""In-process A/B timing of two source trees on one benchmark pool.

Usage, from the root of a checkout::

    git archive HEAD~1 | tar -x -C ../parent
    PYTHONPATH= python tests/ab_inprocess.py ../parent . --workload solve-sweep --seed 13 --rounds 11

Each tree is a checkout root (or its ``src/``) holding ``lincontrol``.  The
two packages are loaded once each into this process, under the names
``lincontrol_a`` and ``lincontrol_b``; every import inside the package is
relative, so each tree runs its own code.  This checkout's
``benchmarks/ops.py`` is loaded once per tree, bound to that tree's
package, so both sides run the benchmark's own op logic and checks, and
``benchmarks/workloads.py`` gives the pool.

Every op runs on both sides in every round, the two sides back to back and
in alternating order (A then B for even ``round + op``, B then A
otherwise), so a slow spell of the host hits both alike.  An op's latency
on a side is the median over the rounds, and the report is that of
``benchmarks/worker.py``: ``latency_p50_ms`` and ``latency_p90_ms`` over the
distinct ops, the pass time (the summed latencies), per op kind the
median of B's latency over A's, and per side the kinds of the ops within
15 % of its median and within 10 % of its p90, the ops that set each.  The JSON line also holds every
op's latency on each side and its kind, in pool order.  The last line of standard output is one
JSON object with all of them.

This sizes changes of about 1 %, which the separate processes of
``benchmarks/run.py`` cannot resolve; a speed claim is still made from
``run.py`` pairs.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import json
import statistics
import sys
import time
import warnings
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402


#: the ops whose latency is within this fraction of the median are counted by kind
MEDIAN_BAND = 0.15

#: the ops whose latency is within this fraction of the p90 are counted by kind
P90_BAND = 0.10


class _Quiet:
    """The recorder :func:`ops.execute` expects, with nothing to record."""

    def paused(self):
        return contextlib.nullcontext()


def package_root(tree):
    """The directory holding ``lincontrol/`` in a checkout root or its ``src/``."""
    tree = Path(tree).resolve()
    for root in (tree / "src", tree):
        if (root / "lincontrol" / "__init__.py").is_file():
            return root
    raise SystemExit(f"no lincontrol package under {tree}")


def load_tree(tree, name):
    """Import the ``lincontrol`` of ``tree`` as the package ``name``, with its ``cli``."""
    init = package_root(tree) / "lincontrol" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    importlib.import_module(f"{name}.cli")  # the package itself does not import it
    return package


def load_ops(package, name):
    """``benchmarks/ops.py`` as the module ``name``, its ``lincontrol`` imports bound to ``package``."""
    saved = sys.modules.get("lincontrol")
    sys.modules["lincontrol"] = package
    try:
        spec = importlib.util.spec_from_file_location(name, BENCH / "ops.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        if saved is None:
            del sys.modules["lincontrol"]
        else:
            sys.modules["lincontrol"] = saved
    return module


def label(op):
    return " ".join(["cli", *op["argv"][:2]]) if op["kind"] == "cli" else op["kind"]


def near_kinds(pool, latency, level, band):
    """``{kind: count}`` of the ops whose latency is within ``band`` of ``level``, commonest first."""
    near = {}
    for op, t in zip(pool, latency):
        if abs(t - level) <= band * level:
            near[label(op)] = near.get(label(op), 0) + 1
    return dict(sorted(near.items(), key=lambda item: -item[1]))


def run(trees, workload, seed, rounds, limit=None):
    """Time the pool on both trees; return the report as a dict."""
    sides = [load_ops(load_tree(tree, f"lincontrol_{tag}"), f"ops_{tag}") for tree, tag in zip(trees, "ab")]
    pool = workloads.pool(workload, seed)[:limit]
    quiet = _Quiet()
    times = [[[] for _ in pool] for _ in sides]
    outcomes = [[None] * len(pool) for _ in sides]
    for op in pool[:40]:  # warm caches and code paths on both sides
        for ops in sides:
            ops.execute(workload, op, quiet)
    t0 = time.perf_counter()
    for r in range(rounds):
        for i, op in enumerate(pool):
            order = (0, 1) if (r + i) % 2 == 0 else (1, 0)
            for s in order:
                dt, reasons = sides[s].execute(workload, op, quiet)
                times[s][i].append(dt)
                outcomes[s][i] = tuple(reasons)
    wall = time.perf_counter() - t0
    latency = [[statistics.median(t) for t in side] for side in times]
    kinds = {}
    for i, op in enumerate(pool):
        kinds.setdefault(label(op), []).append(latency[1][i] / latency[0][i])
    report = {"workload": workload, "seed": seed, "rounds": rounds, "ops": len(pool), "wall_s": wall,
              "trees": [str(package_root(tree)) for tree in trees]}
    for tag, lat, out in zip("ab", latency, outcomes):
        # the linear-interpolated percentiles of worker.py
        p50 = statistics.median(lat)
        p90 = statistics.quantiles(lat, n=10, method="inclusive")[8]
        report[tag] = {
            "latency_p50_ms": p50 * 1e3,
            "latency_p90_ms": p90 * 1e3,
            "pass_ms": sum(lat) * 1e3,
            "failed": sum(1 for o in out if o),
            "near_median": near_kinds(pool, lat, p50, MEDIAN_BAND),
            "near_p90": near_kinds(pool, lat, p90, P90_BAND),
            "latency_ms": [t * 1e3 for t in lat],
        }
    report["p50_ratio"] = report["b"]["latency_p50_ms"] / report["a"]["latency_p50_ms"]
    report["p90_ratio"] = report["b"]["latency_p90_ms"] / report["a"]["latency_p90_ms"]
    report["pass_ratio"] = report["b"]["pass_ms"] / report["a"]["pass_ms"]
    report["kind_ratio"] = {k: statistics.median(v) for k, v in sorted(kinds.items())}
    report["outcomes_differ"] = sum(1 for a, b in zip(*outcomes) if a != b)
    report["kinds"] = [label(op) for op in pool]
    return report


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("tree_a", help="checkout (or src/) of the baseline")
    ap.add_argument("tree_b", help="checkout (or src/) of the change")
    ap.add_argument("--workload", choices=workloads.WORKLOADS, default="solve-sweep")
    ap.add_argument("--seed", type=int, default=13)
    ap.add_argument("--rounds", type=int, default=11)
    ap.add_argument("--limit", type=int, default=None, help="time only the first LIMIT ops of the pool")
    args = ap.parse_args(argv)
    warnings.simplefilter("ignore")  # numpy overflow warnings from the defect draws, as in worker.py
    report = run((args.tree_a, args.tree_b), args.workload, args.seed, args.rounds, args.limit)
    a, b = report["a"], report["b"]
    print(f"{report['workload']} seed {report['seed']}: {report['ops']} ops x {report['rounds']} rounds "
          f"in {report['wall_s']:.1f} s")
    print(f"p50 {a['latency_p50_ms']:.4f} -> {b['latency_p50_ms']:.4f} ms ({report['p50_ratio'] - 1:+.2%}); "
          f"p90 {a['latency_p90_ms']:.4f} -> {b['latency_p90_ms']:.4f} ms ({report['p90_ratio'] - 1:+.2%}); "
          f"pass {a['pass_ms']:.2f} -> {b['pass_ms']:.2f} ms ({report['pass_ratio'] - 1:+.2%})")
    for kind, ratio in report["kind_ratio"].items():
        print(f"  {kind:20s} {ratio - 1:+.2%}")
    for key, what in (("near_median", f"{MEDIAN_BAND:.0%} of the median"), ("near_p90", f"{P90_BAND:.0%} of p90")):
        for tag in "ab":
            near = ", ".join(f"{kind} {count}" for kind, count in report[tag][key].items())
            print(f"{tag}: ops within {what}: {near}")
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
