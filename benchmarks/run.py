"""lincontrol benchmark: four seeded closed-loop workloads, six end-to-end metrics.

Usage, from the root of a checkout (the package is run from ``src/``)::

    python3 benchmarks/run.py --workload solve-sweep --seed 1 --seconds 12 --trace 0
    python3 benchmarks/run.py --workload all --seed 1          # every workload in turn

Each workload is a closed loop with one client: the next op starts when the
previous one returns.  With ``--trace 0`` the run reports the end-to-end
metrics of one workload; with ``--trace 1`` it reports the per-layer
metrics, each measured on the workload that exercises its layer, plus the
tracing overhead of the named workload (of every workload, for ``all``).
The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import workloads  # noqa: E402

#: fresh processes timed for ``setup_s``, half before the timed loop and half after; the median is reported
SETUP_SPAWNS = 10
#: ``python -X importtime`` processes for the import breakdown
IMPORT_SPAWNS = 3
#: no child may outlive this many seconds
CHILD_TIMEOUT = 150.0
#: span trees of traced runs are written here
TRACE_DIR = ROOT / ".bench_out"

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("failed_fraction", "fraction"),
    ("peak_rss_mb", "MB"),
)

#: (workload measured on, span name, statistics reported) for the per-layer metrics
SPAN_METRICS = (
    ("solve-sweep", "sta.build", ("calls", "total_ms", "self_ms", "failed")),
    ("solve-sweep", "sta.gram", ("calls", "total_ms", "self_ms")),
    ("solve-sweep", "sta.assemble_gram", ("calls", "total_ms", "self_ms", "failed")),
    ("solve-sweep", "sta.solve_sta", ("calls", "total_ms", "failed")),
    ("solve-sweep", "numerics.minimize_quadratic", ("calls", "total_ms")),
    ("solve-sweep", "oct.spectrum", ("calls", "total_ms", "self_ms", "failed")),
    ("solve-sweep", "oct.solve_regular", ("calls", "total_ms", "failed")),
    ("solve-sweep", "oct.regular_order1_analytic", ("total_ms",)),
    ("solve-sweep", "oct.singular_solution", ("total_ms",)),
    ("solve-sweep", "oct.build_lq", ("total_ms",)),
    ("solve-sweep", "numerics.eigendecompose", ("calls", "total_ms", "self_ms", "failed")),
    ("solve-sweep", "numerics.solve_linear", ("calls", "total_ms", "self_ms", "failed")),
    ("solve-sweep", "expsums.product_integral", ("calls", "total_ms", "self_ms")),
    ("trajectory-csv", "model.sample_table", ("total_ms",)),
    ("trajectory-csv", "model.csv_text", ("self_ms",)),
    ("trajectory-csv", "expsums.value", ("calls", "total_ms")),
    ("oracle-check", "model.sample", ("calls",)),
    ("oracle-check", "model.cost_functional", ("total_ms",)),
    ("oracle-check", "numerics.integrate", ("calls", "total_ms")),
    ("oracle-check", "oct.singular_consistency_check", ("total_ms",)),
    ("oracle-check", "model.verify_boundaries", ("total_ms",)),
)

#: cli.* metric -> span recorded by ``cli.main`` on the cli-mix ops, run in process
CLI_SPANS = (
    ("cli.parse_ms", "cli.parse"),
    ("cli.summary_ms", "cli.summary"),
    ("cli.json_ms", "cli.json"),
    ("cli.csv_ms", "cli.csv"),
    ("cli.tables_ms", "cli.tables"),
    ("cli.validation_ms", "cli.validation"),
    ("cli.sweep_ms", "cli.sweep"),
)

_UNITS = {"calls": "count", "failed": "count", "total_ms": "ms", "self_ms": "ms"}


def per_layer_specs():
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = [(f"import.{k}", "ms", "lower") for k in ("total_ms", "numpy_ms", "scipy_ms", "lincontrol_self_ms")]
    specs += [(name, "ms", "lower") for name, _ in CLI_SPANS]
    for _, span, stats in SPAN_METRICS:
        specs += [(f"{span}.{s}", _UNITS[s], "lower") for s in stats]
        if span == "numerics.minimize_quadratic":
            specs.append(("numerics.minimize_quadratic.calls_per_solve", "calls/solve", "lower"))
        if span == "expsums.value":
            specs.append(("expsums.value.calls_per_row", "calls/row", "lower"))
        if span == "model.sample":
            specs.append(("model.sample.us_per_call", "us", "lower"))
    specs += [
        ("trace.untraced_ops_per_s", "1/s", "higher"),
        ("trace.traced_ops_per_s", "1/s", "higher"),
        ("trace.overhead_fraction", "fraction", "lower"),
    ]
    return specs


def child_env():
    """Environment of every child: the package from ``src/``, BLAS on one thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def _worker(args, env):
    """Run ``worker.py`` to completion; return its last stdout line as JSON."""
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _spawn_until_ready(cmd, env, marker):
    """Seconds from spawning ``cmd`` until it prints ``marker`` (or exits, if ``marker`` is None).

    Returns the time scaled to reference seconds by host-speed probes taken
    just before the spawn and just after, and the unscaled wall time.
    """
    before = hostspeed.probe()
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True) as proc:
        try:
            if marker is None:
                proc.communicate(timeout=CHILD_TIMEOUT)
                elapsed = time.perf_counter() - t0
            else:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - t0
                proc.communicate(timeout=CHILD_TIMEOUT)
                if line.strip() != marker:
                    raise RuntimeError(f"{cmd} did not report {marker!r}")
        except BaseException:
            proc.kill()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd} exited {proc.returncode}")
    return elapsed * hostspeed.scale(before, hostspeed.probe(), hostspeed.PROCESS_EXPONENT), elapsed


def setup_samples(workload, env, spawns):
    """Spawn -> end of the workload's fixed first op, for ``spawns`` fresh processes.

    For cli-mix that op is a whole ``python -m lincontrol`` process.  Returns
    ``(reference seconds, unscaled wall seconds)`` per spawn.
    """
    if workload == "cli-mix":
        cmd = [sys.executable, "-m", "lincontrol", *workloads.WARMUP_OPS["cli-mix"]["argv"]]
        marker = None
    else:
        cmd = [sys.executable, str(HERE / "worker.py"), "--mode", "setup", "--workload", workload]
        marker = "ready"
    return [_spawn_until_ready(cmd, env, marker) for _ in range(spawns)]


def end_to_end(workload, seed, seconds, env):
    """The six end-to-end metrics of one workload, with tracing off.

    The setup spawns are split around the timed loop, so that a slow spell
    of the host at either end moves at most half of them.
    """
    spawns = setup_samples(workload, env, SETUP_SPAWNS // 2)
    res = _worker(["--mode", "run", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)], env)
    spawns += setup_samples(workload, env, SETUP_SPAWNS - SETUP_SPAWNS // 2)
    values = {
        "setup_s": statistics.median(s for s, _ in spawns),
        "ops_per_s": res["ops_per_s"],
        "latency_p50_ms": res["latency_p50_ms"],
        "latency_p90_ms": res["latency_p90_ms"],
        "failed_fraction": res["failed_fraction"],
        "peak_rss_mb": res["peak_rss_mb"],
    }
    ops = f"{res['ops_per_pass']} ops, median of {res['passes']} passes"
    samples = {
        "setup_s": f"median of {len(spawns)} spawns",
        "ops_per_s": ops,
        "latency_p50_ms": ops,
        "latency_p90_ms": ops,
        "failed_fraction": f"{res['failed']}/{res['attempted']} ops",
        "peak_rss_mb": "1 process" if workload != "cli-mix" else f"max of {res['passes'] * res['ops_per_pass']} processes",
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    correct = not res["nondeterministic"] and res["attempted"] >= 1
    return {"correct": correct, "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics,
            "samples": samples, "detail": {**res, "setup_wall_s": [wall for _, wall in spawns]}}


def import_breakdown(env):
    """Median over fresh processes of the ``-X importtime`` breakdown of ``import lincontrol``."""
    from spans import parse_importtime

    runs = []
    for _ in range(IMPORT_SPAWNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import lincontrol"], env=env,
                              cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT)
        if proc.returncode != 0:
            raise RuntimeError(f"import lincontrol failed:\n{proc.stderr[-2000:]}")
        runs.append(parse_importtime(proc.stderr))
    return {f"import.{k}": statistics.median(r[k] for r in runs) for k in runs[0]}


def per_layer(names, seed, seconds, env):
    """Per-layer metrics: one traced process per workload, plus the import breakdown.

    Every workload is traced once; those in ``names`` also alternate with
    untraced passes, for their tracing overhead.  With more than one name
    the ``trace.*`` metrics are prefixed with the workload.
    """
    TRACE_DIR.mkdir(exist_ok=True)
    values = import_breakdown(env)
    traced = {}
    for w in workloads.WORKLOADS:
        args = ["--mode", "trace", "--workload", w, "--seed", str(seed),
                "--seconds", str(seconds / len(workloads.WORKLOADS)),
                "--out", str(TRACE_DIR / f"trace-{w}-seed{seed}.json")]
        traced[w] = _worker(args + (["--overhead"] if w in names else []), env)
    layers = {w: r["layers"] for w, r in traced.items()}
    for name, span in CLI_SPANS:
        values[name] = layers["cli-mix"][span]["total_ms"]
    for w, span, stats in SPAN_METRICS:
        row = layers[w][span]
        for s in stats:
            values[f"{span}.{s}"] = row[s]
        if span == "model.sample":
            values["model.sample.us_per_call"] = row["total_ms"] * 1e3 / row["calls"] if row["calls"] else 0.0
    for r in traced.values():
        values.update(r["layers_extra"])
    for w in names:
        own = traced[w]
        prefix = f"{w}." if len(names) > 1 else ""
        values[prefix + "trace.untraced_ops_per_s"] = own["untraced"]["ops_per_s"]
        values[prefix + "trace.traced_ops_per_s"] = own["traced"]["ops_per_s"]
        values[prefix + "trace.overhead_fraction"] = 1.0 - own["traced"]["ops_per_s"] / own["untraced"]["ops_per_s"]
    metrics = {}
    for name, unit, _ in per_layer_specs():
        keys = [name] if not name.startswith("trace.") or len(names) == 1 else [f"{w}.{name}" for w in names]
        metrics.update({k: {"value": values[k], "unit": unit} for k in keys})
    attempted = sum(r["traced"]["attempted"] for r in traced.values())
    failed = sum(r["traced"]["failed"] for r in traced.values())
    correct = not any(r["traced"]["nondeterministic"] for r in traced.values())
    samples = {name: "1 traced pass" for name in metrics}
    samples.update({k: f"median of {IMPORT_SPAWNS} spawns" for k in values if k.startswith("import.")})
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
            "samples": samples, "detail": {w: {k: r[k] for k in r if k != "layers"} for w, r in traced.items()}}


def report(workload, seed, result, out=sys.stdout):
    """Human-readable table of one workload's metrics, failures included."""
    print(f"== {workload}  seed {seed}  (closed loop, 1 client)", file=out)
    print(f"{'metric':46s} {'value':>14s}  {'unit':11s} samples", file=out)
    for name, m in result["metrics"].items():
        print(f"{name:46s} {m['value']:14.6g}  {m['unit']:11s} {result['samples'][name]}", file=out)
    detail = result["detail"]
    if "raw" in detail:
        raw = detail["raw"]
        walls = ", ".join(f"{s:.3f}" for s in detail["setup_wall_s"])
        print(f"  unscaled wall time over all {detail['passes'] * detail['ops_per_pass']} attempts: {raw['loop_ops_per_s']:.6g} "
              f"passed ops/s of loop time, p50 {raw['latency_p50_ms']:.6g} ms, p90 {raw['latency_p90_ms']:.6g} ms; "
              f"setup {walls} s", file=out)
    blocks = {workload: detail} if "failures" in detail else {w: d["traced"] for w, d in detail.items()}
    for w, block in blocks.items():
        for reason, count in block["failures"].items():
            print(f"  failed {count:6d}  {w} / {reason}", file=out)
    print(f"  attempted {result['attempted']}, failed {result['failed']}, correct {result['correct']}", file=out)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "lincontrol" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'lincontrol'}", file=sys.stderr)
        return 2
    env = child_env()
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        if args.trace:
            results[args.workload] = per_layer(names, args.seed, args.seconds, env)
            report(args.workload, args.seed, results[args.workload])
        else:
            for w in names:
                results[w] = end_to_end(w, args.seed, args.seconds, env)
                report(w, args.seed, results[w])
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) > 1:
        metrics = {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    else:
        metrics = results[args.workload]["metrics"]
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
