"""One workload process: import, warm up, then run whole passes over the op list.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the package source
and BLAS pinned to one thread.  Modes:

``setup``  import ``lincontrol``, run the workload's fixed first op, print
           ``ready`` and exit; the parent times spawn to ``ready``.
``run``    warm up, then time whole passes until ``--seconds`` is reached;
           print one JSON result line.
``trace``  like ``run`` but with spans recorded (cli-mix calls ``cli.main``
           in process); with ``--overhead`` untraced passes alternate with
           the traced ones, for the tracing overhead.

Every pass runs the same ops, so an op must give the same outcome on every
pass; a difference marks the run as not correct.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

import hostspeed
import ops
import spans
import workloads

#: seconds of ops between two host-speed probes
PROBE_INTERVAL = 0.1

#: warm-up before the timed passes: the fixed first op, then the pool for this long
#: or one whole pass, whichever ends first
WARMUP_SECONDS = 2.0


def percentile(values, q):
    """Linear-interpolated ``q``-th percentile of a non-empty list."""
    s = sorted(values)
    pos = (len(s) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


class Session:
    """Runs ops of one workload, keeping each op's outcome for the determinism check."""

    def __init__(self, workload, op_list, recorder, program=None):
        self.workload = workload
        self.ops = op_list
        self.recorder = recorder
        self.program = program
        #: a replacement program runs each op as a fresh process (cli-mix)
        self.exponent = hostspeed.PROCESS_EXPONENT if program is not None else 1.0
        self.outcomes = {}
        self.nondeterministic = set()

    def run_op(self, i):
        self.recorder.op = i
        dt, reasons = ops.execute(self.workload, self.ops[i], self.recorder, self.program)
        outcome = tuple(reasons)
        if self.outcomes.setdefault(i, outcome) != outcome:
            self.nondeterministic.add(i)
        return dt, outcome

    def run_pass(self):
        """Every op once; returns ``(scaled seconds, outcome, wall seconds)`` per op.

        The host-speed probe runs before the first op, then between ops
        every ``PROBE_INTERVAL`` seconds, and after the last op.  An op's
        wall time is scaled by the probes on either side of it.
        """
        probes = [hostspeed.probe()]
        last = time.perf_counter()
        timed = []
        for i in range(len(self.ops)):
            if time.perf_counter() - last >= PROBE_INTERVAL:
                probes.append(hostspeed.probe())
                last = time.perf_counter()
            dt, outcome = self.run_op(i)
            timed.append((dt, outcome, len(probes) - 1))
        probes.append(hostspeed.probe())
        return [(dt * hostspeed.scale(probes[k], probes[k + 1], self.exponent), outcome, dt)
                for dt, outcome, k in timed]


#: every op is attempted at least this often in a run, so its latency is a median of several
MIN_PASSES = 3


def timed_passes(session, seconds):
    """Whole passes, at least ``MIN_PASSES``, until about ``seconds``.

    After the minimum, another pass starts only while it is expected to end
    less than half a pass after ``seconds``, so every op is attempted equally
    often.
    """
    results = []
    t0 = time.perf_counter()
    while True:
        results.append(session.run_pass())
        elapsed = time.perf_counter() - t0
        if len(results) >= MIN_PASSES and elapsed + 0.5 * elapsed / len(results) >= seconds:
            return results, elapsed


def summarize(session, results):
    """End-to-end figures of the timed passes.

    Every pass attempts the same ops, so each op has one time per pass; its
    latency is the median of them, in reference seconds (see
    :mod:`hostspeed`).  Percentiles are taken over the distinct ops and
    ``ops_per_s`` is the passed ops over the summed latency of all ops.  The
    unscaled figures over every attempt are kept under ``raw``.

    ``attempted`` and ``failed`` count distinct ops, not attempts: an op
    gives the same outcome on every pass, and the number of passes depends
    on the host's speed, so counting attempts would make the failure count
    of a seed differ from run to run.
    """
    n = len(session.ops)
    latency = [statistics.median(p[i][0] for p in results) for i in range(n)]
    passed = [i for i in range(n) if not results[0][i][1]]
    walls = [wall for p in results for _, _, wall in p]
    failed = n - len(passed)
    tally = Counter()
    for i in range(n):
        op = session.ops[i]
        label = " ".join(["cli", *op["argv"][:2]]) if op["kind"] == "cli" else op["kind"]
        for reason in session.outcomes[i]:
            tally[f"{label}: {reason}"] += 1
    return {
        "attempted": n,
        "failed": failed,
        "passes": len(results),
        "ops_per_pass": n,
        "ops_per_s": len(passed) / sum(latency),
        "latency_p50_ms": percentile(latency, 50) * 1e3,
        "latency_p90_ms": percentile(latency, 90) * 1e3,
        "failed_fraction": failed / n,
        "raw": {
            "loop_ops_per_s": statistics.median(
                sum(1 for _, r, _ in p if not r) / sum(wall for _, _, wall in p) for p in results),
            "latency_p50_ms": percentile(walls, 50) * 1e3,
            "latency_p90_ms": percentile(walls, 90) * 1e3,
        },
        "failures": dict(sorted(tally.items())),
        "nondeterministic": sorted(session.nondeterministic),
    }


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def layer_extras(workload, session, recorder):
    """Per-op ratios read off the spans: solver calls per solve, value calls per CSV row."""
    kinds = [op["kind"] for op in session.ops]
    names = recorder.names
    out = {}
    if workload == "solve-sweep":
        solves = calls = 0
        for i in range(len(recorder)):
            op = recorder.op_index[i]
            if kinds[op] not in ("sta-poly", "sta-trig") or session.outcomes[op]:
                continue
            name = names[recorder.name_id[i]]
            solves += name == "sta.solve_sta"
            calls += name == "numerics.minimize_quadratic"
        out["numerics.minimize_quadratic.calls_per_solve"] = calls / solves if solves else 0.0
    if workload == "trajectory-csv":
        target = {i for i, op in enumerate(session.ops) if op["kind"] == "oct-regular" and op["n"] == 3}
        inside = recorder.under("model.csv_text")
        rows = calls = 0
        for i in range(len(recorder)):
            op = recorder.op_index[i]
            if op not in target:
                continue
            name = names[recorder.name_id[i]]
            if name == "model.csv_text" and not recorder.failed[i]:
                rows += session.ops[op]["points"]
            calls += name == "expsums.value" and bool(inside[i])
        out["expsums.value.calls_per_row"] = calls / rows if rows else 0.0
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--overhead", action="store_true", help="trace mode: alternate with untraced passes")
    ap.add_argument("--out", default=None, help="trace mode: write the span tree here")
    args = ap.parse_args(argv)
    warnings.simplefilter("ignore")  # numpy overflow warnings from the defect draws

    recorder = spans.Recorder()
    program = None
    if args.workload == "cli-mix" and args.mode != "trace":
        env, cwd = dict(os.environ), os.getcwd()
        program = lambda op: ops.cli_process_program(op, env, cwd)  # noqa: E731
    first = Session(args.workload, [workloads.WARMUP_OPS[args.workload]], recorder, program)
    first.run_op(0)
    if args.mode == "setup":
        print("ready", flush=True)
        return 0

    session = Session(args.workload, workloads.pool(args.workload, args.seed), recorder, program)
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < WARMUP_SECONDS and len(session.outcomes) < len(session.ops):
        session.run_op(len(session.outcomes))

    result = {"workload": args.workload, "seed": args.seed}
    if args.mode == "run":
        results, wall = timed_passes(session, args.seconds)
        result.update(summarize(session, results), wall_s=wall, peak_rss_mb=peak_rss_mb(program is not None))
    else:
        traced, untraced = [], []
        t0 = time.perf_counter()
        while not traced or time.perf_counter() - t0 < args.seconds:
            if args.overhead:  # alternate untraced and traced passes so drift hits both alike
                untraced.append(session.run_pass())
            uninstall = recorder.install()
            recorder.active = True
            traced.append(session.run_pass())
            recorder.active = False
            uninstall()
        if args.overhead:
            result["untraced"] = summarize(session, untraced)
        result["traced"] = summarize(session, traced)
        per_name, _ = recorder.aggregate()
        passes = len(traced)
        result["layers"] = {name: {k: v / passes for k, v in row.items()} for name, row in per_name.items()}
        result["layers_extra"] = layer_extras(args.workload, session, recorder)
        result["spans"] = len(recorder)
        if args.out:
            Path(args.out).parent.mkdir(parents=True, exist_ok=True)
            recorder.dump(args.out, {"workload": args.workload, "seed": args.seed, "passes": passes})
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
