"""Fingerprint every benchmark op: one sha256 of what the op returned, per line.

Usage, from the root of a checkout::

    PYTHONPATH=src python tests/fingerprint.py > change.txt
    PYTHONPATH=../parent/src python tests/fingerprint.py > parent.txt
    diff parent.txt change.txt

Each line is ``workload seed index sha256``.  The ops are the pools of
``benchmarks/workloads.py`` (seeds 1 and 2 of all four workloads by
default), and the hashed text is what the op returned:

* ``solve-sweep``: the solution's JSON summary, as ``lincontrol`` prints it;
* ``trajectory-csv``: the CSV text;
* ``oracle-check``: the quadrature cost and its parts, the boundary
  residuals and, at first order, the arc fit, each as ``float.hex``;
* ``cli-mix``: the exit code, stdout and stderr of ``cli.main`` run in
  this process;

or, when the op raised, the raised type and message.  The numpy warnings an
op emits are appended to its text, so a new overflow shows even where the
result is the same.  Two checkouts whose package prints the same bytes give
the same lines; the pools come from the checkout the script sits in.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

import ops  # noqa: E402
import workloads  # noqa: E402
from lincontrol import cli, model, oct as octmod  # noqa: E402

#: the pools fingerprinted when no ``--seed`` is given
SEEDS = (1, 2)


def _hex(values):
    return " ".join(float(v).hex() for v in values)


def _solve_sweep(op):
    return cli._json(cli.solution_summary(ops.solve(op)))


def _trajectory_csv(op):
    return model.csv_text(ops.solve(op), op["points"])


def _oracle_check(op):
    sol = ops.solve(op)
    quad, parts = model.cost_functional(sol.trajectory, lam=sol.problem.lam, T=sol.problem.T,
                                        nodes=64, panels=op["panels"])
    report = model.verify_boundaries(sol, tol=ops.BOUNDARY_TOL)
    lines = [f"quadrature {_hex([quad, *parts.as_dict().values()])}"]
    lines += [f"{name} {_hex([value])}" for name, value in report.residuals.items()]
    if op["kind"] in ("oct-singular", "oct-order1"):
        lines.append(f"arc-fit {_hex([octmod.singular_consistency_check(sol)])}")
    return "\n".join(lines)


def _cli_mix(op):
    code, out, err = ops.cli_inprocess_program(op)
    return f"exit {code}\n--- stdout\n{out}--- stderr\n{err}"


RENDER = {
    "cli-mix": _cli_mix,
    "solve-sweep": _solve_sweep,
    "trajectory-csv": _trajectory_csv,
    "oracle-check": _oracle_check,
}


def rendered(workload, op):
    """The text an op's fingerprint hashes: its output or its raise, then its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            text = RENDER[workload](op)
        except Exception as exc:  # a raise is the op's output, as the benchmark counts it
            text = f"raised {type(exc).__name__}: {exc}"
    return text + "".join(f"\nwarning {w.category.__name__}: {w.message}" for w in caught)


def fingerprints(workload, seed, limit=None):
    """``(index, sha256)`` of the first ``limit`` ops (all when ``None``) of one pool."""
    for i, op in enumerate(workloads.pool(workload, seed)[:limit]):
        yield i, hashlib.sha256(rendered(workload, op).encode()).hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS,
                        help="a workload to fingerprint (repeatable; default all four)")
    parser.add_argument("--seed", action="append", type=int,
                        help=f"a pool seed (repeatable; default {' and '.join(map(str, SEEDS))})")
    parser.add_argument("--limit", type=int, default=None, help="only the first LIMIT ops of each pool")
    args = parser.parse_args(argv)
    for workload in args.workload or workloads.WORKLOADS:
        for seed in args.seed or SEEDS:
            for i, digest in fingerprints(workload, seed, args.limit):
                print(workload, seed, i, digest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
