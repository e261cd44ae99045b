"""Smoke tests of the op fingerprint script, ``tests/fingerprint.py``."""

import hashlib
import re

import fingerprint
import ops
import workloads
from lincontrol import cli
from lincontrol.numerics import NumericsError


def test_lines_name_each_op_once(capsys):
    assert fingerprint.main(["--workload", "solve-sweep", "--seed", "1", "--limit", "8"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:3] for line in lines] == [["solve-sweep", "1", str(i)] for i in range(8)]
    assert all(re.fullmatch("[0-9a-f]{64}", line.split()[3]) for line in lines)
    fingerprint.main(["--workload", "solve-sweep", "--seed", "1", "--limit", "8"])
    assert capsys.readouterr().out.splitlines() == lines


def test_digest_hashes_the_summary_or_the_raise():
    pool = workloads.pool("solve-sweep", 1)
    outcomes = set()
    for i, digest in fingerprint.fingerprints("solve-sweep", 1, limit=12):
        try:
            text = cli._json(cli.solution_summary(ops.solve(pool[i])))
            outcomes.add("solved")
        except Exception as exc:
            text = f"raised {type(exc).__name__}: {exc}"
            outcomes.add("raised")
        assert digest == hashlib.sha256(text.encode()).hexdigest(), pool[i]
    assert outcomes == {"solved", "raised"}


def test_every_workload_renders(capsys):
    fingerprint.main(["--seed", "2", "--limit", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:3] for line in lines] == [[w, "2", "0"] for w in workloads.WORKLOADS]


def test_every_op_answers_or_raises_a_typed_error():
    # the benchmark's own inputs: a certified answer or a refusal a caller can
    # catch, never an untyped error; cli-mix ops return their exit code
    for workload in workloads.WORKLOADS:
        for seed in fingerprint.SEEDS:
            for i, op in enumerate(workloads.pool(workload, seed)):
                try:
                    fingerprint.RENDER[workload](op)
                except (ValueError, NumericsError):
                    pass
                except Exception as exc:
                    raise AssertionError(f"{workload} seed {seed} op {i}: {op}") from exc
