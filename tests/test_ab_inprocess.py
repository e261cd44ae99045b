"""Smoke test of ``tests/ab_inprocess.py``: this checkout against itself on a short pool."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_ab_of_a_tree_against_itself():
    # both packages load from one tree under two names, and every op gives the same outcome on both
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "ab_inprocess.py"), str(ROOT), str(ROOT / "src"),
         "--workload", "solve-sweep", "--seed", "1", "--rounds", "2", "--limit", "24"],
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"}, capture_output=True, text=True,
        check=True, timeout=120,
    )
    lines = proc.stdout.strip().splitlines()
    report = json.loads(lines[-1])
    assert (report["ops"], report["rounds"], report["outcomes_differ"]) == (24, 2, 0)
    assert report["a"]["failed"] == report["b"]["failed"]
    assert report["a"]["latency_p50_ms"] > 0 and report["b"]["pass_ms"] > 0
    kinds = {"sta-poly", "sta-trig", "sta-exp", "oct-singular", "oct-order1", "oct-regular"}
    assert set(report["kind_ratio"]) <= kinds
    assert all(ratio > 0 for ratio in report["kind_ratio"].values())
    assert report["trees"] == [str(ROOT / "src")] * 2
    # p90 is reported as p50 is: both sides, their ratio, and the kinds of the ops that set it
    a, b = report["a"], report["b"]
    assert report["p90_ratio"] == b["latency_p90_ms"] / a["latency_p90_ms"]
    assert a["latency_p90_ms"] >= a["latency_p50_ms"] > 0
    assert "p90" in lines[1] and f"({report['p90_ratio'] - 1:+.2%})" in lines[1]
    for side in (a, b):
        within = [t for t in side["latency_ms"] if abs(t - side["latency_p90_ms"]) <= 0.1 * side["latency_p90_ms"]]
        assert set(side["near_p90"]) <= kinds and sum(side["near_p90"].values()) == len(within)
        assert list(side["near_p90"].values()) == sorted(side["near_p90"].values(), reverse=True)
