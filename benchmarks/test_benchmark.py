"""Tests of the benchmark itself: determinism, planted wrong answers, names.

    PYTHONPATH=src python3 -m pytest -q benchmarks/test_benchmark.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import ops  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from lincontrol import oct as octmod, sta  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_worker(*args):
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], env=run.child_env(),
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_ops(workload):
    first = json.dumps(workloads.pool(workload, 7))
    assert first == json.dumps(workloads.pool(workload, 7))
    assert first != json.dumps(workloads.pool(workload, 8))


@pytest.mark.parametrize("workload", ["solve-sweep", "oracle-check"])
def test_same_seed_same_failed_fraction(workload):
    args = ("--mode", "run", "--workload", workload, "--seed", "3", "--seconds", "0.1")
    a, b = _run_worker(*args), _run_worker(*args)
    assert a["failed_fraction"] == b["failed_fraction"] > 0
    assert (a["attempted"], a["failed"], a["failures"]) == (b["attempted"], b["failed"], b["failures"])
    assert a["nondeterministic"] == b["nondeterministic"] == []


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_failure_count_does_not_depend_on_seed(workload):
    counts = set()
    for seed in (1, 2):
        session = worker.Session(workload, workloads.pool(workload, seed), spans.Recorder())
        result = worker.summarize(session, [session.run_pass()])
        counts.add((result["attempted"], result["failed"]))
    assert len(counts) == 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_reproducers_in_pools_and_failures_counted():
    pool = workloads.pool("solve-sweep", 1)
    assert sum(1 for op in pool if "repro" in op) == len(workloads.REPRODUCERS)
    cli_argvs = [op["argv"] for op in workloads.pool("cli-mix", 1)]
    assert all(list(a) in cli_argvs for a in workloads.CLI_REPRODUCERS)
    cli_ops = [{"kind": "cli", "argv": list(a), "check": "solution"} for a in workloads.CLI_REPRODUCERS]
    for workload, op_list in (("solve-sweep", [dict(op) for op in workloads.REPRODUCERS]), ("cli-mix", cli_ops)):
        session = worker.Session(workload, op_list, spans.Recorder())
        result = worker.summarize(session, [session.run_pass() for _ in range(2)])
        failing = sum(1 for outcome in session.outcomes.values() if outcome)
        assert result["attempted"] == len(op_list)
        assert result["failed"] == failing
        assert result["failed_fraction"] == failing / len(op_list)
        assert sum(result["failures"].values()) >= result["failed"]


GOOD_OPS = [
    {"kind": "sta-poly", "N": 6, "T": 1.0},
    {"kind": "oct-regular", "n": 2, "lam": 1e-4, "T": 1.0},
]


@pytest.mark.parametrize("op", GOOD_OPS, ids=lambda op: op["kind"])
@pytest.mark.parametrize("workload", ["solve-sweep", "trajectory-csv", "oracle-check"])
def test_planted_wrong_coefficient_is_a_failure(workload, op, monkeypatch):
    op = {**op, "points": 1001, "panels": 1}
    rec = spans.Recorder()
    assert ops.execute(workload, op, rec)[1] == []

    if op["kind"] == "sta-poly":
        original = sta.AnsatzFamily.coefficient_vector

        def perturbed(self, params=()):
            coeffs = original(self, params).copy()
            coeffs[-1] *= 1.0 + 1e-6
            return coeffs

        monkeypatch.setattr(sta.AnsatzFamily, "coefficient_vector", perturbed)
    else:
        original = octmod._modal_amplitudes

        def perturbed(flow):
            w, V, c = original(flow)
            c = c.copy()
            c[0] *= 1.0 + 1e-6
            return w, V, c

        monkeypatch.setattr(octmod, "_modal_amplitudes", perturbed)
    assert ops.execute(workload, op, rec)[1] != []


def test_planted_wrong_cli_outputs_are_failures():
    summary = json.dumps({"T": 1.0, "cost": 1.6, "cost_breakdown": {"state": 0.4, "derivative": 1.2,
                          "control_energy": 0.0}, "boundary_residuals": {"x(0)": 0.0, "x(T)-1": 0.0}})
    op = {"kind": "cli", "argv": ["sta", "poly"], "check": "solution"}
    assert ops.check_cli(op, 0, summary, "") == []
    assert ops.check_cli(op, 0, summary.replace('"x(T)-1": 0.0', '"x(T)-1": 1e-6'), "") == ["boundary-residual"]
    assert ops.check_cli(op, 0, summary.replace("1.6", "nan"), "") == ["non-finite", "cost-mismatch"]
    assert ops.check_cli(op, 2, "", "") == ["exit-2"]
    header = ops.expected_header("sta", 1)
    csv = ",".join(header) + "\n" + "0,0,0,0,0,0,0\n1,1,0,1,0,0,1\n"
    assert ops.check_csv(csv, header, 2, 1.0) == []
    assert ops.check_csv(csv.replace("\n1,1,", "\n1,0.99,"), header, 2, 1.0) == ["csv-endpoint"]
    assert ops.check_csv(csv, header, 3, 1.0) == ["csv-row-count"]


def test_self_time_subtracts_child_spans():
    rec = spans.Recorder()

    def leaf():
        return sum(range(20000))

    leaf_t = rec.wrap("leaf", leaf)

    def outer():
        return leaf_t() + leaf_t()

    outer_t = rec.wrap("outer", outer)
    rec.active = True
    outer_t()
    rec.active = False
    per_name, edges = rec.aggregate()
    assert per_name["outer"]["calls"] == 1 and per_name["leaf"]["calls"] == 2
    child = per_name["leaf"]["total_ms"]
    assert per_name["outer"]["self_ms"] == pytest.approx(per_name["outer"]["total_ms"] - child)
    assert per_name["leaf"]["self_ms"] == per_name["leaf"]["total_ms"]
    assert edges["outer > leaf"]["calls"] == 2


def test_importtime_breakdown():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy._core",
        "import time:       200 |        300 |     numpy",
        "import time:        50 |         50 |         numpy.linalg",
        "import time:       400 |        450 |       scipy.linalg",
        "import time:        10 |        460 |     lincontrol.numerics",
        "import time:        20 |        780 |   lincontrol",
    ])
    assert spans.parse_importtime(stderr) == {
        "total_ms": 0.78, "numpy_ms": 0.3, "scipy_ms": 0.45, "lincontrol_self_ms": 0.03}


def test_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == run.per_layer_specs()
    assert SPEC["command"] == ["python3", "benchmarks/run.py"] and SPEC["paths"] == ["benchmarks"]


def test_printed_result_matches_benchmark_json():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "solve-sweep", "--seed", "1",
                           "--seconds", "0.2", "--trace", "0"], cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "solve-sweep", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=170)
    assert proc.returncode != 0 and proc.stdout == ""
