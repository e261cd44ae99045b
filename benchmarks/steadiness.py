"""Run-to-run spread of the end-to-end metrics, the way the acceptance check reads it.

Runs ``run.py`` once per (set, seed, workload), interleaving the workloads
so that drift in the machine's load hits all of them alike, then prints
for every workload and metric the median of each set and the spread
``(Q3 - Q1) / median`` of its runs, from ``statistics.quantiles(n=4)``.
Bounds come from ``BENCHMARK.json``.  A spread above a third of its bound
is marked ``!``; the check fails if any spread, ``setup_s`` included, is
above its bound, if set medians are further apart than the bound, or if
the sets' summed ``failed`` and ``attempted`` counts of a workload differ
(the sets use different seeds, so this also shows that the counts do not
depend on the seed).

    python3 benchmarks/steadiness.py --seeds 10 --sets 2
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = {(s, w): [] for s in range(args.sets) for w in names}
    for s in range(args.sets):
        for i in range(args.seeds):
            seed = args.first_seed + s * args.seeds + i
            for w in names:
                cmd = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                       "--seconds", str(spec["run_seconds"]), "--trace", "0"]
                t0 = time.perf_counter()
                out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
                elapsed = time.perf_counter() - t0
                if out.returncode != 0:
                    sys.exit(f"{' '.join(cmd)} failed:\n{out.stderr}")
                line = json.loads(out.stdout.strip().splitlines()[-1])
                runs[(s, w)].append(line)
                print(f"set {s} seed {seed} {w} ({elapsed:.0f} s): " + ", ".join(
                    f"{k}={v['value']:.4g}" for k, v in line["metrics"].items()), flush=True)

    ok = True
    print(f"\n{'workload':15s} {'metric':16s} {'bound':>6s} " + " ".join(
        f"{'median' + str(s):>12s} {'spread' + str(s):>8s}" for s in range(args.sets)) + "  medians apart")
    for w in names:
        for metric, bound in bounds.items():
            cols, medians = [], []
            for s in range(args.sets):
                values = [r["metrics"][metric]["value"] for r in runs[(s, w)]]
                medians.append(statistics.median(values))
                sp = spread(values)
                ok &= sp <= bound
                cols.append(f"{medians[-1]:12.5g} {sp:7.3f}{'!' if sp > bound / 3 else ' '}")
            apart = max(medians) / min(medians) - 1 if min(medians) > 0 else float("inf")
            ok &= apart <= bound
            print(f"{w:15s} {metric:16s} {bound:6.2f} " + " ".join(cols) +
                  f"  {apart:.3f}{' !' if apart > bound else ''}")
        counts = {(sum(r["failed"] for r in runs[(s, w)]), sum(r["attempted"] for r in runs[(s, w)]))
                  for s in range(args.sets)}
        ok &= len(counts) == 1
        print(f"{w:15s} failed/attempted per set: " + ", ".join(f"{f}/{a}" for f, a in sorted(counts)) +
              ("" if len(counts) == 1 else "  ! sets disagree"))
    print("\nsteady" if ok else "\nNOT steady: a spread or a distance between medians is above its bound, "
          "or the sets' failure counts differ")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
