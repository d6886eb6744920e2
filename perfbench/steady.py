"""Steadiness check: how far each end-to-end metric moves between runs.

    python3 perfbench/steady.py --runs 10 --sets 2 [--workloads paper-grid]

Runs every workload ``--runs`` times per set, alternating between the
workloads, each run with a new seed, and prints for each end-to-end
metric its median and quartiles (``statistics.quantiles(n=4)``), the
spread (third minus first quartile) as a share of the median, and that
spread as a share of the metric's bound in ``BENCHMARK.json``.  With two
or more sets it also prints how much worse each later set's median is
than the first set's, as a share of the bound; a share above 1 means two
sets of runs of the same code disagree by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if completed.returncode != 0:
        raise SystemExit(
            f"{workload} seed {seed} exited {completed.returncode}:\n{completed.stderr}"
        )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--seed", type=int, default=100, help="first seed")
    parser.add_argument(
        "--workloads", default=",".join(w["name"] for w in spec["workloads"])
    )
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    metrics = spec["end_to_end"]
    values: dict = {}
    failed_share: dict = {}
    seed = args.seed
    for s in range(args.sets):
        for _ in range(args.runs):
            for workload in workloads:
                result = run_once(workload, seed, args.seconds)
                if not result["correct"]:
                    raise SystemExit(f"{workload} seed {seed}: answer check failed")
                failed_share.setdefault((s, workload), set()).add(
                    result["failed"] / result["attempted"]
                )
                for name, entry in result["metrics"].items():
                    values.setdefault((s, workload, name), []).append(entry["value"])
                print(f"set {s + 1} seed {seed} {workload}: "
                      + ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                      file=sys.stderr, flush=True)
            seed += 1
    print(f"{'workload':12} {'metric':17} set {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'spread':>7} {'/bound':>6} {'shift/bound':>11}")
    for workload in workloads:
        for m in metrics:
            first = None
            for s in range(args.sets):
                v = values[(s, workload, m["name"])]
                q1, mid, q3 = statistics.quantiles(v, n=4)
                med = statistics.median(v)
                spread = (q3 - q1) / med
                shift = ""
                if first is None:
                    first = med
                else:
                    worse = (med - first) / first
                    if m["better"] == "higher":
                        worse = -worse
                    shift = f"{worse / m['bound']:11.2f}"
                print(f"{workload:12} {m['name']:17} {s + 1:3} {med:11.5g} {q1:11.5g} "
                      f"{q3:11.5g} {spread:7.1%} {spread / m['bound']:6.2f} {shift}")
        shares = {s: failed_share[(s, workload)] for s in range(args.sets)}
        print(f"{workload:12} failed share per set: {shares}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
