"""Run one workload of the benchmark, or all of them.

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics of the named workload
(``all`` runs each in turn and prints one result line each).
``--trace 1`` makes the traced run instead: it replays the seeded
paper-grid, point-read and shape-churn streams in this process with
spans around every call into a layer, plus one short live run of each
TCP stream for the server's own counters, and prints every per-layer
metric.  The last line of standard output is the result::

    {"correct": true, "attempted": 371, "failed": 0, "metrics": {...}}

The exit code is 1 when an answer check fails and 2 when the benchmark
cannot run (for example, outside a checkout of the program).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import OUT, BenchError, Tracer, emit, note  # noqa: E402

WORKLOADS = ("paper-grid", "shape-replay")


def run_workload(workload: str, seed: int, seconds: float):
    if workload == "paper-grid":
        import grid

        return grid.run(seed, seconds)
    import service

    return service.run_replay(seed, seconds)


def run_traced(workload: str, seed: int, seconds: float):
    import grid
    import service

    tracer = Tracer()
    ok1, n1, f1, metrics = grid.trace(seed, tracer)
    ok2, n2, f2, more = service.trace(seed, seconds, tracer)
    metrics.update(more)
    tracer.dump(OUT / f"spans-{workload}-{seed}.jsonl")
    return ok1 and ok2, n1 + n2, f1 + f2, dict(sorted(metrics.items()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import selftest

    try:
        selftest.main()
        if args.trace:
            results = [run_traced(args.workload, args.seed, args.seconds)]
        else:
            names = WORKLOADS if args.workload == "all" else (args.workload,)
            results = [run_workload(n, args.seed, args.seconds) for n in names]
        for ok, attempted, failed, metrics in results:
            emit(ok, attempted, failed, metrics)
    except BenchError as exc:
        note(f"benchmark cannot run: {exc}")
        return 2
    return 0 if all(r[0] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
