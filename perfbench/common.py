"""Shared pieces of the benchmark: paths, the clock, set-up probes,
percentiles, the span recorder and the result line.

Everything here is the benchmark's own code; the program under test is
imported only from ``<checkout>/src`` (see :func:`import_program`).
"""

from __future__ import annotations

import json
import math
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

#: The checkout the benchmark runs in: the parent of this directory.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for generated catalogs and span dumps (git-ignored).
OUT = ROOT / ".perfbench"


class BenchError(Exception):
    """The benchmark cannot run here (for example, no program to test)."""


def import_program() -> None:
    """Put ``<checkout>/src`` first on ``sys.path`` and check that the
    ``repro`` package really comes from there, so a stray installed copy
    is never measured."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program to benchmark: {SRC / 'repro'} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise BenchError(f"imported repro from {repro.__file__}, not {SRC}")


def program_env() -> dict:
    """Environment for a child process that runs the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


#: The clock every timing of the program is read from: the CPU time of
#: this process (all its threads).  The program runs inside this process,
#: so on an idle machine this is its wall-clock time.  On a shared virtual
#: machine it leaves out the time the hypervisor gives to other guests
#: ("steal"), which here moves between 4% and 50% within minutes and made
#: wall-clock figures move by more than their bounds from run to run.
CLOCK = time.process_time

#: Fresh interpreters started per run to measure a workload's ``setup_s``.
SETUP_REPEATS = 9


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def fresh_start_s(script: Path, seed: int) -> float:
    """Median CPU time of a fresh interpreter running ``script
    --setup-probe SEED`` until it prints ``ready`` and exits at once: the
    import of the program plus the building of the workload's inputs.

    CPU time, for the reason given at :data:`CLOCK`; the child is reaped
    before the next starts, so the difference in the children's usage is
    this child's."""
    times = []
    for _ in range(SETUP_REPEATS):
        before = _children_cpu_s()
        child = subprocess.Popen(
            [sys.executable, str(script), "--setup-probe", str(seed)],
            stdout=subprocess.PIPE,
            env=program_env(),
        )
        try:
            line = child.stdout.readline()
        finally:
            child.stdout.close()
            child.wait(timeout=60)
        if line.strip() != b"ready" or child.returncode != 0:
            raise BenchError(f"set-up probe {script.name} failed")
        times.append(_children_cpu_s() - before)
    return median(times)


def setup_ready() -> None:
    """End a set-up probe: report ready and exit without the
    interpreter's teardown, which is not part of set-up."""
    print("ready", flush=True)
    os._exit(0)


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in (0, 1])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def median(values) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if not n:
        raise ValueError("median of no samples")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


class Tracer:
    """In-memory span recorder: ``(name, start, end, parent, request)``,
    times read from :data:`CLOCK`.

    Spans are recorded from the benchmark's side of each layer boundary.
    :meth:`call` and :meth:`open` return the span's index so children can
    name it as their parent; a disabled tracer records nothing and only
    runs the call, which is how the tracing overhead is measured.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[tuple] = []

    def call(self, name: str, fn, *args, parent: int = -1, request: int = -1):
        """Run ``fn(*args)`` inside a span; returns ``(result, index)``."""
        if not self.enabled:
            return fn(*args), -1
        start = CLOCK()
        result = fn(*args)
        end = CLOCK()
        self.spans.append((name, start, end, parent, request))
        return result, len(self.spans) - 1

    def open(self, name: str, parent: int = -1, request: int = -1) -> int:
        """Start a span whose end is set by :meth:`close`."""
        if not self.enabled:
            return -1
        self.spans.append([name, CLOCK(), None, parent, request])
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        if index >= 0:
            self.spans[index][2] = CLOCK()

    def durations(self, name: str) -> list[float]:
        """Durations in seconds of every span called ``name``."""
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def dump(self, path: Path) -> None:
        """Write the spans out, one JSON array per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for name, start, end, parent, request in self.spans:
                handle.write(json.dumps([name, start, end, parent, request]) + "\n")


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    """Print the result line: the last line of standard output."""
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": metrics,
            }
        ),
        flush=True,
    )


def note(message: str) -> None:
    """Progress and diagnostics go to standard error."""
    print(message, file=sys.stderr, flush=True)
