"""The ``paper-grid`` workload: the paper's experiment through the library.

Each grid point is one k-COLOR instance of Figs 3-9 (a graph turned into
a project-join query over the six-tuple ``edge`` relation) under one
planning method.  A grid query loads the instance into a fresh catalog,
plans it with ``plan_query`` and runs it on a fresh ``VectorizedEngine``
with its result cache off, as the paper times each evaluation.

The graphs are built here, not by the program, so the inputs do not move
when the program's workload generators change.  They are the paper's
fixed instances: the structured families and two random graphs drawn
with the seeds the repository's figure benchmarks use.  ``--seed``
relabels the three colours (the values the engine interns and joins on)
and shuffles the order of the grid; the work per grid point is the same
for every seed, which is what keeps runs with different seeds
comparable.

Run as a script with ``--setup-probe SEED`` it only imports the program,
builds every instance and prints ``ready``: the benchmark times that
child to measure ``setup_s`` from a fresh interpreter.
"""

from __future__ import annotations

import random
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
from common import (  # noqa: E402
    CLOCK,
    Tracer,
    fresh_start_s,
    import_program,
    median,
    metric,
    note,
    percentile,
    setup_ready,
)

ALL_METHODS = (
    "straightforward",
    "early",
    "reordering",
    "bucket",
    "jointree",
    "yannakakis",
)
#: Yannakakis needs an acyclic query; only the augmented path is a tree.
CYCLIC_METHODS = ALL_METHODS[:5]
#: ``jointree`` computes exact treewidth, which the program limits to 18
#: query variables; order-20 random graphs have 20.
RANDOM_METHODS = ("early", "reordering", "bucket")

#: Treewidth of each structured family, from its construction: the
#: augmented path is a tree, the (augmented) ladder is a 2 x n grid, and
#: the circular ladder is a prism graph.
TREEWIDTH = {
    "augmented_path": 1,
    "ladder": 2,
    "augmented_ladder": 2,
    "augmented_circular_ladder": 3,
}

#: ``(family, order, free fraction or density, methods)``.  53 grid
#: queries per pass: an odd count puts the median inside one grid
#: point's samples, and with 51..65 points the 99th percentile falls
#: inside the slowest point's samples rather than between two points.
GRID = (
    # Boolean, every method that builds a plan for the instance.
    ("augmented_path", 8, 0.0, ALL_METHODS),
    ("ladder", 8, 0.0, CYCLIC_METHODS),
    ("augmented_ladder", 4, 0.0, CYCLIC_METHODS),
    ("augmented_circular_ladder", 4, 0.0, CYCLIC_METHODS),
    # Boolean at larger orders: the methods whose intermediates stay
    # small there (the others run out of memory, as the paper's curves
    # stop early).
    ("augmented_path", 40, 0.0, ("bucket", "yannakakis")),
    ("ladder", 40, 0.0, ("bucket",)),
    ("augmented_ladder", 20, 0.0, ("bucket",)),
    ("augmented_circular_ladder", 20, 0.0, ("bucket",)),
    # Non-Boolean: 20% of the vertices free.
    ("augmented_path", 4, 0.2, ALL_METHODS),
    ("ladder", 4, 0.2, CYCLIC_METHODS),
    ("augmented_ladder", 3, 0.2, CYCLIC_METHODS),
    ("augmented_circular_ladder", 3, 0.2, CYCLIC_METHODS),
    # Random 3-COLOR at order 20 (Figs 3-5), Boolean.
    ("random", 20, 3.0, RANDOM_METHODS),
    ("random", 20, 6.0, RANDOM_METHODS),
)

# ----------------------------------------------------------------------
# Graphs (the paper's Fig 1 families and its random generator)
# ----------------------------------------------------------------------
def augmented_path(length: int) -> list[tuple[int, int]]:
    n = length + 1
    return [(i, i + 1) for i in range(length)] + [(i, n + i) for i in range(n)]


def ladder(rungs: int) -> list[tuple[int, int]]:
    edges = [(0, rungs)]
    for i in range(rungs - 1):
        edges += [(i, i + 1), (rungs + i, rungs + i + 1), (i + 1, rungs + i + 1)]
    return edges


def augmented_ladder(rungs: int) -> list[tuple[int, int]]:
    n = 2 * rungs
    return ladder(rungs) + [(v, n + v) for v in range(n)]


def augmented_circular_ladder(rungs: int) -> list[tuple[int, int]]:
    n = 2 * rungs
    edges = ladder(rungs) + [(rungs - 1, 0), (2 * rungs - 1, rungs)]
    return edges + [(v, n + v) for v in range(n)]


def random_edges(order: int, density: float) -> list[tuple[int, int]]:
    """Distinct random edges until ``round(density * order)``, drawn with
    the seed the repository's Fig 3-5 benchmarks use for seed 0."""
    rng = random.Random(order * 101 + round(density * 10))
    seen: set = set()
    edges: list[tuple[int, int]] = []
    while len(edges) < round(density * order):
        u, v = rng.randrange(order), rng.randrange(order)
        if u != v and frozenset((u, v)) not in seen:
            seen.add(frozenset((u, v)))
            edges.append((u, v))
    return edges


FAMILIES = {
    "augmented_path": augmented_path,
    "ladder": ladder,
    "augmented_ladder": augmented_ladder,
    "augmented_circular_ladder": augmented_circular_ladder,
}


def free_vertices(edges, fraction: float) -> tuple[int, ...]:
    """The paper's non-Boolean variant: ``fraction`` of the vertices kept
    free, drawn with a fixed seed; Boolean queries select the first
    vertex of the first edge."""
    if fraction == 0.0:
        return (edges[0][0],)
    touched = sorted({v for e in edges for v in e})
    count = max(1, round(fraction * len(touched)))
    return tuple(sorted(random.Random(0).sample(touched, count)))


@dataclass
class GridPoint:
    name: str
    method: str
    edges: list
    free: tuple
    treewidth_floor: int
    query: object


def build_grid(seed: int) -> tuple[list[GridPoint], tuple]:
    """The grid queries in this seed's order, and this seed's colours."""
    from repro.core.query import Atom, ConjunctiveQuery

    rng = random.Random(seed)
    colors = tuple(rng.sample(range(1, 1000), 3))
    points = []
    for family, order, parameter, methods in GRID:
        if family == "random":
            edges = random_edges(order, parameter)
            free = free_vertices(edges, 0.0)
            floor = checks.degeneracy(edges)
            name = f"random{order}_d{parameter}"
        else:
            edges = FAMILIES[family](order)
            free = free_vertices(edges, parameter)
            floor = TREEWIDTH[family]
            name = f"{family}{order}" + ("_free" if parameter else "")
        query = ConjunctiveQuery(
            atoms=tuple(Atom("edge", (f"v{u + 1}", f"v{v + 1}")) for u, v in edges),
            free_variables=tuple(f"v{v + 1}" for v in free),
        )
        for method in methods:
            points.append(GridPoint(name, method, edges, free, floor, query))
    rng.shuffle(points)
    return points, colors


def load_catalog(colors: tuple):
    """The library's write path for one grid query: a fresh catalog
    holding the k-COLOR relation, dictionary-encoded."""
    from repro.relalg.database import Database
    from repro.relalg.relation import Relation

    relation = Relation(("u", "w"), [(a, b) for a in colors for b in colors if a != b])
    database = Database()
    database.add("edge", relation)
    relation.columnar()
    return database


def answer_rows(point: GridPoint, result) -> tuple:
    """The result's rows as tuples aligned with ``point.free``."""
    positions = [result.columns.index(f"v{v + 1}") for v in point.free]
    return tuple(sorted((tuple(row[p] for p in positions) for row in result.rows), key=repr))


# ----------------------------------------------------------------------
# Answer and property checks
# ----------------------------------------------------------------------
def check_answers(points, colors, observed) -> list[str]:
    """``observed`` maps ``(name, method)`` to the set of answers and the
    set of ``max_intermediate_arity`` values seen across passes."""
    problems = []
    verified: dict = {}
    by_instance: dict = {}
    for point in points:
        if (point.name, point.method) not in observed:
            continue  # every attempt failed; counted in ``failed``
        answers, arities = observed[(point.name, point.method)]
        if len(answers) != 1:
            problems.append(f"{point.name}/{point.method}: answers differ between passes")
        for rows in answers:
            key = (point.name, rows)
            if key not in verified:
                verified[key] = checks.coloring_answers(point.edges, point.free, colors, rows)
            problems += [f"{point.name}/{point.method}: {p}" for p in verified[key]]
        by_instance.setdefault(point.name, set()).update(answers)
        low = min(arities)
        if low < point.treewidth_floor + 1:
            problems.append(
                f"{point.name}/{point.method}: max intermediate arity {low} is below "
                f"treewidth + 1 = {point.treewidth_floor + 1}"
            )
    for name, answers in by_instance.items():
        if len(answers) != 1:
            problems.append(f"{name}: the methods disagree")
    return problems


# ----------------------------------------------------------------------
# Set-up, timed phase, traced pass
# ----------------------------------------------------------------------
def run_grid_query(point: GridPoint, colors, plan_query, engine_cls, stats_cls):
    """One grid query; returns ``(write_s, query_s, rows, stats)``."""
    started = CLOCK()
    database = load_catalog(colors)
    loaded = CLOCK()
    plan = plan_query(point.query, point.method, rng=random.Random(0))
    stats = stats_cls()
    result = engine_cls(database, plan_cache_size=0).execute(plan, stats)
    done = CLOCK()
    return loaded - started, done - loaded, answer_rows(point, result), stats


def run(seed: int, seconds: float) -> tuple[bool, int, int, dict]:
    import_program()
    from repro.core.planner import plan_query
    from repro.relalg.compiled import VectorizedEngine
    from repro.relalg.stats import ExecutionStats

    setup_s = fresh_start_s(Path(__file__), seed)
    points, colors = build_grid(seed)
    #: Per pass: ``(seconds, query times, write times)``.
    passes: list[tuple] = []
    observed: dict = {}
    attempted = failed = 0
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < seconds:
        pass_started = CLOCK()
        query_times, write_times = [], []
        for point in points:
            attempted += 1
            try:
                write_s, query_s, rows, stats = run_grid_query(
                    point, colors, plan_query, VectorizedEngine, ExecutionStats
                )
            except Exception as exc:  # counted, and the run goes on
                failed += 1
                note(f"paper-grid: {point.name}/{point.method} failed: {exc!r}")
                continue
            write_times.append(write_s)
            query_times.append(query_s)
            answers, arities = observed.setdefault((point.name, point.method), (set(), set()))
            answers.add(rows)
            arities.add(stats.max_intermediate_arity)
        passes.append((CLOCK() - pass_started, query_times, write_times))
    problems = check_answers(points, colors, observed)
    for problem in problems[:20]:
        note(f"paper-grid check: {problem}")
    note(f"paper-grid: {len(passes)} passes of {len(points)} queries in "
         f"{time.perf_counter() - started:.2f} s")
    # Each figure is the median over the passes of that pass's figure.
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "throughput_per_s": metric(median(len(q) / t for t, q, _ in passes), "1/s"),
        "latency_p50_ms": metric(1e3 * median(percentile(q, 0.50) for _, q, _ in passes), "ms"),
        "latency_p99_ms": metric(1e3 * median(percentile(q, 0.99) for _, q, _ in passes), "ms"),
        # One catalog load is tens of microseconds, too little to time
        # steadily; a pass's loads together are a few milliseconds.
        "write_p50_ms": metric(1e3 * median(sum(w) for _, _, w in passes), "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return not problems, attempted, failed, metrics


def trace(seed: int, tracer: Tracer) -> tuple[bool, int, int, dict]:
    """One traced grid pass: plan, a first execute on a fresh engine,
    and a warm repeat of the same plan on that engine."""
    import_program()
    from repro.core.planner import plan_query
    from repro.relalg.columnar import interning_info
    from repro.relalg.compiled import VectorizedEngine
    from repro.relalg.stats import ExecutionStats

    points, colors = build_grid(seed)
    plan_s = first_s = warm_s = 0.0
    rows_built = warm_tuples = 0
    tuples = {m: 0 for m in ALL_METHODS}
    arity = {m: 0 for m in ALL_METHODS}
    observed: dict = {}
    failed = 0
    for request, point in enumerate(points):
        root = tracer.open("grid.query", request=request)
        try:
            database, _ = tracer.call("database.load", load_catalog, colors, parent=root, request=request)
            plan, span = tracer.call(
                "core.plan_query", plan_query, point.query, point.method, random.Random(0),
                parent=root, request=request,
            )
            engine = VectorizedEngine(database, plan_cache_size=0)
            first, warm = ExecutionStats(), ExecutionStats()
            result, s1 = tracer.call("compiled.execute_first", engine.execute, plan, first, parent=root, request=request)
            _, s2 = tracer.call("compiled.execute_warm", engine.execute, plan, warm, parent=root, request=request)
        except Exception as exc:
            failed += 1
            note(f"paper-grid trace: {point.name}/{point.method} failed: {exc!r}")
            continue
        finally:
            tracer.close(root)
        spans = tracer.spans
        plan_s += spans[span][2] - spans[span][1]
        first_s += spans[s1][2] - spans[s1][1]
        warm_s += spans[s2][2] - spans[s2][1]
        rows_built += first.rows_built
        warm_tuples += warm.total_intermediate_tuples
        tuples[point.method] += first.total_intermediate_tuples
        arity[point.method] = max(arity[point.method], first.max_intermediate_arity)
        observed[(point.name, point.method)] = ({answer_rows(point, result)}, {first.max_intermediate_arity})
    problems = check_answers(points, colors, observed)
    for problem in problems[:20]:
        note(f"paper-grid trace check: {problem}")
    metrics = {
        "planner.plan_ms": metric(1e3 * plan_s, "ms"),
        "compiled.compile_ms": metric(1e3 * (first_s - warm_s), "ms"),
        "compiled.execute_ms": metric(1e3 * warm_s, "ms"),
        "compiled.tuples_per_s": metric(warm_tuples / warm_s, "1/s"),
        "relalg.rows_built": metric(rows_built, "count"),
        "columnar.interned_values": metric(interning_info()["values"], "count"),
    }
    for method in ALL_METHODS:
        metrics[f"relalg.intermediate_tuples.{method}"] = metric(tuples[method], "count")
        metrics[f"relalg.max_arity.{method}"] = metric(arity[method], "count")
    return not problems, len(points), failed, metrics


if __name__ == "__main__" and sys.argv[1:2] == ["--setup-probe"]:
    import_program()
    import repro.core.planner  # noqa: F401
    import repro.relalg.compiled  # noqa: F401

    build_grid(int(sys.argv[2]))
    setup_ready()
