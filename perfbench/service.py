"""The service side of the benchmark: the ``shape-replay`` workload and
the traced run's service layers.

The request streams model two kinds of traffic from :data:`CONNECTIONS`
connections.  The catalog is a random ``graph`` relation plus one
``feed<i>`` relation per connection; connection *i* is the only writer
of ``feed<i>``, so the rows every one of its requests must see follow
from its own write history.

- ``point-read``: each connection prepares a few short anchored chains
  once and then executes them by statement id, anchors drawn from a
  small pool; one operation in ten is an ``update`` of its ``feed<i>``.
- ``shape-churn``: every read is an ad-hoc ``query`` drawn from a
  Zipf-skewed population of a few thousand connected shapes, more than
  the 256-entry statement cache holds; the write share is the same.

``shape-replay`` (:func:`run_replay`) replays the shape-churn stream in
this process through the calls the pool backend makes per request.  The
traced run (:func:`trace`) replays both streams with spans, and runs
``python -m repro serve`` once per stream over TCP (``--workers 0`` for
point-read, ``--workers 2 --replicas 1`` for shape-churn) for the
server's own counters.

A stream is a fixed number of requests per connection, set by
``--seconds`` through :data:`RATE`, not a span of seconds: the catalog
and unit store grow with every shape the statement cache evicts, so a
fixed span would let a slower program report less memory.
"""

from __future__ import annotations

import asyncio
import bisect
import json
import os
import random
import resource
import select
import signal
import subprocess
import sys
import time
from itertools import product
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
from common import (  # noqa: E402
    OUT,
    ROOT,
    CLOCK,
    BenchError,
    Tracer,
    fresh_start_s,
    import_program,
    median,
    metric,
    note,
    percentile,
    program_env,
    setup_ready,
)

CONNECTIONS = 2
GRAPH_NODES = 80
GRAPH_DRAWS = 600
FEED_DRAWS = 200
#: Anchors (query constants) come from this many graph nodes.
ANCHOR_POOL = 12
#: Operations per round; one in ten is a write.  Runs are whole rounds.
ROUND = 50
WRITES_PER_ROUND = 5
#: Requests per connection per second of ``--seconds`` (about what this
#: workload reaches on a 2-CPU machine, so a run lasts about that long).
RATE = {"point-read": 360, "shape-churn": 240, "shape-replay": 240}
SERVER_ARGS = {
    "point-read": ["--workers", "0"],
    "shape-churn": ["--workers", "2", "--replicas", "1"],
}
#: Seconds a server may take to print its listening line.
START_TIMEOUT = 60
#: Zipf exponent of the shape-churn population's popularity.
ZIPF_S = 1.0
DATABASE = "bench"
METHOD = "bucket"
ENGINE = "vectorized"


# ----------------------------------------------------------------------
# Inputs: catalog and request streams
# ----------------------------------------------------------------------
def node_labels(seed: int) -> list[int]:
    """The seed's values for the :data:`GRAPH_NODES` nodes."""
    return random.Random(seed).sample(range(1, 100_000), GRAPH_NODES)


def build_catalog(seed: int) -> dict[str, list[tuple[int, int]]]:
    """The catalog: a fixed random structure whose nodes carry the
    seed's values.  The seed changes every value the program stores,
    interns and joins on, but not how many rows any query touches, so
    runs with different seeds do the same work."""
    rng = random.Random(7907)
    labels = node_labels(seed)

    def draw(count: int) -> list[tuple[int, int]]:
        return sorted(
            {(labels[rng.randrange(GRAPH_NODES)], labels[rng.randrange(GRAPH_NODES)])
             for _ in range(count)}
        )

    catalog = {"graph": draw(GRAPH_DRAWS)}
    for i in range(CONNECTIONS):
        catalog[f"feed{i}"] = draw(FEED_DRAWS)
    return catalog


def write_catalog(catalog: dict, directory: Path) -> None:
    """One ``<relation>.csv`` per relation: a header, then the rows."""
    directory.mkdir(parents=True, exist_ok=True)
    for stale in directory.glob("*.csv"):
        stale.unlink()
    for name, rows in catalog.items():
        lines = ["u,w"] + [f"{u},{w}" for u, w in rows]
        (directory / f"{name}.csv").write_text("\n".join(lines) + "\n")


def render(atoms, head) -> str:
    def term(t):
        return t[1] if checks.is_var(t) else str(t[1])

    body = ", ".join(f"{rel}({', '.join(term(t) for t in terms)})" for rel, terms in atoms)
    return f"q({', '.join(head)}) :- {body}."


def constants(atoms) -> list:
    """Constants in term-scan order: the order of the server's holes."""
    return [t[1] for _, terms in atoms for t in terms if not checks.is_var(t)]


def with_constants(atoms, values) -> list:
    it = iter(values)
    return [
        (rel, tuple(t if checks.is_var(t) else ("c", next(it)) for t in terms))
        for rel, terms in atoms
    ]


V = [("v", f"X{i}") for i in range(6)]
HOLE = ("c", None)


def point_statements(i: int) -> list[tuple[list, tuple]]:
    """Connection ``i``'s prepared chains, as ``(atoms, head)`` with
    holes; the first two are shared by every connection."""
    feed = f"feed{i}"
    return [
        ([("graph", (HOLE, V[1])), ("graph", (V[1], V[2]))], ("X2",)),
        ([("graph", (HOLE, V[1])), ("graph", (V[1], V[2])), ("graph", (V[2], HOLE))], ("X1",)),
        ([(feed, (HOLE, V[1])), ("graph", (V[1], V[2]))], ("X2",)),
        ([("graph", (HOLE, V[1])), (feed, (V[1], V[2]))], ("X1",)),
        ([("graph", (HOLE, V[1])), ("graph", (V[1], V[2])), (feed, (V[2], V[3]))], ("X1", "X2")),
    ]


#: Share of point-read reads per statement above.
POINT_WEIGHTS = (30, 20, 20, 15, 15)


def shape_population() -> list[tuple[list, tuple]]:
    """Connected shapes over ``graph`` and ``feed``: chains and stars of
    2-4 atoms, each orientation, one or two anchors, one head variable.
    ``feed`` is renamed to the connection's own relation when drawn."""
    shapes = []
    seen = set()
    for k in (2, 3, 4):
        for topology in ("chain", "star") if k >= 3 else ("chain",):
            for rels in product(("graph", "feed"), repeat=k):
                for orient in product((0, 1), repeat=k):
                    for anchors in (1, 2):
                        ends = [
                            (i, i + 1) if topology == "chain" else (0, i + 1)
                            for i in range(k)
                        ]
                        fixed = {0, k} if anchors == 2 else {0}

                        def term(x, fixed=fixed):
                            return HOLE if x in fixed else V[x]

                        atoms = [
                            (rel, (term(a), term(b)) if o == 0 else (term(b), term(a)))
                            for rel, (a, b), o in zip(rels, ends, orient)
                        ]
                        for h in range(1, k + 1):
                            if h in fixed:
                                continue
                            key = (tuple(atoms), h)
                            if key not in seen:
                                seen.add(key)
                                shapes.append((atoms, (f"X{h}",)))
    return shapes


class Op:
    """One request of a connection's stream."""

    __slots__ = ("kind", "statement", "atoms", "head", "rule", "params",
                 "relation", "insert", "delete")

    def __init__(self, kind, statement=None, atoms=None, head=None, rule=None,
                 params=None, relation=None, insert=(), delete=()):
        self.kind = kind
        self.statement = statement
        self.atoms = atoms
        self.head = head
        self.rule = rule
        self.params = params
        self.relation = relation
        self.insert = insert
        self.delete = delete

    def message(self, session: int, statements: list) -> dict:
        if self.kind == "execute":
            return {"op": "execute", "session": session,
                    "statement": statements[self.statement], "params": self.params}
        if self.kind == "query":
            return {"op": "query", "session": session, "rule": self.rule}
        return {"op": "update", "session": session, "relation": self.relation,
                "insert": [list(r) for r in self.insert],
                "delete": [list(r) for r in self.delete]}


def write_op(rng: random.Random, feed: str, rows: set, labels: list) -> Op:
    """Insert or delete one or two rows, keeping ``feed`` near its size."""
    count = rng.choice((1, 2))
    if rng.random() < 0.5 and len(rows) > count:
        node = {label: n for n, label in enumerate(labels)}
        ordered = sorted(rows, key=lambda row: (node[row[0]], node[row[1]]))
        delete = tuple(rng.sample(ordered, count))
        rows.difference_update(delete)
        return Op("update", relation=feed, delete=delete)
    insert = set()
    while len(insert) < count:
        row = (rng.choice(labels), rng.choice(labels))
        if row not in rows:
            insert.add(row)
    rows.update(insert)
    return Op("update", relation=feed, insert=tuple(sorted(insert)))


def anchor_pool(seed: int) -> list[int]:
    """The values of a fixed set of nodes with out-edges in ``graph``."""
    base = node_labels(0)
    sources = sorted({base.index(u) for u, _ in build_catalog(0)["graph"]})
    labels = node_labels(seed)
    return [labels[n] for n in random.Random(31).sample(sources, ANCHOR_POOL)]


def build_streams(workload: str, seed: int, catalog: dict, rounds: int) -> list[list[Op]]:
    """Each connection's timed request stream: ``rounds`` whole rounds."""
    anchors = anchor_pool(seed)
    labels = node_labels(seed)
    population = shape_population() if workload == "shape-churn" else None
    streams = []
    for i in range(CONNECTIONS):
        # A fixed sequence of choices over the seed's values: every seed
        # sends the same shapes, anchors and writes up to relabelling, so
        # runs with different seeds do the same work.
        rng = random.Random(1009 + i)
        feed = f"feed{i}"
        rows = set(catalog[feed])
        if population is not None:
            ranked = population[:]
            random.Random(1009 + i).shuffle(ranked)
            cumulative = []
            total = 0.0
            for r in range(len(ranked)):
                total += 1.0 / (r + 1) ** ZIPF_S
                cumulative.append(total)
        ops = []
        for _ in range(rounds):
            kinds = ["w"] * WRITES_PER_ROUND + ["r"] * (ROUND - WRITES_PER_ROUND)
            rng.shuffle(kinds)
            for kind in kinds:
                if kind == "w":
                    ops.append(write_op(rng, feed, rows, labels))
                elif population is None:
                    s = rng.choices(range(len(POINT_WEIGHTS)), POINT_WEIGHTS)[0]
                    template, head = point_statements(i)[s]
                    params = [rng.choice(anchors) for _ in constants(template)]
                    ops.append(Op("execute", statement=s, params=params,
                                  atoms=with_constants(template, params), head=head))
                else:
                    template, head = ranked[bisect.bisect_left(cumulative, rng.random() * total)]
                    template = [(feed if rel == "feed" else rel, terms) for rel, terms in template]
                    atoms = with_constants(template, [rng.choice(anchors) for _ in constants(template)])
                    ops.append(Op("query", atoms=atoms, head=head, rule=render(atoms, head)))
        streams.append(ops)
    return streams


def warmup_ops(workload: str, i: int, catalog: dict, anchors: list) -> list[Op]:
    """A warm-up pass: each prepared statement once (point-read) or two
    one-atom queries outside the timed population (shape-churn), then one
    row inserted and deleted again."""
    feed = f"feed{i}"
    ops = []
    if workload == "point-read":
        for s, (template, head) in enumerate(point_statements(i)):
            params = [anchors[0]] * len(constants(template))
            ops.append(Op("execute", statement=s, params=params,
                          atoms=with_constants(template, params), head=head))
    else:
        for rel in ("graph", feed):
            atoms = [(rel, (("c", anchors[0]), V[1]))]
            ops.append(Op("query", atoms=atoms, head=("X1",), rule=render(atoms, ("X1",))))
    row = next((u, w) for u in anchors for w in anchors if (u, w) not in set(catalog[feed]))
    ops.append(Op("update", relation=feed, insert=(row,)))
    ops.append(Op("update", relation=feed, delete=(row,)))
    return ops


# ----------------------------------------------------------------------
# The server and the client
# ----------------------------------------------------------------------
class Server:
    """``python -m repro serve`` on the generated catalog."""

    def __init__(self, workload: str, catalog_dir: Path) -> None:
        log = open(OUT / f"server-{workload}.log", "ab")
        try:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--db", f"{DATABASE}={catalog_dir}",
                 "--default-engine", ENGINE, "--default-method", METHOD,
                 *SERVER_ARGS[workload]],
                stdout=subprocess.PIPE, stderr=log, env=program_env(), cwd=ROOT,
            )
        finally:
            log.close()
        self.worker_pids: list[int] = []
        ready, _, _ = select.select([self.process.stdout], [], [], START_TIMEOUT)
        line = self.process.stdout.readline().decode() if ready else ""
        if "listening on" not in line:
            self.stop()
            raise BenchError(f"server did not start: {line!r}")
        self.port = int(line.split("listening on ")[1].split()[0].rsplit(":", 1)[1])

    def note_workers(self, stats: dict) -> None:
        """Remember the pool workers named by a ``stats`` reply, so that
        :meth:`stop` waits for them too."""
        self.worker_pids = [w["pid"] for w in stats.get("pool", {}).get("workers", {}).values()]

    def stop(self) -> None:
        """Stop the server and wait for it and its workers to end."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30)
        self.process.stdout.close()
        deadline = time.monotonic() + 10
        for pid in self.worker_pids:
            while _alive(pid) and time.monotonic() < deadline:
                time.sleep(0.02)
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().split(") ")[1][0] != "Z"
    except (FileNotFoundError, IndexError):
        return False


class Connection:
    """One client connection: a session, its statements, its log."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.reader = self.writer = None
        self.session = None
        self.statements: list[int] = []
        self.next_id = 0
        #: ``(op, sent, received, response)`` in request order.
        self.log: list[tuple] = []

    async def open(self, port: int) -> None:
        self.reader, self.writer = await asyncio.open_connection(
            "127.0.0.1", port, limit=1 << 24
        )

    async def request(self, message: dict) -> dict:
        self.next_id += 1
        message["id"] = self.next_id
        self.writer.write(json.dumps(message, separators=(",", ":")).encode() + b"\n")
        await self.writer.drain()
        return json.loads(await self.reader.readline())

    async def run(self, ops: list[Op]) -> None:
        clock = time.perf_counter
        for op in ops:
            message = op.message(self.session, self.statements)
            sent = clock()
            response = await self.request(message)
            self.log.append((op, sent, clock(), response))

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            await self.writer.wait_closed()


async def _prepare(conn: Connection, workload: str, anchors: list) -> None:
    opened = await conn.request(
        {"op": "open_session", "database": DATABASE, "engine": ENGINE, "method": METHOD}
    )
    if not opened.get("ok"):
        raise BenchError(f"open_session failed: {opened}")
    conn.session = opened["session"]
    if workload == "point-read":
        for template, head in point_statements(conn.index):
            params = [anchors[0]] * len(constants(template))
            reply = await conn.request(
                {"op": "prepare", "session": conn.session,
                 "rule": render(with_constants(template, params), head)}
            )
            if not reply.get("ok"):
                raise BenchError(f"prepare failed: {reply}")
            conn.statements.append(reply["statement"])


async def _launch(workload: str, catalog_dir: Path, catalog: dict, anchors: list):
    """Start the server and bring every connection to warm; returns
    ``(server, connections)``."""
    server = Server(workload, catalog_dir)
    conns = [Connection(i) for i in range(CONNECTIONS)]
    try:
        for conn in conns:
            await conn.open(server.port)
        await asyncio.gather(*(_prepare(c, workload, anchors) for c in conns))
        await asyncio.gather(
            *(c.run(warmup_ops(workload, c.index, catalog, anchors)) for c in conns)
        )
    except BaseException:
        for conn in conns:
            await conn.close()
        server.stop()
        raise
    return server, conns


async def _stats(conn: Connection) -> dict:
    reply = await conn.request({"op": "stats"})
    if not reply.get("ok"):
        raise BenchError(f"stats failed: {reply}")
    return reply["stats"]


async def live(workload: str, seed: int, rounds: int) -> dict:
    """Start a server, bring every connection to warm and run the
    stream on it.  Returns everything the counters and checks need."""
    catalog = build_catalog(seed)
    catalog_dir = OUT / f"catalog-{workload}-{seed}"
    OUT.mkdir(parents=True, exist_ok=True)
    write_catalog(catalog, catalog_dir)
    anchors = anchor_pool(seed)
    streams = build_streams(workload, seed, catalog, rounds)
    server, conns = await _launch(workload, catalog_dir, catalog, anchors)
    try:
        before = await _stats(conns[0])
        server.note_workers(before)
        marks = [len(c.log) for c in conns]
        await asyncio.gather(*(c.run(s) for c, s in zip(conns, streams)))
        after = await _stats(conns[0])
    finally:
        for conn in conns:
            await conn.close()
        server.stop()
    return {
        "catalog": catalog, "histories": [c.log for c in conns],
        "timed": [entry for c, m in zip(conns, marks) for entry in c.log[m:]],
        "before": before, "after": after,
    }


# ----------------------------------------------------------------------
# Answer checks
# ----------------------------------------------------------------------
def check_history(catalog: dict, feed: str, log) -> list[str]:
    """Replay one connection's history against the benchmark's own copy
    of its catalog.  A read that scans ``feed`` and sees the state before
    the connection's latest write is reported as a read-your-writes
    violation."""
    problems = []
    graph = checks.RelationIndex(catalog["graph"])
    rows = set(catalog[feed])
    previous = None
    state = {"graph": graph, feed: checks.RelationIndex(rows)}
    memo: dict = {}
    version = 0
    for op, _, _, response in log:
        if not response.get("ok"):
            continue
        if op.kind == "update":
            inserted = len(set(op.insert) - rows)
            rows |= set(op.insert)
            deleted = len(set(op.delete) & rows)
            rows -= set(op.delete)
            if (response.get("inserted"), response.get("deleted")) != (inserted, deleted):
                problems.append(
                    f"{feed} update: server counted {response.get('inserted')}/"
                    f"{response.get('deleted')}, expected {inserted}/{deleted}"
                )
            if inserted or deleted:
                previous = state[feed]
                state = {"graph": graph, feed: checks.RelationIndex(rows)}
                version += 1
            continue
        scans_feed = any(rel == feed for rel, _ in op.atoms)
        key = (repr(op.atoms), op.head, version if scans_feed else -1)
        expected = memo.get(key)
        if expected is None:
            expected = memo[key] = checks.evaluate_cq(op.atoms, op.head, state)
        problem = checks.compare_rows(expected, response.get("rows", []))
        if problem is None and response.get("cardinality") != len(expected):
            problem = f"cardinality {response.get('cardinality')} for {len(expected)} rows"
        if problem is not None:
            stale = (
                scans_feed and previous is not None
                and checks.compare_rows(
                    checks.evaluate_cq(op.atoms, op.head, {"graph": graph, feed: previous}),
                    response.get("rows", []),
                ) is None
            )
            kind = "read-your-writes violated" if stale else "wrong answer"
            problems.append(f"{kind}: {render(op.atoms, op.head)}: {problem}")
    return problems


def check_histories(catalog: dict, histories) -> list[str]:
    problems = []
    for n, log in enumerate(histories):
        problems += check_history(catalog, f"feed{n % CONNECTIONS}", log)
    return problems


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds * RATE[workload] / ROUND))


# ----------------------------------------------------------------------
# Traced run: the per-layer metrics
# ----------------------------------------------------------------------
def _interleave(streams):
    """The connections' streams merged round-robin into one process."""
    longest = max(len(s) for s in streams)
    for k in range(longest):
        for i, stream in enumerate(streams):
            if k < len(stream):
                yield i, stream[k]


def replay_point_read(seed: int, rounds: int, tracer: Tracer) -> dict:
    """Replay the point-read stream through the layers' functions: JSON
    framing, prepare, bind, execute on a long-lived engine, deltas."""
    from repro.datalog import parse_rule
    from repro.relalg.compiled import VectorizedEngine
    from repro.relalg.database import Database
    from repro.relalg.relation import Relation
    from repro.service.prepared import PreparedStatementCache
    from repro.service.protocol import decode_line, encode_message, ok_response

    catalog = build_catalog(seed)
    database = Database({name: Relation(("u", "w"), rows) for name, rows in catalog.items()})
    engine = VectorizedEngine(database)
    cache = PreparedStatementCache(capacity=256)
    anchors = anchor_pool(seed)
    statements = []
    for i in range(CONNECTIONS):
        mine = []
        for template, head in point_statements(i):
            rule = render(with_constants(template, [anchors[0]] * len(constants(template))), head)
            query = parse_rule(rule)
            statement, _, _ = cache.prepare(query, METHOD)
            mine.append(statement)
        statements.append(mine)
    logs = [[] for _ in range(CONNECTIONS)]
    request = 0
    for i, op in _interleave(build_streams("point-read", seed, catalog, rounds)):
        request += 1
        root = tracer.open("request", request=request)
        line = json.dumps(op.message(i, [s.statement_id for s in statements[i]])).encode() + b"\n"
        message, _ = tracer.call("protocol.decode", decode_line, line, parent=root, request=request)
        if op.kind == "update":
            insert = [tuple(r) for r in message["insert"]]
            delete = [tuple(r) for r in message["delete"]]
            inserted, _ = tracer.call("database.update", database.insert_rows, op.relation, insert,
                                      parent=root, request=request) if insert else (0, -1)
            deleted, _ = tracer.call("database.update", database.delete_rows, op.relation, delete,
                                     parent=root, request=request) if delete else (0, -1)
            response = ok_response(request, inserted=inserted, deleted=deleted)
        else:
            statement = statements[i][op.statement]
            tracer.call("prepared.bind", statement.bind, database, tuple(message["params"]),
                        parent=root, request=request)
            result, _ = tracer.call("compiled.request_execute", engine.execute, statement.plan,
                                    parent=root, request=request)
            rows = [list(row) for row in sorted(result.rows, key=repr)]
            response = ok_response(request, rows=rows, cardinality=result.cardinality)
        tracer.call("protocol.encode", encode_message, response, parent=root, request=request)
        tracer.close(root)
        logs[i].append((op, 0.0, 0.0, response))
    info = engine.cache_info()
    return {
        "catalog": catalog, "logs": logs, "requests": request,
        "result_hit_ratio": info.hits / max(1, info.hits + info.misses),
    }


def replay_shape_churn(seed: int, rounds: int, tracer: Tracer) -> dict:
    """Replay the shape-churn stream: parse, canonicalize and prepare on
    the front end, the wire shape, and a pool worker's ``handle``.  Each
    log entry carries the request's start and end on :data:`CLOCK`."""
    from repro.datalog import parse_rule
    from repro.relalg.database import Database
    from repro.relalg.relation import Relation
    from repro.service.prepared import (
        PreparedStatementCache,
        canonicalize_query,
        shape_from_wire,
        shape_to_wire,
    )
    from repro.service.protocol import decode_line, encode_message, ok_response
    from repro.service.worker import WorkerState

    catalog = build_catalog(seed)

    def fresh():
        return Database({n: Relation(("u", "w"), rows) for n, rows in catalog.items()})

    front = fresh()
    worker = WorkerState({DATABASE: fresh()}, {"prepared_cache_size": 256, "plan_cache_size": 256})
    cache = PreparedStatementCache(capacity=256)
    logs = [[] for _ in range(CONNECTIONS)]
    request = 0
    streams = build_streams("shape-churn", seed, catalog, rounds)
    clock = CLOCK
    first = clock()
    for i, op in _interleave(streams):
        request += 1
        started = clock()
        root = tracer.open("request", request=request)
        line = json.dumps(op.message(i, [])).encode() + b"\n"
        message, _ = tracer.call("protocol.decode", decode_line, line, parent=root, request=request)
        if op.kind == "update":
            frame = {"kind": "update", "db": DATABASE, "relation": message["relation"],
                     "insert": [tuple(r) for r in message["insert"]],
                     "delete": [tuple(r) for r in message["delete"]]}
            raw, _ = tracer.call("pool.handle_update", worker.handle, frame, parent=root, request=request)
            if frame["insert"]:
                tracer.call("database.update", front.insert_rows, frame["relation"], frame["insert"],
                            parent=root, request=request)
            if frame["delete"]:
                tracer.call("database.update", front.delete_rows, frame["relation"], frame["delete"],
                            parent=root, request=request)
            response = ok_response(request, inserted=raw.get("inserted"), deleted=raw.get("deleted"))
        else:
            query, _ = tracer.call("datalog.parse", parse_rule, message["rule"], parent=root, request=request)
            (statement, params, _), _ = tracer.call("prepared.prepare", cache.prepare, query, METHOD,
                                                    parent=root, request=request)
            wire, _ = tracer.call("pool.to_wire", shape_to_wire, statement.shape, parent=root, request=request)
            frame = {"kind": "exec", "db": DATABASE, "engine": ENGINE, "method": METHOD,
                     "statement": statement.statement_id, "shape": wire, "params": list(params)}
            raw, _ = tracer.call("pool.handle", worker.handle, frame, parent=root, request=request)
            response = ok_response(request, rows=raw.get("rows"), cardinality=raw.get("cardinality"))
            if not raw.get("ok"):
                response = {"ok": False, "error": raw}
        tracer.call("protocol.encode", encode_message, response, parent=root, request=request)
        tracer.close(root)
        logs[i].append((op, started, clock(), response))
        if tracer.enabled and op.kind != "update":
            # The program makes these two calls inside ``prepare`` and
            # inside ``handle`` (on a statement-store miss); the traced run
            # repeats them after the request, outside its span, to time
            # each alone.
            tracer.call("prepared.canonicalize", canonicalize_query, query, request=request)
            tracer.call("pool.from_wire", shape_from_wire, wire, request=request)
    host = worker.hosts[DATABASE]
    return {
        "catalog": catalog, "logs": logs, "requests": request, "seconds": clock() - first,
        "units": host.engine(ENGINE).cache_info().units,
        "relations": len(host.database),
    }


def run_replay(seed: int, seconds: float) -> tuple[bool, int, int, dict]:
    """The ``shape-replay`` workload: the shape-churn stream replayed in
    this process, each request timed from its encoded line to its encoded
    answer, with no TCP and no worker processes."""
    import_program()
    setup_s = fresh_start_s(Path(__file__), seed)
    replay_shape_churn(seed, 1, Tracer(enabled=False))  # warms imports and numpy
    result = replay_shape_churn(seed, rounds_for("shape-replay", seconds), Tracer(enabled=False))
    timed = [entry for log in result["logs"] for entry in log]
    failed = sum(1 for _, _, _, r in timed if not r.get("ok"))
    problems = check_histories(result["catalog"], result["logs"])
    for problem in problems[:20]:
        note(f"shape-replay check: {problem}")
    note(f"shape-replay: {len(timed)} requests in {result['seconds']:.2f} CPU s")
    ok = [e for e in timed if e[3].get("ok")]
    reads = [t1 - t0 for op, t0, t1, _ in ok if op.kind != "update"]
    writes = [t1 - t0 for op, t0, t1, _ in ok if op.kind == "update"]
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "throughput_per_s": metric(len(ok) / result["seconds"], "1/s"),
        "latency_p50_ms": metric(1e3 * percentile(reads, 0.50), "ms"),
        "latency_p99_ms": metric(1e3 * percentile(reads, 0.99), "ms"),
        "write_p50_ms": metric(1e3 * percentile(writes, 0.50), "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return not problems, len(timed), failed, metrics


def _us(values) -> float:
    return 1e6 * median(values)


def trace(seed: int, seconds: float, tracer: Tracer) -> tuple[bool, int, int, dict]:
    """Per-layer metrics of both service workloads: a short live run of
    each for the server's own counters, then an in-process traced replay
    of each seeded stream."""
    import_program()
    attempted = failed = 0
    problems = []
    metrics = {}

    def tally(logs, histories_catalog, label):
        nonlocal attempted, failed
        entries = [e for log in logs for e in log]
        attempted += len(entries)
        failed += sum(1 for _, _, _, r in entries if not r.get("ok"))
        found = check_histories(histories_catalog, logs)
        problems.extend(f"{label}: {p}" for p in found)

    for workload in ("point-read", "shape-churn"):
        result = asyncio.run(live(workload, seed, max(1, rounds_for(workload, seconds) // 4)))
        tally(result["histories"], result["catalog"], f"{workload} live")
        before, after = result["before"], result["after"]
        if workload == "point-read":
            service = after["service"]
            metrics["server.batch_mean"] = metric(
                (service["batched_requests"] - before["service"]["batched_requests"])
                / max(1, service["batches"] - before["service"]["batches"]), "count")
            metrics["server.overhead_us"] = metric(_us(
                [t1 - t0 - r["elapsed_s"] for op, t0, t1, r in result["timed"]
                 if op.kind != "update" and r.get("ok")]), "us")
        else:
            p0 = before["databases"][DATABASE]["prepared"]
            p1 = after["databases"][DATABASE]["prepared"]
            hits = p1["hits"] - p0["hits"]
            misses = p1["misses"] - p0["misses"]
            metrics["prepared.shape_hit_ratio"] = metric(hits / max(1, hits + misses), "ratio")
            pool0, pool1 = before["pool"], after["pool"]
            replica = pool1["reads_replica"] - pool0["reads_replica"]
            primary = pool1["reads_primary"] - pool0["reads_primary"]
            metrics["pool.replica_read_share"] = metric(replica / max(1, replica + primary), "ratio")
            metrics["pool.read_gate_fallbacks"] = metric(
                pool1["read_gate_fallbacks"] - pool0["read_gate_fallbacks"], "count")

    rounds = rounds_for("point-read", seconds) // 4 or 1
    replay_point_read(seed, rounds, Tracer(enabled=False))  # warms imports and interning
    started = CLOCK()
    replay_point_read(seed, rounds, Tracer(enabled=False))
    plain = CLOCK() - started
    mark = len(tracer.spans)
    started = CLOCK()
    point = replay_point_read(seed, rounds, tracer)
    traced = CLOCK() - started
    note(f"tracing overhead on the point-read replay: {100 * (traced - plain) / plain:.1f}% "
         f"({plain:.3f} s plain, {traced:.3f} s traced)")
    tally(point["logs"], point["catalog"], "point-read replay")
    point_spans = Tracer()
    point_spans.spans = tracer.spans[mark:]
    churn = replay_shape_churn(seed, max(1, rounds_for("shape-churn", seconds) // 4), tracer)
    tally(churn["logs"], churn["catalog"], "shape-churn replay")
    churn_spans = Tracer()
    churn_spans.spans = tracer.spans[mark + len(point_spans.spans):]

    metrics.update({
        "protocol.decode_us": metric(_us(point_spans.durations("protocol.decode")), "us"),
        "protocol.encode_us": metric(_us(point_spans.durations("protocol.encode")), "us"),
        "prepared.bind_us": metric(_us(point_spans.durations("prepared.bind")), "us"),
        "compiled.request_execute_us": metric(_us(point_spans.durations("compiled.request_execute")), "us"),
        "cache.result_hit_ratio": metric(point["result_hit_ratio"], "ratio"),
        "database.update_us": metric(_us(tracer.durations("database.update")), "us"),
        "datalog.parse_us": metric(_us(churn_spans.durations("datalog.parse")), "us"),
        "prepared.canonicalize_us": metric(_us(churn_spans.durations("prepared.canonicalize")), "us"),
        "prepared.prepare_us": metric(_us(churn_spans.durations("prepared.prepare")), "us"),
        "pool.wire_us": metric(_us(churn_spans.durations("pool.to_wire"))
                               + _us(churn_spans.durations("pool.from_wire")), "us"),
        "pool.handle_us": metric(_us(churn_spans.durations("pool.handle")), "us"),
        "compiled.units": metric(churn["units"], "count"),
        "database.relations": metric(churn["relations"], "count"),
    })
    for problem in problems[:20]:
        note(f"service trace check: {problem}")
    return not problems, attempted, failed, metrics


if __name__ == "__main__" and sys.argv[1:2] == ["--setup-probe"]:
    import_program()
    import repro.relalg.compiled  # noqa: F401
    import repro.service.worker  # noqa: F401
    from repro.service.prepared import PreparedStatementCache  # noqa: F401

    build_streams("shape-churn", int(sys.argv[2]), build_catalog(int(sys.argv[2])), 1)
    setup_ready()
