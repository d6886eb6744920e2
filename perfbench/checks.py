"""Answer checks computed by the benchmark's own code.

Nothing here imports the program.  The checks take the inputs the
benchmark generated (graphs, colour values, relation rows, query atoms)
and the answers the program returned, and compute what the answers must
be by methods unrelated to the program's planners and engines:

- :func:`coloring_answers` — a backtracking 3-colouring search.
- :func:`evaluate_cq` — a nested-loop conjunctive-query evaluator.
- :func:`degeneracy` — a lower bound on treewidth for graphs whose
  treewidth is not known from their construction.
"""

from __future__ import annotations

from itertools import product

#: Free-vertex counts up to which every colouring of the free vertices
#: is tried, so a missing answer row is caught as well as a wrong one.
ENUMERATE_FREE_MAX = 6


def adjacency_of(edges) -> dict:
    adjacency: dict = {}
    for u, v in edges:
        adjacency.setdefault(u, set()).add(v)
        adjacency.setdefault(v, set()).add(u)
    return adjacency


def extends(adjacency: dict, colors: tuple, fixed: dict) -> bool:
    """Whether the partial colouring ``fixed`` extends to a proper
    colouring of the whole graph (backtracking, most-constrained
    vertex first)."""
    for u, cu in fixed.items():
        for v in adjacency[u]:
            if fixed.get(v) == cu:
                return False
    assigned = dict(fixed)
    free = [v for v in adjacency if v not in assigned]

    def search() -> bool:
        if len(assigned) == len(adjacency):
            return True
        best, best_options = None, None
        for v in free:
            if v in assigned:
                continue
            used = {assigned[w] for w in adjacency[v] if w in assigned}
            options = [c for c in colors if c not in used]
            if best is None or len(options) < len(best_options):
                best, best_options = v, options
                if not options:
                    return False
        for c in best_options:
            assigned[best] = c
            if search():
                del assigned[best]
                return True
            del assigned[best]
        return False

    return search()


def coloring_answers(
    edges, free_vertices: tuple, colors: tuple, answer_rows
) -> list[str]:
    """Check a k-COLOR query's answer; returns the problems found.

    ``answer_rows`` holds one tuple per answer, aligned with
    ``free_vertices``.  Every row must extend to a proper colouring;
    with at most :data:`ENUMERATE_FREE_MAX` free vertices, every
    colouring of them that extends must also be present.
    """
    adjacency = adjacency_of(edges)
    problems = []
    rows = set(map(tuple, answer_rows))
    if len(rows) != len(answer_rows):
        problems.append("duplicate answer rows")
    for row in sorted(rows, key=repr):
        if len(row) != len(free_vertices):
            problems.append(f"row {row} has the wrong width")
            continue
        if any(c not in colors for c in row):
            problems.append(f"row {row} uses a value that is not a colour")
            continue
        fixed: dict = {}
        consistent = True
        for vertex, c in zip(free_vertices, row):
            if fixed.setdefault(vertex, c) != c:
                consistent = False
        if not consistent or not extends(adjacency, colors, fixed):
            problems.append(f"row {row} extends to no proper colouring")
    if len(free_vertices) <= ENUMERATE_FREE_MAX:
        for row in product(colors, repeat=len(free_vertices)):
            if row in rows:
                continue
            if extends(adjacency, colors, dict(zip(free_vertices, row))):
                problems.append(f"missing answer row {row}")
    return problems


def degeneracy(edges) -> int:
    """The graph's degeneracy, a lower bound on its treewidth."""
    adjacency = adjacency_of(edges)
    best = 0
    while adjacency:
        vertex = min(adjacency, key=lambda x: (len(adjacency[x]), repr(x)))
        best = max(best, len(adjacency[vertex]))
        for w in adjacency.pop(vertex):
            adjacency[w].discard(vertex)
    return best


def is_var(term) -> bool:
    """Query terms are ``("v", name)`` or ``("c", value)`` pairs."""
    return term[0] == "v"


class RelationIndex:
    """A relation's rows plus per-column hash indexes, built lazily."""

    def __init__(self, rows) -> None:
        self.rows = frozenset(map(tuple, rows))
        self._by_column: dict = {}

    def matching(self, column: int, value):
        index = self._by_column.get(column)
        if index is None:
            index = {}
            for row in self.rows:
                index.setdefault(row[column], []).append(row)
            self._by_column[column] = index
        return index.get(value, ())


def evaluate_cq(atoms, head, relations: dict) -> set:
    """Evaluate ``q(head) :- atoms`` by nested loops over the atoms in
    order, probing a column index when a term is already bound.

    ``atoms`` is a sequence of ``(relation, terms)``; ``relations`` maps
    names to :class:`RelationIndex`.  Returns the set of head tuples.
    """
    out: set = set()
    binding: dict = {}

    def bound_value(term):
        if not is_var(term):
            return True, term[1]
        if term[1] in binding:
            return True, binding[term[1]]
        return False, None

    def step(i: int) -> None:
        if i == len(atoms):
            out.add(tuple(binding[v] for v in head))
            return
        name, terms = atoms[i]
        relation = relations[name]
        candidates = relation.rows
        for column, term in enumerate(terms):
            known, value = bound_value(term)
            if known:
                candidates = relation.matching(column, value)
                break
        for row in candidates:
            added = []
            ok = True
            for term, value in zip(terms, row):
                known, expected = bound_value(term)
                if known:
                    if expected != value:
                        ok = False
                        break
                else:
                    binding[term[1]] = value
                    added.append(term[1])
            if ok:
                step(i + 1)
            for name_ in added:
                del binding[name_]

    step(0)
    return out


def compare_rows(expected: set, got_rows) -> str | None:
    """``None`` when ``got_rows`` (lists from the wire) equal
    ``expected`` as a set with no duplicates, else a description."""
    got = [tuple(r) for r in got_rows]
    got_set = set(got)
    if len(got_set) != len(got):
        return "duplicate rows"
    if got_set == expected:
        return None
    missing = len(expected - got_set)
    extra = len(got_set - expected)
    return f"{missing} row(s) missing, {extra} row(s) extra"
