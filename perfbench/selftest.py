"""Self-test of the answer checks: each must reject a corrupted answer.

    python3 perfbench/selftest.py

Every run of the benchmark runs it first, so a checker that stopped
catching anything cannot pass a run.  It needs no program.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import service  # noqa: E402

#: A 5-cycle plus a chord: 3-colourable; its free vertices 0 and 1 are
#: adjacent, so exactly the pairs of distinct colours extend.
EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)]
COLORS = (4, 9, 17)


def _coloring_cases() -> list[tuple[str, list]]:
    free = (0, 1)
    adjacency = checks.adjacency_of(EDGES)
    truth = [
        (a, b) for a in COLORS for b in COLORS
        if checks.extends(adjacency, COLORS, {0: a, 1: b})
    ]
    assert not checks.coloring_answers(EDGES, free, COLORS, truth), "truth rejected"
    wrong = next((a, b) for a in COLORS for b in COLORS if (a, b) not in truth)
    return [
        ("coloring: dropped row", checks.coloring_answers(EDGES, free, COLORS, truth[1:])),
        ("coloring: extra row", checks.coloring_answers(EDGES, free, COLORS, truth + [wrong])),
        ("coloring: duplicated row", checks.coloring_answers(EDGES, free, COLORS, truth + truth[:1])),
    ]


def _history_cases() -> list[tuple[str, list]]:
    catalog = {"graph": [(1, 2), (2, 3), (2, 4), (5, 6)], "feed0": [(3, 7)]}
    atoms = [("graph", (("c", 1), ("v", "X1"))), ("graph", (("v", "X1"), ("v", "X2")))]
    read = service.Op("query", atoms=atoms, head=("X2",))
    feed_atoms = [("graph", (("c", 2), ("v", "X1"))), ("feed0", (("v", "X1"), ("v", "X2")))]
    feed_read = service.Op("query", atoms=feed_atoms, head=("X2",))
    insert = service.Op("update", relation="feed0", insert=((4, 8),))

    def log(rows, counts=(1, 0), feed_rows=((7,), (8,))):
        return [
            (read, 0, 0, {"ok": True, "rows": rows, "cardinality": len(rows)}),
            (insert, 0, 0, {"ok": True, "inserted": counts[0], "deleted": counts[1]}),
            (feed_read, 0, 0, {"ok": True, "rows": [list(r) for r in feed_rows],
                               "cardinality": len(feed_rows)}),
        ]

    good = log([[3], [4]])
    assert not service.check_history(catalog, "feed0", good), "truth rejected"
    stale = service.check_history(catalog, "feed0", log([[3], [4]], feed_rows=((7,),)))
    assert any("read-your-writes" in p for p in stale), stale
    return [
        ("service: dropped row", service.check_history(catalog, "feed0", log([[3]]))),
        ("service: extra row", service.check_history(catalog, "feed0", log([[3], [4], [6]]))),
        ("service: wrong update count", service.check_history(catalog, "feed0", log([[3], [4]], (0, 0)))),
        ("service: stale read", stale),
    ]


def main() -> None:
    for name, problems in _coloring_cases() + _history_cases():
        if not problems:
            raise SystemExit(f"self-test failed: the checker accepted a corrupted answer ({name})")


if __name__ == "__main__":
    main()
    print("self-test passed: every corrupted answer was rejected")
