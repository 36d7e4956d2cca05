"""Storage benchmarks: the closure micro, freeze cost and warm restarts.

The bulk-traversal primitive of the whole stack — evaluate an NRE from
many sources over a chased-result-shaped graph — plus what the read-only
twin and the snapshot store cost.  There is one NRE evaluator and one
graph storage, and a frozen graph shares that storage with its source,
so timing queries on it would time the same code twice.

* ``test_bulk_traversal_dict``   — the closure micro (``f . s* . (h- + f)``
  from 120 sources of a uniform random graph, where every source reaches
  about |V| nodes);
* ``test_freeze_cost``           — one ``freeze()`` plus the first write to
  the source after it, which pays the copy that ``freeze()`` defers;
* ``test_snapshot_load_vs_rechase`` — the service's warm-tenant restart
  path: loading + verifying a frozen witness snapshot vs re-deriving the
  existence witness from scratch (the ``REPRO_SNAPSHOT_DIR`` wiring).

The benchmark graph mirrors what the chase emits: a mix of constants and
labeled nulls (``repro.patterns.pattern.Null``).
"""

from __future__ import annotations

import random
import statistics

from conftest import report, timed

from repro.engine.query import QueryEngine
from repro.graph.database import GraphDatabase
from repro.graph.parser import parse_nre
from repro.patterns.pattern import Null

QUERY = "f . s* . (h- + f)"
"""A chased-workload-shaped NRE: hop, star closure, union with a back edge."""

NODE_COUNT = 3000
EDGE_FACTOR = 5
SOURCE_COUNT = 120


def chase_shaped_graph(
    node_count: int = NODE_COUNT, edge_factor: int = EDGE_FACTOR, seed: int = 7
) -> GraphDatabase:
    """A graph shaped like a chased solution: constants plus labeled nulls."""
    rng = random.Random(seed)
    constants = [f"c{i}" for i in range(node_count // 2)]
    nulls = [Null(f"N{i}") for i in range(node_count - node_count // 2)]
    nodes = constants + nulls
    graph = GraphDatabase(alphabet={"f", "h", "s"})
    for node in nodes:
        graph.add_node(node)
    for _ in range(edge_factor * node_count):
        graph.add_edge(rng.choice(nodes), rng.choice("fhs"), rng.choice(nodes))
    return graph


def traversal_sources(graph: GraphDatabase, count: int = SOURCE_COUNT) -> list:
    rng = random.Random(13)
    return rng.sample(sorted(graph.nodes(), key=repr), count)


def make_sweep(graph: GraphDatabase):
    """One full single-source sweep with the memo caches defeated.

    ``QueryEngine.reachable`` memoises per (expr, source); benchmarking
    the memo would measure dictionary lookups, not traversal.  Each sweep
    runs on a cleared cross-candidate cache so every source's row really
    is evaluated (the query's unrestricted subexpressions once per sweep).
    """
    engine = QueryEngine()
    expr = parse_nre(QUERY)
    sources = traversal_sources(graph)

    def sweep() -> int:
        engine.clear()
        total = 0
        for source in sources:
            total += len(engine.reachable(graph, expr, source))
        return total

    return sweep


def test_bulk_traversal_dict(benchmark):
    """The closure micro on the dict backend (ungated timing)."""
    sweep = make_sweep(chase_shaped_graph())
    assert benchmark.pedantic(sweep, rounds=5, iterations=1, warmup_rounds=1) > 0


def test_freeze_cost(benchmark):
    """What a freeze() costs a graph that is written again afterwards.

    ``freeze()`` shares the source's containers and copies none of them
    (asserted below); the source's next write copies them first.  The
    timed op is the pair, so the median still sees the copy.  Each
    round's write adds an edge the graph does not hold yet (a re-add of
    a held edge is a no-op that copies nothing).
    """
    graph = chase_shaped_graph()
    frozen = graph.freeze()
    for name in ("_nodes", "_fwd", "_label_counts", "_journal"):
        assert getattr(frozen, name) is getattr(graph, name), name
    rounds = iter(range(10))

    def freeze_then_write():
        frozen = graph.freeze()
        graph.add_edge("c0", "f", f"fresh{next(rounds)}")
        assert graph._fwd is not frozen._fwd  # the write copied the storage
        return frozen.edge_count()

    assert benchmark.pedantic(
        freeze_then_write, rounds=5, iterations=1
    ) == graph.edge_count() - 1


def test_snapshot_load_vs_rechase(benchmark, tmp_path, monkeypatch):
    """The warm-tenant restart path: snapshot-verified exists vs the full
    decision (chase + candidate search) it replaces."""
    from repro.scenarios.service_workload import demo_document
    from repro.service.workers import execute_request

    document = demo_document()
    params = {"document": document, "star_bound": 2}

    monkeypatch.delenv("REPRO_SNAPSHOT_DIR", raising=False)
    cold = execute_request("exists", params)
    assert cold["status"] == "exists"
    cold_median = statistics.median(
        timed(lambda: execute_request("exists", params)) for _ in range(5)
    )

    monkeypatch.setenv("REPRO_SNAPSHOT_DIR", str(tmp_path))
    primed = execute_request("exists", params)  # populates the store
    assert primed["status"] == "exists"

    def warm_exists():
        result = execute_request("exists", params)
        assert result["method"] == "snapshot-witness"
        return result

    warm = benchmark.pedantic(warm_exists, rounds=5, iterations=1, warmup_rounds=1)
    assert warm["witness"] == cold["witness"]
    warm_median = statistics.median(timed(warm_exists) for _ in range(5))
    report(
        "storage backends: warm-tenant restart",
        [
            ("full exists decision", "--", f"{1000 * cold_median:.2f} ms"),
            ("snapshot-verified exists", "--", f"{1000 * warm_median:.2f} ms"),
            ("speedup", "> 1x", f"{cold_median / warm_median:.1f}x"),
        ],
    )
    assert warm_median < cold_median, (
        "loading + verifying the witness snapshot should beat re-deriving it"
    )
