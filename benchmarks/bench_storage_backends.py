"""Storage-backend benchmarks: dict hash indexes vs frozen interned CSR.

The bulk-traversal primitive of the whole stack — evaluate a compiled NRE
over a chased-result-shaped graph — measured on both storage backends of
:mod:`repro.graph.backends`.  There is one NRE search; a frozen graph
answers through it by reading its CSR buffers as dict-shaped views.

* ``test_bulk_traversal_dict``   — the closure micro (``f . s* . (h- + f)``
  from 120 sources of a uniform random graph, where every source reaches
  about |V| nodes) on the mutation-friendly dict backend;
* ``test_bulk_traversal_frozen`` — the same sweep on the frozen graph,
  answers asserted identical.  Ungated: it reports both medians so the
  closure micro's known loss against the deleted numpy sweep search
  (about 12×, see docs/PERFORMANCE.md) stays visible;
* ``test_all_pairs_frozen``      — all-pairs evaluation on the frozen graph;
* ``test_freeze_cost``           — what one ``freeze()`` costs;
* ``test_snapshot_load_vs_rechase`` — the service's warm-tenant restart
  path: loading + verifying a frozen witness snapshot vs re-deriving the
  existence witness from scratch (the ``REPRO_SNAPSHOT_DIR`` wiring).

The benchmark graph mirrors what the chase emits: a mix of constants and
labeled nulls (``repro.patterns.pattern.Null``).
"""

from __future__ import annotations

import random
import statistics

from conftest import ab_medians, report, timed

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
    runs on a cleared cross-candidate cache so the product search really
    executes (compiled automata are shared by both backends either way).
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


def test_bulk_traversal_frozen(benchmark):
    """The same sweep on the frozen graph: identical answers, ungated."""
    graph = chase_shaped_graph()
    frozen = graph.freeze()
    dict_sweep = make_sweep(graph)
    frozen_sweep = make_sweep(frozen)
    assert frozen_sweep() == dict_sweep(), (
        "backend answers diverged on the traversal sweep"
    )
    benchmark.pedantic(frozen_sweep, rounds=5, iterations=1, warmup_rounds=1)
    dict_median, frozen_median = ab_medians(dict_sweep, frozen_sweep)
    report(
        "storage backends: bulk traversal (closure micro)",
        [
            ("graph", "chased shape", f"|V|={NODE_COUNT} |E|~{EDGE_FACTOR * NODE_COUNT}"),
            ("dict graph median", "--", f"{1000 * dict_median:.1f} ms"),
            ("frozen graph median", "--", f"{1000 * frozen_median:.1f} ms"),
            ("frozen / dict", "ungated", f"{frozen_median / dict_median:.2f}x"),
        ],
    )


def test_all_pairs_frozen(benchmark):
    """All-pairs evaluation on a frozen graph (fresh engine per round)."""
    graph = chase_shaped_graph(node_count=600, edge_factor=4)
    frozen = graph.freeze()
    expr = parse_nre(QUERY)
    dict_answers = QueryEngine().pairs(graph, expr)

    def all_pairs():
        return QueryEngine().pairs(frozen, expr)

    answers = benchmark.pedantic(all_pairs, rounds=5, iterations=1, warmup_rounds=1)
    assert answers == dict_answers


def test_freeze_cost(benchmark):
    """What one freeze() costs — the budget queries must amortise."""
    graph = chase_shaped_graph()

    def freeze():
        return graph.freeze().edge_count()

    assert benchmark.pedantic(freeze, rounds=5, iterations=1) == graph.edge_count()


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
