"""Storage-backend benchmarks: dict hash indexes vs frozen interned CSR.

The bulk-traversal primitive of the whole stack — evaluate a compiled NRE
over a chased-result-shaped graph — measured against both storage
backends of :mod:`repro.graph.backends`:

* ``test_bulk_traversal_dict``  — the mutation-friendly default: per-label
  hash adjacency, per-config tuple stack, hash-set visited bookkeeping;
* ``test_bulk_traversal_csr``   — the frozen graph: interned integer ids,
  per-label sorted CSR buffers, one ``QueryEngine.reachable`` call per
  source (the CSR sweep search: numpy vector, or generated code when
  numpy is absent).  Asserts the PR 6 acceptance criterion: **≥ 2×**
  faster than the dict backend on the same workload, with identical
  answers;
* ``test_bulk_traversal_vector`` — the numpy search over the same frozen
  CSR, driven through the batched ``QueryEngine.reachable_many`` entry
  point (multi-source flat configurations, bool visited matrix,
  ``np.repeat`` CSR gathers).  Asserts the PR 7 acceptance criterion:
  **≥ 10×** faster than the dict backend, with identical answers;
* ``test_all_pairs_csr_engine`` — the ``QueryEngine(backend="csr")``
  all-pairs path (freeze once, query many) on the same graph shape;
* ``test_freeze_cost``          — what one ``freeze()`` costs, i.e. how
  many queries amortise the compilation;
* ``test_snapshot_load_vs_rechase`` — the service's warm-tenant restart
  path: loading + verifying a frozen witness snapshot vs re-deriving the
  existence witness from scratch (the ``REPRO_SNAPSHOT_DIR`` wiring).

The benchmark graph mirrors what the chase emits: a mix of constants and
labeled nulls (``repro.patterns.pattern.Null``) — null-heavy graphs are
where hash-based visited bookkeeping hurts most, because dataclass hashes
are recomputed on every probe while the CSR path hashes nothing.
"""

from __future__ import annotations

import random
import statistics
import time

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


def make_vector_sweep(frozen: GraphDatabase):
    """The batched numpy sweep: all sources through one ``reachable_many``."""
    engine = QueryEngine()
    expr = parse_nre(QUERY)
    sources = traversal_sources(frozen)

    def sweep() -> int:
        engine.clear()
        answers = engine.reachable_many(frozen, expr, sources)
        return sum(len(targets) for targets in answers.values())

    return sweep


def test_bulk_traversal_dict(benchmark):
    """The dict-backend sweep: the baseline the CSR path must beat 2x."""
    sweep = make_sweep(chase_shaped_graph())
    assert benchmark.pedantic(sweep, rounds=5, iterations=1, warmup_rounds=1) > 0


def test_bulk_traversal_csr(benchmark):
    """The frozen-CSR sweep — asserts answers identical and >= 2x faster."""
    graph = chase_shaped_graph()
    frozen = graph.freeze()
    dict_sweep = make_sweep(graph)
    csr_sweep = make_sweep(frozen)
    assert csr_sweep() == dict_sweep(), (
        "backend answers diverged on the traversal sweep"
    )
    benchmark.pedantic(csr_sweep, rounds=5, iterations=1, warmup_rounds=1)

    # The acceptance criterion, measured independently of the benchmark
    # fixture so this test is self-contained.
    dict_median, csr_median = ab_medians(dict_sweep, csr_sweep)
    speedup = dict_median / csr_median
    report(
        "storage backends: bulk traversal",
        [
            ("graph", "chased shape", f"|V|={NODE_COUNT} |E|~{EDGE_FACTOR * NODE_COUNT}"),
            ("dict backend median", "--", f"{1000 * dict_median:.1f} ms"),
            ("csr backend median", "--", f"{1000 * csr_median:.1f} ms"),
            ("csr speedup", ">= 2x (acceptance)", f"{speedup:.2f}x"),
        ],
    )
    assert speedup >= 2.0, (
        f"CSR bulk traversal is only {speedup:.2f}x the dict backend "
        f"(acceptance requires >= 2x: dict {1000 * dict_median:.1f} ms, "
        f"csr {1000 * csr_median:.1f} ms)"
    )


def test_bulk_traversal_vector(benchmark):
    """The batched numpy sweep — asserts answers identical and >= 10x faster.

    Skipped when numpy is absent (CSR sweeps then run the generated-code
    search and there is no vector path to measure); that fallback's
    correctness is covered by the differential suites.
    """
    import pytest

    from repro.kernels import get_numpy

    if get_numpy() is None:
        pytest.skip("numpy unavailable; CSR sweeps run the codegen search")

    graph = chase_shaped_graph()
    frozen = graph.freeze()
    dict_sweep = make_sweep(graph)
    per_source_sweep = make_sweep(frozen)
    vector_sweep = make_vector_sweep(frozen)
    assert vector_sweep() == per_source_sweep() == dict_sweep(), (
        "sweep answers diverged on the traversal sweep"
    )
    benchmark.pedantic(vector_sweep, rounds=5, iterations=1, warmup_rounds=1)

    # The PR 7 acceptance criterion, measured independently of the
    # benchmark fixture so this test is self-contained.
    dict_median, vector_median = ab_medians(dict_sweep, vector_sweep)
    speedup = dict_median / vector_median
    report(
        "storage backends: vectorized bulk traversal",
        [
            ("graph", "chased shape", f"|V|={NODE_COUNT} |E|~{EDGE_FACTOR * NODE_COUNT}"),
            ("dict backend median", "--", f"{1000 * dict_median:.1f} ms"),
            ("vector search median", "--", f"{1000 * vector_median:.1f} ms"),
            ("vector speedup", ">= 10x (acceptance)", f"{speedup:.2f}x"),
        ],
    )
    assert speedup >= 10.0, (
        f"vector bulk traversal is only {speedup:.2f}x the dict backend "
        f"(acceptance requires >= 10x: dict {1000 * dict_median:.1f} ms, "
        f"vector {1000 * vector_median:.1f} ms)"
    )


def test_all_pairs_csr_engine(benchmark):
    """All-pairs evaluation through QueryEngine(backend='csr')."""
    graph = chase_shaped_graph(node_count=600, edge_factor=4)
    expr = parse_nre(QUERY)
    dict_answers = QueryEngine(backend="dict").pairs(graph, expr)

    def all_pairs():
        engine = QueryEngine(backend="csr")
        return engine.pairs(graph, expr)

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
    params = {"document": document, "star_bound": 2, "backend": "dict"}

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
