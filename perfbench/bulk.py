"""bulk-medlit: one medlit tenant through the library pipeline.

Single-threaded, once per round: ``chase_relational``, then
``GraphDatabase.freeze``, then the family's 5-query mix through
``QueryEngine(backend="csr").pairs`` on the default kernel, then
``save_snapshot`` and ``load_snapshot``.  One op is that whole pass, the
latency a caller waits for a materialised, queried and stored tenant, so
``p50_ms``/``p90_ms`` are taken over the passes of a run.

Tenant sizes spread evenly on a log scale over a factor of four, so the
pass latencies form one wide, even distribution: p50 is about the pass of
a middle-sized tenant and p90 about that of a tenant 1.7 times larger.
A percentile of such a spread moves with the host's speed about as
smoothly as a mean.  Over passes of one size, or of a few tight size
classes, it snaps to whichever of the host's fast and slow states held
more of the passes (see README.md, "Percentile placement").
"""

from __future__ import annotations

import time
from pathlib import Path

from harness import Round, Tracer, collect_then_time, sub_seed
from repro.chase.relational_chase import chase_relational
from repro.engine.query import QueryEngine
from repro.graph.parser import parse_nre
from repro.graph.snapshot import load_snapshot, save_snapshot
from repro.scenarios.scale import (
    GeneratorConfig,
    generate_instance,
    scale_setting,
    workload_queries,
)

FAMILY = "medlit"
NODES = 800
"""Geometric middle of the tenant sizes: at 800 nodes |V| is about 1.1k and
|E| about 4.2k after the chase."""

GOLDEN = 0.6180339887498949
"""Round ``i`` has ``NODES * 2 ** (2u - 1)`` nodes for ``u = i * GOLDEN mod 1``:
sizes from half to twice ``NODES``, spread evenly over any run of
consecutive rounds, so every size meets every phase of the host."""

ROUND_S = 0.3
"""Nominal wall time of one round on the reference host."""

ABSENT = {
    "engine.answers_s": "no IncrementalChase reads",
    "engine.evaluate_s": "no service requests",
    "update.*": "no update stream",
    "serve.*/service.*/worker.*": "no service",
}


class BulkMedlit:
    """One round materialises, queries and snapshots one whole tenant."""

    def __init__(self, seed: int, workdir: Path, nodes: int = NODES):
        self.seed = seed
        self.nodes = nodes
        self.setting = scale_setting(FAMILY)
        self.queries = [parse_nre(text) for text in workload_queries(FAMILY)]
        self.snapshot_path = str(workdir / "bulk.snap")

    def round(self, index: int, tracer: Tracer) -> Round:
        spread = index * GOLDEN % 1.0
        nodes = round(self.nodes * 2 ** (2 * spread - 1))
        config = GeneratorConfig(
            family=FAMILY, nodes=nodes, seed=sub_seed(self.seed, index)
        )
        began = time.perf_counter()
        with tracer.span("setup.gen"):
            instance = generate_instance(config)
        setup_s = time.perf_counter() - began
        setting = self.setting
        engine = QueryEngine(backend="csr")
        answers: list[frozenset] = []

        start = collect_then_time()
        with tracer.span("chase.relational"):
            chased = chase_relational(
                setting.st_tgds, setting.egds(), instance, alphabet=setting.alphabet
            )
        attempted = 4 + len(self.queries)
        if chased.failed:
            work_s = time.perf_counter() - start
            return Round(setup_s, work_s, [("pass", work_s)], attempted, attempted, {})
        graph = chased.expect_graph()
        with tracer.span("graph.freeze"):
            frozen = graph.freeze()
        query_s = 0.0
        for position, query in enumerate(self.queries):
            query_start = time.perf_counter()
            with tracer.span(f"engine.pairs.q{position}"):
                answers.append(engine.pairs(frozen, query))
            query_s += time.perf_counter() - query_start
        with tracer.span("graph.snapshot_save"):
            save_snapshot(frozen, self.snapshot_path)
        with tracer.span("graph.snapshot_load"):
            restored = load_snapshot(self.snapshot_path)
        work_s = time.perf_counter() - start

        failed = int(restored.edges() != frozen.edges())
        # One query per round against the dict-backend evaluator, so a run
        # checks every query without paying for all five every round.
        checked = index % len(self.queries)
        oracle = QueryEngine(backend="dict").pairs(graph, self.queries[checked])
        failed += answers[checked] != oracle

        counters = {f"chase.{k}": v for k, v in chased.stats.as_dict().items()}
        counters.update(
            {f"engine.{k}": v for k, v in engine.stats.as_dict().items()}
        )
        counters.update(
            {f"answers.q{i}": len(pairs) for i, pairs in enumerate(answers)}
        )
        layers = {
            "engine.pairs_s": query_s,
            "graph.snapshot_mb": Path(self.snapshot_path).stat().st_size / 2**20,
        }
        return Round(
            setup_s, work_s, [("pass", work_s)], attempted, failed, counters, layers
        )
