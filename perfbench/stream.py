"""stream-medlit: writes beside reads on a live ``IncrementalChase``.

Each round keeps one fresh medlit tenant live in ``IncrementalChase`` with
the default dict engine.  One op is one ``update_stream`` batch through
``apply_updates`` followed by ``certain_answers`` for the 5-query mix.
Each op is classed by what the batch made the incremental chase do:
rebuild the merged layer, drop the answer cache (invalidate), patch the
cached answers, or nothing (noop).

One 1,000-node tenant at a time: on smaller tenants a full garbage
collection hit about one op in six, which put p90 on the edge of that
tail; here it lands on most ops and p90 falls inside them.
"""

from __future__ import annotations

import time
from pathlib import Path

from harness import Round, Tracer, collect_then_time, sub_seed
from repro.core.tractable import certain_answers_tractable_batch
from repro.engine.incremental import IncrementalChase
from repro.engine.query import QueryEngine
from repro.graph.parser import parse_nre
from repro.scenarios.scale import (
    GeneratorConfig,
    generate_instance,
    scale_setting,
    update_stream,
    workload_queries,
)

FAMILY = "medlit"
NODES = 1_000
BATCHES = 10
OPS_PER_BATCH = 40
CHURN = 0.4
"""Forty-op batches at 40% churn: nine ops in ten rebuild the merged
layer; the rest are the insert-only first batch of each round, which
patches, and a few that invalidate and recompute.  p50 falls near the
middle of the rebuild class and p90 inside it, where a shift in the
class mix between tenants moves them least (see README.md, "Percentile
placement")."""
ROUND_S = 3.0
"""Nominal wall time of one round on the reference host."""

ABSENT = {
    "chase.*": "the incremental chase replaces chase_relational",
    "graph.*": "no CSR freeze or snapshot",
    "engine.pairs*/engine.evaluate_s": "reads go through certain_answers",
    "serve.*/service.*/worker.*": "no service",
}


class StreamMedlit:
    """One round bootstraps a tenant and replays its batch stream."""

    def __init__(self, seed: int, workdir: Path, nodes: int = NODES):
        self.seed = seed
        self.nodes = nodes
        self.setting = scale_setting(FAMILY)
        self.queries = [parse_nre(text) for text in workload_queries(FAMILY)]

    def round(self, index: int, tracer: Tracer) -> Round:
        config = GeneratorConfig(
            family=FAMILY, nodes=self.nodes, seed=sub_seed(self.seed, index)
        )
        began = time.perf_counter()
        with tracer.span("setup.gen"):
            instance = generate_instance(config)
            batches = list(update_stream(config, BATCHES, OPS_PER_BATCH, CHURN))
        engine = QueryEngine()
        with tracer.span("update.bootstrap"):
            live = IncrementalChase(self.setting, instance, engine=engine)
            for query in self.queries:
                live.certain_answers(query)
        setup_s = time.perf_counter() - began
        stats = live.stats
        update_before = stats.as_dict()
        engine_before = engine.stats.as_dict()
        ops: list[tuple[str, float]] = []

        start = collect_then_time()
        for position, batch in enumerate(batches):
            before = (stats.merged_rebuilds, stats.answer_invalidations,
                      stats.answer_patches)
            op_start = time.perf_counter()
            with tracer.span("update.apply", position):
                live.apply_updates(batch)
            with tracer.span("engine.answers", position):
                for query in self.queries:
                    live.certain_answers(query)
            ops.append((_op_class(before, stats), time.perf_counter() - op_start))
        work_s = time.perf_counter() - start

        got = [live.certain_answers(query).answers for query in self.queries]
        want = certain_answers_tractable_batch(
            self.setting, live.instance, self.queries
        )
        failed = int(live.failed) + sum(
            answers != expected.answers for answers, expected in zip(got, want)
        )

        update_after = stats.as_dict()
        engine_after = engine.stats.as_dict()
        counters = {
            f"update.{name}": update_after[name] - update_before[name]
            for name in update_after
        }
        counters.update(
            {f"engine.{name}": engine_after[name] - engine_before[name]
             for name in engine_after}
        )
        counters.update({f"answers.q{i}": len(a) for i, a in enumerate(got)})
        patches = counters["update.answer_patches"]
        repairs = patches + counters["update.answer_invalidations"]
        layers = {
            "update.rebuild_ratio": counters["update.merged_rebuilds"] / len(batches),
            "update.patch_ratio": patches / repairs if repairs else 0.0,
        }
        return Round(setup_s, work_s, ops, len(batches), failed, counters, layers)


def _op_class(before: tuple[int, int, int], stats) -> str:
    rebuilds, invalidations, patches = before
    if stats.merged_rebuilds > rebuilds:
        return "rebuild"
    if stats.answer_invalidations > invalidations:
        return "invalidate"
    if stats.answer_patches > patches:
        return "patch"
    return "noop"
