"""Shared machinery of the benchmark: rounds, spans, statistics, report.

A run is a fixed number of one workload's *rounds*, sized so the run
takes about ``--seconds`` on the reference host.  A round is set-up,
``gc.collect()``, a fixed amount of timed work, then an untimed
correctness check; each round draws inputs of its own from the seed, so a
run averages over many generated tenants.  End-to-end metrics are sums
and medians over the rounds, or percentiles over every op of every round.
Per-layer numbers come from benchmark-side spans, recorded only in traced
rounds.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

LAYER_METRICS: dict[str, str] = {
    # scenarios
    "setup.gen_s": "s",
    # chase
    "chase.relational_s": "s",
    "chase.null_merges": "count",
    "chase.egd_firings": "count",
    "chase.st_applications": "count",
    # graph
    "graph.freeze_s": "s",
    "graph.snapshot_save_s": "s",
    "graph.snapshot_load_s": "s",
    "graph.snapshot_mb": "MB",
    # engine (query)
    "engine.pairs_s": "s",
    "engine.pairs.q0_s": "s",
    "engine.pairs.q1_s": "s",
    "engine.pairs.q2_s": "s",
    "engine.pairs.q3_s": "s",
    "engine.pairs.q4_s": "s",
    "engine.answers_s": "s",
    "engine.evaluate_s": "s",
    "engine.batched_source_queries": "count",
    "engine.graph_cache_hits": "count",
    "engine.graph_cache_misses": "count",
    # engine (incremental)
    "update.apply_s": "s",
    "update.bootstrap_s": "s",
    "update.merged_rebuilds": "count",
    "update.answer_invalidations": "count",
    "update.answer_patches": "count",
    "update.fast_deletes": "count",
    "update.egd_merges": "count",
    "update.triggers_added": "count",
    "update.rebuild_ratio": "ratio",
    "update.patch_ratio": "ratio",
    # service
    "serve.exists_ms": "ms",
    "serve.certain_ms": "ms",
    "serve.batch_ms": "ms",
    "serve.repeat_ms": "ms",
    "service.request_s": "s",
    "service.queue_wait_s": "s",
    "service.transport_s": "s",
    "worker.execute_self_s": "s",
    "service.cache_hit_ratio": "ratio",
    # cross-cutting
    "host.probe_ms": "ms",
    "trace.overhead": "ratio",
}
"""Every per-layer metric a traced run reports, with its unit.

Times are per round (summed over the round's spans, then the median over
traced rounds); counts are per round.  A workload that bypasses a layer
reports 0 for it and names the reason on a ``layer-absent`` line.
"""

MIN_ROUNDS = 3
"""Rounds a run makes even when the window is already spent."""

PLACEMENT_MARGIN = 0.05
"""Least distance, as a share of the ops, between a percentile's rank
and a class boundary (never fewer than two ranks)."""


# --------------------------------------------------------------------- #
# Spans
# --------------------------------------------------------------------- #


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _OpenSpan:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: "Tracer", record: dict):
        self.tracer = tracer
        self.record = record

    def __enter__(self) -> dict:
        stack = self.tracer._stack
        self.record["parent"] = stack[-1] if stack else None
        self.record["id"] = len(self.tracer.spans)
        self.tracer.spans.append(self.record)
        stack.append(self.record["id"])
        self.record["start"] = time.perf_counter()
        return self.record

    def __exit__(self, *exc_info) -> None:
        self.record["end"] = time.perf_counter()
        self.tracer._stack.pop()


class Tracer:
    """Benchmark-side spans: name, start, end, parent and op id.

    Spans are kept in memory and written out when the run ends.  A
    disabled tracer hands out one shared no-op context, so untraced
    rounds pay one attribute read and one call per layer boundary.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._wall_offset = time.time() - time.perf_counter()

    def span(self, name: str, op: int | None = None):
        if not self.enabled:
            return _NULL_SPAN
        return _OpenSpan(self, {"name": name, "op": op})

    def adopt(
        self, tree: dict, op: int | None, parent: int | None, leaves=()
    ) -> None:
        """Graft a span tree recorded by the program (wall-clock starts).

        The subtrees below a span named in ``leaves`` are dropped, so that
        span's self time is its whole duration.
        """
        start = tree["start_ts"] - self._wall_offset
        record = {
            "name": tree["name"],
            "op": op,
            "parent": parent,
            "id": len(self.spans),
            "start": start,
            "end": start + tree["duration_s"],
        }
        self.spans.append(record)
        if tree["name"] not in leaves:
            for child in tree.get("children", ()):
                self.adopt(child, op, record["id"], leaves)

    def self_times(self, first: int = 0) -> dict[str, float]:
        """Per span name, the summed self time of spans ``first`` onward.

        Self time is a span's duration minus the time its children cover.
        """
        covered: dict[int, float] = {}
        for record in self.spans[first:]:
            parent = record["parent"]
            if parent is not None and parent >= first:
                covered[parent] = covered.get(parent, 0.0) + (
                    record["end"] - record["start"]
                )
        totals: dict[str, float] = {}
        for record in self.spans[first:]:
            own = record["end"] - record["start"] - covered.get(record["id"], 0.0)
            totals[record["name"]] = totals.get(record["name"], 0.0) + own
        return totals

    def write(self, path: Path) -> None:
        wall = [
            {**record, "start": record["start"] + self._wall_offset,
             "end": record["end"] + self._wall_offset}
            for record in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(wall) + "\n", encoding="utf-8")


# --------------------------------------------------------------------- #
# Rounds
# --------------------------------------------------------------------- #


@dataclass
class Round:
    """What one round measured and checked."""

    setup_s: float
    work_s: float
    ops: list[tuple[str, float]]
    """Latency samples as (class, seconds), in the order they ran."""
    attempted: int
    failed: int
    counters: dict[str, float]
    """Deterministic work counters of the timed phase."""
    layers: dict[str, float] = field(default_factory=dict)
    """Per-layer values beyond the counters and span self times; only
    traced rounds are reported."""
    traced: bool = False
    peak_child_rss_kb: int = 0


def collect_then_time() -> float:
    """The single ``gc.collect()`` between set-up and the timed phase."""
    gc.collect()
    return time.perf_counter()


def host_probe(repeats: int = 5) -> float:
    """Median ms of a fixed pure-Python loop; it shows host drift only."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        total = 0
        for index in range(200_000):
            total += index * index % 7
        samples.append((time.perf_counter() - start) * 1000)
    return statistics.median(samples)


def round_count(seconds: float, round_s: float) -> int:
    """Rounds in a run: the window over a workload's nominal round time.

    The count depends only on ``--seconds``, never on how fast rounds
    run, so one seed always means the same work.
    """
    return max(MIN_ROUNDS, round(seconds / round_s))


def run_rounds(
    round_fn: Callable[[int, Tracer], Round],
    count: int,
    trace: bool,
    tracer: Tracer,
) -> list[Round]:
    """Run rounds ``0 .. count - 1``; each round has inputs of its own.

    A traced run makes half as many rounds and runs each twice, traced
    and untraced, so the tracing overhead compares the same work; which
    of the two goes first alternates, so the order cancels out.
    """
    schedule = (
        [(index, traced) for index in range(max(2, count // 2))
         for traced in ((False, True) if index % 2 == 0 else (True, False))]
        if trace
        else [(index, False) for index in range(count)]
    )
    rounds: list[Round] = []
    for index, traced in schedule:
        tracer.enabled = traced
        first_span = len(tracer.spans)
        result = round_fn(index, tracer)
        result.traced = traced
        if traced:
            for name, value in result.counters.items():
                if name in LAYER_METRICS:
                    result.layers.setdefault(name, value)
            for name, value in tracer.self_times(first_span).items():
                for metric in (name + "_s", name + "_self_s"):
                    if metric in LAYER_METRICS:
                        result.layers.setdefault(metric, value)
        rounds.append(result)
    tracer.enabled = False
    return rounds


# --------------------------------------------------------------------- #
# Statistics
# --------------------------------------------------------------------- #


def class_table(ops: list[tuple[str, float]]) -> list[dict]:
    """Per-class op count, share and median latency, fastest class first."""
    by_class: dict[str, list[float]] = {}
    for name, seconds in ops:
        by_class.setdefault(name, []).append(seconds)
    rows = [
        {
            "class": name,
            "ops": len(values),
            "share": len(values) / len(ops),
            "p50_ms": statistics.median(values) * 1000,
        }
        for name, values in by_class.items()
    ]
    rows.sort(key=lambda row: row["p50_ms"])
    return rows


def placement(ops: list[tuple[str, float]], fractions=(0.5, 0.9)) -> dict:
    """Whether each percentile's rank keeps clear of every class boundary.

    Classes are ordered by median latency; their cumulative shares are
    the boundaries.  A percentile within ``PLACEMENT_MARGIN`` of one sits
    where a small shift in the class mix moves it to another class.  With
    one class there is no boundary and nothing to report.
    """
    total = len(ops)
    table = class_table(ops)
    if len(table) < 2:
        return {}
    margin = max(2, PLACEMENT_MARGIN * total)
    boundaries, cumulative = [], 0
    for row in table[:-1]:
        cumulative += row["ops"]
        boundaries.append(cumulative)
    report = {}
    for fraction in fractions:
        rank = fraction * total
        distance = min(abs(rank - b) for b in boundaries)
        report[f"p{round(fraction * 100)}"] = {
            "rank": rank,
            "nearest_boundary_ranks": distance,
            "ok": distance >= margin,
        }
    return report


def sub_seed(seed: int, index: int, part: int = 0) -> int:
    """The generator seed of part ``part`` of round ``index``."""
    return seed * 10_000 + index * 100 + part


def add_counts(mappings) -> dict[str, float]:
    """Counts summed name by name over ``mappings``."""
    totals: dict[str, float] = {}
    for mapping in mappings:
        for name, value in mapping.items():
            totals[name] = totals.get(name, 0) + value
    return totals


def peak_rss_mb(rounds: list[Round]) -> float:
    """Peak RSS of this process plus the largest child process's peak."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = max((r.peak_child_rss_kb for r in rounds), default=0)
    return (own + child) / 1024


def layer_values(rounds: list[Round]) -> dict[str, float]:
    """Per-layer medians over the traced rounds, 0 for absent layers."""
    traced = [r for r in rounds if r.traced]
    untraced = [r for r in rounds if not r.traced]
    values = {}
    for name in LAYER_METRICS:
        present = [r.layers[name] for r in traced if name in r.layers]
        values[name] = statistics.median(present) if present else 0.0
    values["trace.overhead"] = sum(r.work_s for r in traced) / sum(
        r.work_s for r in untraced
    )
    return values
