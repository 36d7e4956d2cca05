"""Scale-stress harness over the ``repro.scenarios.scale`` families.

A standalone script (not a pytest-benchmark module): the stages it times
— streamed generation, relational chase, query evaluation, the
(downsampled) SAT decision, CSR freeze, snapshot save/load, and
a mixed service request stream — run for minutes at the nightly tier, so
they are driven directly and emit a pytest-benchmark-*shaped* JSON
report that :mod:`export_medians` and :mod:`compare_medians` consume
unchanged::

    PYTHONPATH=src python benchmarks/bench_scale.py \
        --sizes 1000,100000 --out scale_raw.json
    python benchmarks/export_medians.py scale_raw.json BENCH_SCALE.json --tag scale
    python benchmarks/compare_medians.py BENCH_SCALE.json \
        benchmarks/BENCH_SCALE.json --tolerance 0.25

Benchmark names are ``{family}/n{size}/{stage}``.  The SAT stage runs on
a fixed *downsample* of each family (the bounded-universe CNF encoding
is super-cubic in pattern nodes — building it at 10^3+ nodes is
infeasible by design, see PERFORMANCE.md); every other stage runs at the
requested size.  The report's ``scale`` block records peak RSS and the
process-wide telemetry counters; ``--max-rss-gb`` turns the RSS record
into a hard gate (the nightly 10^6 streaming check).
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.chase.relational_chase import chase_relational
from repro.core.satpipeline import clear_pipelines, pipeline_for
from repro.engine.query import QueryEngine
from repro.graph.parser import parse_nre
from repro.graph.snapshot import load_snapshot, save_snapshot
from repro.scenarios.scale import (
    FAMILIES,
    GeneratorConfig,
    generate_instance,
    iter_facts,
    scale_document,
    scale_setting,
    workload_queries,
)
from repro.service.server import start_in_thread
from repro.telemetry import get_registry

SAT_DOWNSAMPLE = {"medlit": 12, "social": 4}
"""Per-family node counts for the SAT stage (super-cubic encoding)."""


def timed(fn, rounds: int) -> tuple[list[float], object]:
    """Run ``fn`` ``rounds`` times; return (durations, last result)."""
    durations, result = [], None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        durations.append(time.perf_counter() - start)
    return durations, result


def entry(name: str, durations: list[float], **extra) -> dict:
    """One pytest-benchmark-shaped report entry."""
    return {
        "name": name,
        "stats": {
            "median": statistics.median(durations),
            "mean": statistics.fmean(durations),
            "min": min(durations),
            "max": max(durations),
            "rounds": len(durations),
        },
        "extra_info": extra,
    }


def percentile(samples: list[float], fraction: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, round(fraction * (len(ordered) - 1)))
    return ordered[index]


def bench_family(
    family: str,
    size: int,
    rounds: int,
    tenant_cap: int,
    service_requests: int,
) -> list[dict]:
    prefix = f"{family}/n{size}"
    setting = scale_setting(family)
    config = GeneratorConfig(family=family, nodes=size)
    benchmarks: list[dict] = []

    # gen: full deterministic stream consumption, O(batch) memory.
    durations, fact_total = timed(
        lambda: sum(1 for _ in iter_facts(config)), rounds
    )
    benchmarks.append(entry(f"{prefix}/gen", durations, facts=fact_total))
    print(f"  gen: {durations[0]:.2f}s ({fact_total} facts)", flush=True)

    instance = generate_instance(config)

    # chase: relational chase to the universal solution.
    durations, chased = timed(
        lambda: chase_relational(
            setting.st_tgds, setting.egds(), instance,
            alphabet=setting.alphabet,
        ),
        rounds,
    )
    assert not chased.failed, f"{family} tenants must always chase"
    graph = chased.expect_graph()
    benchmarks.append(
        entry(f"{prefix}/chase", durations, edges=graph.edge_count())
    )
    print(f"  chase: {durations[0]:.2f}s ({graph.edge_count()} edges)", flush=True)

    # csr freeze: the cold CSR build.
    durations, frozen = timed(graph.freeze, rounds)
    benchmarks.append(entry(f"{prefix}/csr_freeze", durations))

    # evaluate: the family's query mix on the frozen universal solution.
    engine = QueryEngine()
    for index, text in enumerate(workload_queries(family)):
        query = parse_nre(text)
        durations, answers = timed(lambda: engine.pairs(frozen, query), rounds)
        benchmarks.append(
            entry(
                f"{prefix}/evaluate/q{index}",
                durations,
                query=text,
                answers=len(answers),
            )
        )
        print(f"  evaluate/q{index} ({text}): {durations[0]:.2f}s "
              f"({len(answers)} answers)", flush=True)

    # sat_decide: the Theorem 4.1 pipeline on the fixed downsample.
    sat_config = config.scaled(nodes=SAT_DOWNSAMPLE[family])
    sat_instance = generate_instance(sat_config)

    def sat_decide():
        clear_pipelines()
        pipeline = pipeline_for(setting, sat_instance)
        assert pipeline is not None, f"{family} must be SAT-encodable"
        return pipeline.has_solution()

    durations, decided = timed(sat_decide, rounds)
    assert decided, f"{family} downsample must have a solution"
    benchmarks.append(
        entry(f"{prefix}/sat_decide", durations, nodes=sat_config.nodes)
    )
    print(f"  sat_decide (n={sat_config.nodes}): {durations[0]:.2f}s", flush=True)

    # snapshot save / load round trip of the universal solution.
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "universal.snap")
        durations, _ = timed(lambda: save_snapshot(frozen, path), rounds)
        benchmarks.append(entry(f"{prefix}/snapshot_save", durations))
        durations, restored = timed(lambda: load_snapshot(path), rounds)
        assert restored.edges() == frozen.edges()
        benchmarks.append(entry(f"{prefix}/snapshot_load", durations))

    # service: a mixed request stream against a capped tenant.
    tenant = config.scaled(nodes=min(size, tenant_cap))
    document = scale_document(tenant)
    queries = list(workload_queries(family))
    handle = start_in_thread(workers=2, metrics_port=0)
    try:
        with handle.client(timeout=600.0) as client:
            client.call("ping")
            latencies: list[float] = []
            for index in range(service_requests):
                text = queries[index % len(queries)]
                start = time.perf_counter()
                if index % 3 == 0:
                    response = client.exists(document)
                    assert response.get("status") == "exists", response
                elif index % 3 == 1:
                    response = client.certain(document, text)
                    assert "answers" in response, response
                else:
                    batch = queries[: 1 + index % len(queries)]
                    response = client.evaluate_batch(document, batch)
                    assert len(response["results"]) == len(batch), response
                latencies.append(time.perf_counter() - start)
    finally:
        handle.close()
    benchmarks.append(
        entry(
            f"{prefix}/service_p50",
            [percentile(latencies, 0.50)],
            requests=len(latencies),
            tenant_nodes=tenant.nodes,
        )
    )
    benchmarks.append(
        entry(
            f"{prefix}/service_p99",
            [percentile(latencies, 0.99)],
            requests=len(latencies),
            tenant_nodes=tenant.nodes,
        )
    )
    print(f"  service: p50 {percentile(latencies, 0.5) * 1000:.1f}ms / "
          f"p99 {percentile(latencies, 0.99) * 1000:.1f}ms "
          f"over {len(latencies)} requests", flush=True)
    return benchmarks


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--families",
        default=",".join(FAMILIES),
        help=f"comma-separated families (default {','.join(FAMILIES)})",
    )
    parser.add_argument(
        "--sizes",
        default="1000",
        help="comma-separated node counts per family (default 1000)",
    )
    parser.add_argument(
        "--rounds",
        type=int,
        default=None,
        help="timing rounds per stage (default 3, or 1 at sizes >= 10^5)",
    )
    parser.add_argument("--out", default="bench_scale_raw.json")
    parser.add_argument(
        "--tenant-cap",
        type=int,
        default=1_000,
        help="max tenant nodes for the service stage (default 1000)",
    )
    parser.add_argument(
        "--service-requests",
        type=int,
        default=42,
        help="requests in the mixed service stream (default 42)",
    )
    parser.add_argument(
        "--max-rss-gb",
        type=float,
        default=None,
        help="fail when peak RSS exceeds this many GiB",
    )
    args = parser.parse_args(argv)

    families = [f.strip() for f in args.families.split(",") if f.strip()]
    sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    benchmarks: list[dict] = []
    for size in sizes:
        rounds = args.rounds or (3 if size < 100_000 else 1)
        for family in families:
            print(f"== {family} n={size} (rounds={rounds}) ==", flush=True)
            benchmarks.extend(
                bench_family(
                    family, size, rounds, args.tenant_cap, args.service_requests
                )
            )

    peak_rss_bytes = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    report = {
        "machine_info": {
            "node": platform.node(),
            "python_version": platform.python_version(),
        },
        "benchmarks": benchmarks,
        "scale": {
            "families": families,
            "sizes": sizes,
            "peak_rss_bytes": peak_rss_bytes,
            "telemetry": get_registry().snapshot_counters(),
        },
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.out}: {len(benchmarks)} stage timings, "
          f"peak RSS {peak_rss_bytes / 2**30:.2f} GiB")
    if args.max_rss_gb is not None and peak_rss_bytes > args.max_rss_gb * 2**30:
        print(
            f"FAIL: peak RSS {peak_rss_bytes / 2**30:.2f} GiB exceeds the "
            f"{args.max_rss_gb:.2f} GiB gate",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
