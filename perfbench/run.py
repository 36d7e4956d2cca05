"""Run one benchmark workload and print its metrics.

From the root of a checkout::

    python3 perfbench/run.py --workload bulk-medlit --seed 1 --seconds 15 --trace 0

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones (and writes the spans to ``.perfbench/traces/``).  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
SCRATCH = ROOT / ".perfbench"

CLEARED_ENV = (
    "REPRO_KERNEL",
    "REPRO_SOLVER",
    "REPRO_SAMEAS",
    "REPRO_TELEMETRY",
    "REPRO_SNAPSHOT_DIR",
    "REPRO_AUTOMATON_CACHE",
    "REPRO_SLOW_FRACTION",
    "REPRO_SLOW_SECONDS",
)
"""Inherited settings that would change what the program runs."""

END_TO_END = {
    "setup_s": "s",
    "work_s": "s",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "peak_rss_mb": "MB",
}

WORKLOADS = ("bulk-medlit", "stream-medlit", "serve-social")

WARM_UP_NODES = {"bulk-medlit": 200, "stream-medlit": 50, "serve-social": 30}
"""Tenant size of the untimed round that loads lazy imports first."""


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SOURCE}", file=sys.stderr)
        return 2
    for name in CLEARED_ENV:
        os.environ.pop(name, None)
    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    os.environ["REPRO_CACHE_DIR"] = str(workdir / "cache")
    sys.path.insert(0, str(SOURCE))
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args: argparse.Namespace, workdir: Path) -> int:
    import harness
    from bulk import BulkMedlit
    from repro import kernels
    from repro.solver import resolve_solver_name
    from serve import ServeSocial
    from stream import StreamMedlit

    workloads = {
        "bulk-medlit": BulkMedlit,
        "stream-medlit": StreamMedlit,
        "serve-social": ServeSocial,
    }
    workload_cls = workloads[args.workload]
    module = sys.modules[workload_cls.__module__]

    probe_before = harness.host_probe()
    began = time.perf_counter()
    warm_up = workload_cls(args.seed, workdir, nodes=WARM_UP_NODES[args.workload])
    warm_up.round(0, harness.Tracer(False))
    warm_up_s = time.perf_counter() - began

    tracer = harness.Tracer(False)
    workload = workload_cls(args.seed, workdir)
    count = harness.round_count(args.seconds, module.ROUND_S)
    rounds = harness.run_rounds(workload.round, count, bool(args.trace), tracer)
    probe_after = harness.host_probe()

    untraced = [r for r in rounds if not r.traced]
    ops = [op for r in untraced for op in r.ops]
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    latencies = [seconds for _, seconds in ops]
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    end_to_end = {
        "setup_s": statistics.median(r.setup_s for r in rounds),
        "work_s": sum(r.work_s for r in untraced),
        "p50_ms": deciles[4] * 1000,
        "p90_ms": deciles[8] * 1000,
        "peak_rss_mb": harness.peak_rss_mb(rounds),
    }

    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} rounds "
          f"({len(rounds) - len(untraced)} traced), warm-up {warm_up_s:.3f} s")
    print(f"config: kernel={kernels.resolve_kernel(None)} "
          f"solver={resolve_solver_name(None)} python={platform.python_version()}")
    for name, unit in END_TO_END.items():
        print(f"  {name} = {end_to_end[name]:.6g} {unit}")
    print(f"  samples = {len(latencies)} ops")
    print(f"  error_rate = {failed / attempted:.6g} ({failed}/{attempted})")
    print(f"host.probe_ms before {probe_before:.3f} after {probe_after:.3f}")
    for row in harness.class_table(ops):
        print(f"class {row['class']}: {row['ops']} ops, share {row['share']:.3f}, "
              f"p50 {row['p50_ms']:.3f} ms")
    checks = harness.placement(ops)
    if not checks:
        print("placement: one op class, no class boundary")
    for name, check in checks.items():
        verdict = "ok" if check["ok"] else "FAIL"
        print(f"placement {name}: rank {check['rank']:.1f}, "
              f"{check['nearest_boundary_ranks']:.1f} ranks from a class "
              f"boundary: {verdict}")
    counters = harness.add_counts(r.counters for r in untraced)
    print("counters " + json.dumps(counters, sort_keys=True))

    if args.trace:
        metrics = harness.layer_values(rounds)
        metrics["host.probe_ms"] = statistics.median([probe_before, probe_after])
        units = harness.LAYER_METRICS
        for name, reason in module.ABSENT.items():
            print(f"layer-absent {name}: {reason}")
        trace_path = SCRATCH / "traces" / f"{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path)
        print(f"spans: {len(tracer.spans)} written to {trace_path}")
        for name, unit in units.items():
            print(f"  {name} = {metrics[name]:.6g} {unit}")
    else:
        metrics, units = end_to_end, END_TO_END
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
