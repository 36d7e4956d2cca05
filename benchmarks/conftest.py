"""Shared helpers for the benchmark harness.

Every benchmark prints a ``paper vs measured`` block through
:func:`report`, so running ``pytest benchmarks/ --benchmark-only -s``
shows, for each experiment, what the paper states and what this
implementation measures, alongside pytest-benchmark's timing table.
"""

from __future__ import annotations

import statistics
import time


def timed(fn) -> float:
    """Wall-clock seconds of one call to ``fn``."""
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def ab_medians(*sweeps, rounds: int = 5) -> list[float]:
    """Median wall-clock per sweep, measured in interleaved rounds.

    Round-robin interleaving means a load spike on the host hits every
    contestant roughly equally instead of skewing whichever sweep happened
    to run during it — the speedup ratios asserted from these medians stay
    meaningful on noisy CI machines.
    """
    samples: list[list[float]] = [[] for _ in sweeps]
    for _ in range(rounds):
        for index, sweep in enumerate(sweeps):
            samples[index].append(timed(sweep))
    return [statistics.median(times) for times in samples]


def report(experiment: str, rows: list[tuple[str, object, object]]) -> None:
    """Print a paper-vs-measured table for one experiment."""
    width = max((len(label) for label, _, _ in rows), default=10) + 2
    print(f"\n[{experiment}] paper vs measured")
    print(f"  {'fact'.ljust(width)} {'paper':>28} {'measured':>28}")
    for label, paper, measured in rows:
        print(f"  {label.ljust(width)} {str(paper):>28} {str(measured):>28}")
