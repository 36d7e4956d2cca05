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


def ab_medians(a, b, rounds: int = 5) -> tuple[float, float, float]:
    """Median wall clock of sweeps ``a`` and ``b``, and their median ratio.

    Each round runs the sweeps in mirrored order, a-b-b-a, and averages
    each sweep's two runs: a sweep runs a few percent slower in the first
    slot of a round, and the mirror gives each side one slot of each
    kind.  The ratio is the median of each round's own ``b / a``: the
    host's speed shifts for many rounds at a time, which moves both
    sides of a round together but splits two separate medians.

    Returns ``(median a, median b, median of the rounds' b / a)``.
    """
    samples: list[tuple[float, float]] = []
    for _ in range(rounds):
        first_a, first_b = timed(a), timed(b)
        second_b, second_a = timed(b), timed(a)
        samples.append(((first_a + second_a) / 2, (first_b + second_b) / 2))
    return (
        statistics.median(t_a for t_a, _ in samples),
        statistics.median(t_b for _, t_b in samples),
        statistics.median(t_b / t_a for t_a, t_b in samples),
    )


def report(experiment: str, rows: list[tuple[str, object, object]]) -> None:
    """Print a paper-vs-measured table for one experiment."""
    width = max((len(label) for label, _, _ in rows), default=10) + 2
    print(f"\n[{experiment}] paper vs measured")
    print(f"  {'fact'.ljust(width)} {'paper':>28} {'measured':>28}")
    for label, paper, measured in rows:
        print(f"  {label.ljust(width)} {str(paper):>28} {str(measured):>28}")
