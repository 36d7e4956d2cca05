"""Telemetry overhead: the instrumented hot paths vs ``REPRO_TELEMETRY=off``.

The PR 9 contract: spans, counters and stats folding on the solver/chase/
engine hot paths must stay **within 5% of the uninstrumented cost** (with
an absolute floor of 20 us per instrumented call, for workloads so cheap
that 5% would demand sub-microsecond spans), with byte-identical answers
either way — observability that taxes the request path gets turned off in
production and then lies by omission.  Two workloads bracket the
instrumented surface:

* ``test_warm_probe_{on,off}``   — a warm single-pair SAT probe on the
  shared :class:`~repro.core.satpipeline.SatPipeline` (the service's
  per-request fast path: one ``solver.solve`` span + stats fold per call);
* ``test_update_cycle_{on,off}`` — a 32-fact insert/retract cycle on a
  warm :class:`~repro.engine.incremental.IncrementalChase` tenant
  (``update.apply`` + nested ``chase.*`` spans, the write-path shape);
* ``test_overhead_contract``     — interleaved on/off rounds of both,
  asserting the <= 5% acceptance bound on the median of each round's own
  on/off difference, and answer byte-identity, inline.

Telemetry is toggled per sweep through
:func:`repro.telemetry.set_enabled` (process-wide override, restored to
the environment default after every test) so both sides run in one
process against the same warm caches.
"""

from __future__ import annotations

import random
import statistics

import pytest

from conftest import report, timed

from repro import telemetry
from repro.core.certain import certain_answers_nre, is_certain_answer
from repro.core.search import CandidateSearchConfig
from repro.engine.incremental import IncrementalChase
from repro.graph.parser import parse_nre
from repro.scenarios.figures import example31_setting
from repro.scenarios.flights import flights_instance
from repro.scenarios.generators import random_flights_instance
from repro.service.protocol import canonical_bytes
from repro.service.workers import certain_answers_to_dict

PROBE_QUERY = "f . h"
PROBE_PAIR = ("c1", "hx")
ANSWER_QUERY = "f . f*[h] . f- . (f-)*"
UPDATE_BATCH = 32
OVERHEAD_BOUND = 0.05
# Absolute floor on top of the relative bound: the warm probe itself costs
# ~15 us, where "5%" would demand sub-microsecond instrumentation no
# Python span can meet — the contract is 5% relative or 20 us per call,
# whichever is greater (per-request absolute overhead is what an SLO
# feels, and a span + stats fold costs ~5 us today).
SLACK_PER_CALL_S = 2e-5
# One interleaved sweep runs a batch so the medians measure the steady
# state, not single-call scheduler jitter.
PROBE_SWEEP = 25
CYCLE_SWEEP = 3


@pytest.fixture(autouse=True)
def _restore_telemetry():
    """Every test leaves the process on the environment default."""
    yield
    telemetry.set_enabled(None)


def make_warm_probe():
    """One assumption-guarded pair probe on an already-built pipeline."""
    setting, instance = example31_setting(), flights_instance()
    query = parse_nre(PROBE_QUERY)
    probe = lambda: is_certain_answer(setting, instance, query, PROBE_PAIR)
    probe()  # build + cache the SatPipeline: measure the warm path only
    return probe


def make_update_cycle():
    """A 32-fact insert/retract round trip on a warm incremental tenant."""
    live = IncrementalChase(
        example31_setting(),
        random_flights_instance(200, cities=40, hotels=80, rng=random.Random(17)),
    )
    inserts = [
        update
        for index in range(UPDATE_BATCH // 2)
        for update in (
            ("insert", "Flight", (f"z{index}", "c1", "c2")),
            ("insert", "Hotel", (f"z{index}", f"bz{index}")),
        )
    ]
    deletes = [("delete", relation, values) for _, relation, values in inserts]

    def cycle() -> int:
        applied = live.apply_updates(inserts)
        retracted = live.apply_updates(deletes)
        return applied["inserts"] + retracted["deletes"]

    return cycle


def with_telemetry(enabled: bool, fn):
    """``fn`` run under a pinned telemetry state (restored by the fixture)."""

    def sweep():
        telemetry.set_enabled(enabled)
        return fn()

    return sweep


def test_warm_probe_on(benchmark):
    probe = make_warm_probe()
    telemetry.set_enabled(True)
    assert benchmark.pedantic(probe, rounds=5, iterations=1, warmup_rounds=1) in (
        True,
        False,
    )


def test_warm_probe_off(benchmark):
    probe = make_warm_probe()
    telemetry.set_enabled(False)
    assert benchmark.pedantic(probe, rounds=5, iterations=1, warmup_rounds=1) in (
        True,
        False,
    )


def test_update_cycle_on(benchmark):
    cycle = make_update_cycle()
    telemetry.set_enabled(True)
    assert (
        benchmark.pedantic(cycle, rounds=5, iterations=1, warmup_rounds=1)
        == 2 * UPDATE_BATCH
    )


def test_update_cycle_off(benchmark):
    cycle = make_update_cycle()
    telemetry.set_enabled(False)
    assert (
        benchmark.pedantic(cycle, rounds=5, iterations=1, warmup_rounds=1)
        == 2 * UPDATE_BATCH
    )


def answers_bytes() -> bytes:
    """The full certain-answer wire payload under the current toggle."""
    result = certain_answers_nre(
        example31_setting(),
        flights_instance(),
        parse_nre(ANSWER_QUERY),
        config=CandidateSearchConfig(star_bound=2),
    )
    return canonical_bytes(certain_answers_to_dict(result))


def test_overhead_contract():
    """The acceptance bound: telemetry on costs <= 5% over off, same bytes."""
    # Byte-identity first — a cheap instrumented path is worthless if the
    # instrumentation perturbs answers.
    telemetry.set_enabled(True)
    payload_on = answers_bytes()
    telemetry.set_enabled(False)
    payload_off = answers_bytes()
    assert payload_on == payload_off, "telemetry toggle changed the answer bytes"

    single_probe, single_cycle = make_warm_probe(), make_update_cycle()

    def probe():
        for _ in range(PROBE_SWEEP):
            single_probe()

    def cycle():
        for _ in range(CYCLE_SWEEP):
            single_cycle()

    # Each round runs each workload's on/off pair in on-off-off-on order:
    # a sweep runs a few percent slower in the first slot of a round
    # (measured with the same toggle in both slots), and the mirrored
    # order gives each side one slot of each kind.  The overhead is the
    # median of the rounds' own on - off differences: the host's speed
    # shifts by tens of percent for many rounds at a time, which moves
    # both sides of a round together but splits two separate medians.
    samples: dict[str, list[tuple[float, float]]] = {"probe": [], "cycle": []}
    for _ in range(45):
        for name, sweep in (("probe", probe), ("cycle", cycle)):
            on = timed(with_telemetry(True, sweep))
            off = timed(with_telemetry(False, sweep))
            off += timed(with_telemetry(False, sweep))
            on += timed(with_telemetry(True, sweep))
            samples[name].append((on / 2, off / 2))

    def on_off(name: str, per_sweep: int) -> tuple[float, float]:
        """The median off time, and it plus the median paired overhead."""
        off = statistics.median(off for _, off in samples[name]) / per_sweep
        excess = statistics.median(on - off for on, off in samples[name]) / per_sweep
        return off + excess, off

    probe_on, probe_off = on_off("probe", 1)
    cycle_on, cycle_off = on_off("cycle", CYCLE_SWEEP)
    report(
        "telemetry overhead: instrumented vs REPRO_TELEMETRY=off",
        [
            ("warm probe off", "baseline",
             f"{1e6 * probe_off / PROBE_SWEEP:.1f} us/call"),
            ("warm probe on", "<= 5% or 20 us/call",
             f"{1e6 * probe_on / PROBE_SWEEP:.1f} us/call "
             f"(+{1e6 * (probe_on - probe_off) / PROBE_SWEEP:.1f} us)"),
            ("32-fact cycle off", "baseline", f"{1000 * cycle_off:.3f} ms"),
            ("32-fact cycle on", "<= 5% or 20 us/call",
             f"{1000 * cycle_on:.3f} ms ({100 * (cycle_on / cycle_off - 1):+.1f}%)"),
            ("answers", "byte-identical", "byte-identical"),
        ],
    )
    for label, on, off, calls in (
        ("warm single-pair probe", probe_on, probe_off, PROBE_SWEEP),
        ("32-fact update cycle", cycle_on, cycle_off, 2),  # 2 apply_updates
    ):
        bound = off * (1.0 + OVERHEAD_BOUND) + calls * SLACK_PER_CALL_S
        assert on <= bound, (
            f"telemetry overhead on the {label} is "
            f"{1e6 * (on - off) / calls:.1f} us/call "
            f"({100 * (on / off - 1):.1f}% — the bound is "
            f"{100 * OVERHEAD_BOUND:.0f}% or {1e6 * SLACK_PER_CALL_S:.0f} us/call: "
            f"on {1000 * on:.3f} ms vs off {1000 * off:.3f} ms)"
        )
