"""Incremental chase maintenance vs full re-chase under live edge updates.

The perf contract: applying an N-edge update batch to a warm M-edge tenant
must cost **O(affected)**, not O(M).  The incremental chase fires only the
triggers the batch touches and keeps the hotel egd's merge partition on
an int-id union-find, while a from-scratch
:func:`~repro.chase.relational_chase.chase_relational` re-enumerates every
Flight ⋈ Hotel join over the whole tenant.  With byte-identical results
(the differential suite in ``tests/test_engine/test_incremental.py`` pins
that), the only question left is the speedup, measured here:

* ``test_warm_update_{1,8,32}`` — a warm :class:`IncrementalChase` over
  the largest generator tenant absorbs an insert batch of N fresh
  Flight/Hotel facts and then retracts it.  The fresh hotels give each
  new city null a singleton class, so the insert extends the partition
  and the retraction re-closes only each null and its hotel;
* ``test_support_delete_32``    — the same tenant retracts and restores
  32 Hotel facts that feed egd merges.  Each retract batch re-closes the
  union-find inside the functional-link components of the hotels it
  touched, and each restore batch extends the partition again;
* ``test_full_rechase_32``      — the from-scratch oracle over the same
  updated tenant, i.e. what every batch would cost without maintenance;
* the acceptance criteria ``warm 32-edge update >= 5x faster than the
  full re-chase`` and ``32-fact merge-support delete/restore >= 1.25x
  faster than the full re-chase`` are asserted inside
  ``test_warm_update_32`` and ``test_support_delete_32``.

In the warm cycle most of the time is the base layer (seeded trigger
joins and trigger records), not the merged layer; see
``docs/PERFORMANCE.md``, "Incremental chase on an int-id union-find".
"""

from __future__ import annotations

import random
import statistics
import time

from conftest import ab_medians, report

from repro.chase.relational_chase import chase_relational
from repro.engine.incremental import IncrementalChase
from repro.scenarios.figures import example31_setting
from repro.scenarios.generators import random_flights_instance

FLIGHTS = 400
CITIES = 60
HOTELS = 120


def tenant_instance():
    """The largest generator tenant: ~1000 source facts, ~1800 chased edges."""
    return random_flights_instance(FLIGHTS, cities=CITIES, hotels=HOTELS, rng=random.Random(17))


def update_batch(size: int) -> list[tuple[str, str, tuple]]:
    """N fresh Flight/Hotel inserts: new flight ids, never-shared hotels.

    Fresh hotels give each new city null a singleton class, so the
    retraction re-closes two ids per fact and no old class, which is
    exactly the common live-update shape: new data arrives, old merges
    stay untouched.
    """
    return [
        update
        for index in range(size)
        for update in (
            ("insert", "Flight", (f"z{index}", "c1", "c2")),
            ("insert", "Hotel", (f"z{index}", f"bz{index}")),
        )
    ]


def make_warm_cycle(size: int):
    """One insert-batch/delete-batch round trip on a warm tenant state."""
    live = IncrementalChase(example31_setting(), tenant_instance())
    inserts = update_batch(size)
    deletes = [("delete", relation, values) for _, relation, values in inserts]

    def cycle() -> int:
        applied = live.apply_updates(inserts)
        retracted = live.apply_updates(deletes)
        return applied["inserts"] + retracted["deletes"]

    return cycle


def merge_support_facts(size: int) -> list[tuple[str, tuple]]:
    """``size`` tenant Hotel facts whose hotel is shared by a joined flight.

    Each such fact fires an s-t trigger whose null the egd merges with
    another flight's null at the same hotel, so retracting it removes an
    ``h`` edge whose member class has company: the batch re-closes.
    """
    instance = tenant_instance()
    flights = {values[0] for values in instance.tuples("Flight")}
    joined = sorted(
        values for values in instance.tuples("Hotel") if values[0] in flights
    )
    sharing: dict[str, int] = {}
    for _, hotel in joined:
        sharing[hotel] = sharing.get(hotel, 0) + 1
    return [("Hotel", values) for values in joined if sharing[values[1]] > 1][:size]


def make_support_cycle(size: int):
    """One retract/restore round trip of merge-feeding facts, warm tenant."""
    live = IncrementalChase(example31_setting(), tenant_instance())
    facts = merge_support_facts(size)
    deletes = [("delete", relation, values) for relation, values in facts]
    inserts = [("insert", relation, values) for relation, values in facts]

    def cycle() -> int:
        retracted = live.apply_updates(deletes)
        restored = live.apply_updates(inserts)
        return retracted["deletes"] + restored["inserts"]

    return live, cycle


def make_full_rechase(size: int):
    """The from-scratch baseline: chase the whole updated tenant."""
    setting = example31_setting()
    instance = tenant_instance()
    for _, relation, values in update_batch(size):
        instance.add(relation, values)

    def rechase() -> int:
        result = chase_relational(
            setting.st_tgds, list(setting.egds()), instance,
            alphabet=setting.alphabet,
        )
        assert not result.failed
        return result.graph.edge_count()

    return rechase


def timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_warm_update_1(benchmark):
    cycle = make_warm_cycle(1)
    assert benchmark.pedantic(cycle, rounds=5, iterations=1, warmup_rounds=1) == 4


def test_warm_update_8(benchmark):
    cycle = make_warm_cycle(8)
    assert benchmark.pedantic(cycle, rounds=5, iterations=1, warmup_rounds=1) == 32


def test_warm_update_32(benchmark):
    """The acceptance batch size — asserts the >= 5x contract inline."""
    cycle = make_warm_cycle(32)
    assert benchmark.pedantic(cycle, rounds=5, iterations=1, warmup_rounds=1) == 128

    rechase = make_full_rechase(32)
    warm_median = statistics.median(timed(cycle) for _ in range(3))
    full_median = statistics.median(timed(rechase) for _ in range(3))
    speedup = full_median / warm_median
    report(
        "incremental chase: warm update vs full re-chase",
        [
            ("tenant", "largest generator graph",
             f"{FLIGHTS} flights / {CITIES} cities / {HOTELS} hotels"),
            ("batch", "N = 32 facts", "insert + retract cycle"),
            ("warm update median", "O(affected)", f"{1000 * warm_median:.1f} ms"),
            ("full re-chase median", "O(M)", f"{1000 * full_median:.1f} ms"),
            ("speedup", ">= 5x (acceptance)", f"{speedup:.1f}x"),
        ],
    )
    assert speedup >= 5.0, (
        f"warm 32-edge update is only {speedup:.2f}x faster than a full "
        f"re-chase (acceptance requires >= 5x: warm {1000 * warm_median:.1f} ms, "
        f"full {1000 * full_median:.1f} ms)"
    )


def test_support_delete_32(benchmark):
    """Merge-support deletes re-close their components, >= 1.25x a re-chase."""
    live, cycle = make_support_cycle(32)
    before = live.stats.summary()
    assert benchmark.pedantic(cycle, rounds=5, iterations=1, warmup_rounds=1) == 64
    after = live.stats.summary()
    # Each delete batch re-closes only the components its removed edges
    # touch (never the whole tenant), and nothing rebuilds the layer.
    recloses = after["recloses"] - before["recloses"]
    assert recloses == 6  # one per retract batch: a warm-up and five rounds
    assert after["ids_reclosed"] - before["ids_reclosed"] < recloses * len(live._ids)
    assert after["merged_rebuilds"] == before["merged_rebuilds"]

    rechase = make_full_rechase(32)
    warm_median, full_median, speedup = ab_medians(cycle, rechase, rounds=5)
    report(
        "incremental chase: merge-support delete vs full re-chase",
        [
            ("tenant", "largest generator graph",
             f"{FLIGHTS} flights / {CITIES} cities / {HOTELS} hotels"),
            ("batch", "N = 32 facts", "retract + restore cycle"),
            ("component re-close median", "O(touched components)",
             f"{1000 * warm_median:.1f} ms"),
            ("full re-chase median", "O(M)", f"{1000 * full_median:.1f} ms"),
            ("speedup", ">= 1.25x (acceptance)", f"{speedup:.1f}x"),
        ],
    )
    assert speedup >= 1.25, (
        f"32-fact merge-support delete/restore is only {speedup:.2f}x faster "
        f"than a full re-chase (acceptance requires >= 1.25x: repair "
        f"{1000 * warm_median:.1f} ms, full {1000 * full_median:.1f} ms)"
    )


def test_full_rechase_32(benchmark):
    """The baseline as its own tracked median (the perf-trajectory anchor)."""
    rechase = make_full_rechase(32)
    assert benchmark.pedantic(rechase, rounds=3, iterations=1, warmup_rounds=1) > 0
