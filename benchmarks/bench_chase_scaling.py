"""E13 (ours) — chase scaling on random Flight/Hotel instances.

Sweeps growing Flight/Hotel workloads through the three chase engines and
reports step counts (triggers, merges) and per-size wall clock.  The
expected shape: triggers grow with |Hotel| (one per flight-stop pair),
merges grow with hotel sharing, and everything stays polynomial — the
chases are PTIME; only existence/certainty are hard.

``test_relational_chase_work_counters`` gates the §3.1 chase on one fixed
medlit tenant with host-independent counts only: the chased graph is
written once (its journal is its final edge list), builds neither a
derived edge index nor a backward index, and every ``chase.*`` counter
equals a recorded constant.  Its wall clock and layer split are
printed, not gated; only the share of the chase the three layer spans
cover is (at least 90%).
"""

import random
import time

from conftest import report

from repro.chase.egd_chase import chase_with_egds
from repro.chase.pattern_chase import chase_pattern
from repro.chase.relational_chase import chase_relational
from repro.chase.sameas_chase import solve_with_sameas
from repro.scenarios.flights import hotel_egd, hotel_sameas, flights_st_tgd
from repro.scenarios.generators import random_flights_instance
from repro.scenarios.scale import GeneratorConfig, generate_instance, scale_setting
from repro.telemetry import span

SIZES = ((5, 4, 3), (10, 6, 4), (20, 8, 5), (40, 12, 8))


def run_sweep():
    rows = []
    for flights, cities, hotels in SIZES:
        instance = random_flights_instance(
            flights, cities=cities, hotels=hotels, rng=random.Random(flights)
        )
        start = time.perf_counter()
        plain = chase_pattern([flights_st_tgd()], instance, alphabet={"f", "h"})
        egd = chase_with_egds(
            [flights_st_tgd()], [hotel_egd()], instance, alphabet={"f", "h"}
        )
        sameas = solve_with_sameas(
            [flights_st_tgd()], [hotel_sameas()], instance, alphabet={"f", "h"}
        )
        elapsed_ms = (time.perf_counter() - start) * 1000
        rows.append(
            (
                f"{flights} flights / {hotels} hotels",
                "polynomial growth",
                f"{plain.stats.st_applications} triggers, "
                f"{egd.stats.null_merges} merges, "
                f"{sameas.stats.sameas_edges_added} sameAs, "
                f"{egd.stats.rounds + sameas.stats.rounds} rounds, "
                f"{egd.stats.index_hits + sameas.stats.index_hits} idx hits, "
                f"{elapsed_ms:.0f} ms",
            )
        )
        assert egd.succeeded
    return rows


def test_chase_scaling(benchmark):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    report("E13 / chase scaling (Flight/Hotel family)", rows)
    assert len(rows) == len(SIZES)


MEDLIT_TENANT = GeneratorConfig(family="medlit", nodes=800, seed=1)
MEDLIT_COUNTERS = {
    "st_applications": 2466,
    "egd_firings": 670,
    "null_merges": 670,
    "sameas_edges_added": 0,
    "tgd_applications": 0,
    "rounds": 671,
    "index_hits": 0,
    "triggers_fired": 3136,
}
"""The chase counters of ``MEDLIT_TENANT``, recorded from the sequential
edge-at-a-time chase (``tests/oracles/relational_chase.py``)."""


def test_relational_chase_work_counters():
    setting = scale_setting("medlit")
    instance = generate_instance(MEDLIT_TENANT)
    with span("bench.chase") as root:
        start = time.perf_counter()
        result = chase_relational(
            setting.st_tgds, list(setting.egds()), instance,
            alphabet=setting.alphabet,
        )
        elapsed_ms = (time.perf_counter() - start) * 1000
    graph = result.expect_graph()
    layers = {}
    chase_span = root.children[0] if root.children else None
    if chase_span is not None:  # telemetry on: report the layer split
        for child in chase_span.children:
            layers[child.name] = layers.get(child.name, 0.0) + child.duration_s
    covered = sum(layers.values()) / chase_span.duration_s if layers else None
    report(
        "E13 / relational chase work counters (medlit 800, seed 1)",
        [
            ("chase counters", "recorded", "equal" if result.stats.as_dict()
             == MEDLIT_COUNTERS else result.stats.as_dict()),
            ("graph writes", "version == |E|",
             f"{graph.version} journal / {graph.edge_count()} edges"),
            ("wall clock (ungated)", "—", f"{elapsed_ms:.1f} ms"),
            ("layer split (ungated)", "st / egd / build",
             " / ".join(f"{layers.get(name, 0.0) * 1000:.1f}"
                        for name in ("chase.st", "chase.egd", "chase.build"))
             + (f" ms, {covered:.0%} covered" if covered is not None else "")),
        ],
    )
    assert result.succeeded
    assert result.stats.as_dict() == MEDLIT_COUNTERS
    assert (graph.node_count(), graph.edge_count()) == (1151, 4240)
    assert graph.version == graph.edge_count()
    # The chase writes adjacency and the triple journal only: the derived
    # Edge set and incident-edge maps wait for a reader that needs them.
    assert graph._edges is None, (
        "the chased graph built its Edge set / incident-edge maps"
    )
    # It bulk-loads the forward adjacency only: a label's backward index
    # waits for the first backward read.
    assert not graph._bwd, "the chased graph built backward indexes"
    # The three layer spans account for the chase (a ratio, not a time).
    assert covered is None or covered >= 0.9
