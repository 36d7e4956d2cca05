"""The metrics registry: instruments, exports, and stats-dataclass folding."""

import threading

import pytest

from repro.telemetry import (
    Counter,
    Gauge,
    Histogram,
    Registry,
    enabled,
    enabled_override,
    fold_stats,
    format_value,
    get_registry,
    inc,
    observe,
    prometheus_name,
    set_enabled,
    set_gauge,
    stats_as_dict,
)


@pytest.fixture(autouse=True)
def _clean_telemetry():
    """Every test starts enabled on a fresh process-wide registry."""
    set_enabled(True)
    get_registry().reset()
    yield
    get_registry().reset()
    set_enabled(None)


class TestEnablement:
    def test_override_wins_over_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "off")
        set_enabled(True)
        assert enabled() is True and enabled_override() is True
        set_enabled(None)
        assert enabled() is False and enabled_override() is None

    def test_off_values(self, monkeypatch):
        for value in ("off", "0", "false", "no", "disabled", "OFF"):
            monkeypatch.setenv("REPRO_TELEMETRY", value)
            set_enabled(None)  # drop the cached env read
            assert enabled() is False, value
        monkeypatch.setenv("REPRO_TELEMETRY", "on")
        set_enabled(None)
        assert enabled() is True

    def test_disabled_helpers_write_nothing(self):
        set_enabled(False)
        inc("demo.hits")
        observe("demo.seconds", 0.5)
        set_gauge("demo.live", 3)
        document = get_registry().to_dict()
        assert document == {"counters": {}, "gauges": {}, "histograms": {}}


class TestInstruments:
    def test_counter_monotone(self):
        counter = Counter("demo.total")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_rejects_non_numeric(self):
        gauge = Gauge("demo.live")
        assert gauge.set(2.5) == 2.5
        for bad in ("3", [], None, True):
            with pytest.raises(TypeError):
                gauge.set(bad)

    def test_histogram_cumulative_buckets(self):
        hist = Histogram("demo.seconds", buckets=(0.1, 1.0))
        for sample in (0.05, 0.5, 3.0):
            hist.observe(sample)
        snap = hist.snapshot()
        assert snap["buckets"] == [[0.1, 1], [1.0, 2]]
        assert snap["count"] == 3
        assert snap["sum"] == pytest.approx(3.55)

    def test_histogram_needs_buckets(self):
        with pytest.raises(ValueError):
            Histogram("demo.seconds", buckets=())

    def test_counter_thread_safety(self):
        counter = Counter("demo.total")

        def spin():
            for _ in range(10_000):
                counter.inc()

        threads = [threading.Thread(target=spin) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 40_000


class TestRegistry:
    def test_get_or_create_keeps_identity(self):
        reg = Registry()
        assert reg.counter("a.b") is reg.counter("a.b")

    def test_kind_collision_rejected(self):
        reg = Registry()
        reg.counter("a.b")
        with pytest.raises(ValueError):
            reg.gauge("a.b")
        with pytest.raises(ValueError):
            reg.histogram("a.b")

    def test_to_dict_shape(self):
        reg = Registry()
        reg.counter("z.hits").inc(2)
        reg.gauge("a.live").set(1)
        reg.histogram("m.seconds", buckets=(1.0,)).observe(0.5)
        document = reg.to_dict()
        assert document["counters"] == {"z.hits": 2}
        assert document["gauges"] == {"a.live": 1}
        assert document["histograms"]["m.seconds"]["count"] == 1

    def test_prometheus_rendering(self):
        reg = Registry()
        reg.counter("solver.conflicts").inc(7)
        reg.gauge("service.active_jobs").set(2)
        reg.histogram("service.request_seconds", buckets=(0.1, 1.0)).observe(0.25)
        body = reg.render_prometheus()
        assert "# TYPE repro_solver_conflicts_total counter" in body
        assert "repro_solver_conflicts_total 7" in body
        assert "repro_service_active_jobs 2" in body
        assert 'repro_service_request_seconds_bucket{le="1"} 1' in body
        assert 'repro_service_request_seconds_bucket{le="+Inf"} 1' in body
        assert "repro_service_request_seconds_sum 0.25" in body
        assert "repro_service_request_seconds_count 1" in body
        assert body.endswith("\n")

    def test_export_merge_round_trip_is_monotone(self):
        worker, server = Registry(), Registry()
        worker.counter("chase.st_applications").inc(3)
        first = worker.export_deltas()
        assert first == {"chase.st_applications": 3}
        # Nothing new: the second export must be empty, not a re-send.
        assert worker.export_deltas() == {}
        worker.counter("chase.st_applications").inc(2)
        second = worker.export_deltas()
        assert second == {"chase.st_applications": 2}
        for deltas in (first, second):
            server.merge_deltas(deltas)
        assert server.counter("chase.st_applications").value == 5

    def test_merge_skips_malformed_deltas(self):
        server = Registry()
        server.merge_deltas(
            {"a.ok": 2, "a.bool": True, "a.str": "9", "a.neg": -5, "a.none": None}
        )
        assert server.snapshot_counters() == {"a.ok": 2}

    def test_reset_bumps_generation(self):
        reg = Registry()
        generation = reg.generation
        reg.counter("a.b").inc()
        reg.reset()
        assert reg.generation == generation + 1
        assert reg.snapshot_counters() == {}


class TestFoldStats:
    def test_folds_chase_stats_by_delta(self):
        from repro.chase.result import ChaseStats

        stats = ChaseStats(st_applications=2, egd_firings=1)
        fold_stats("chase", stats)
        reg = get_registry()
        assert reg.counter("chase.st_applications").value == 2
        assert reg.counter("chase.triggers_fired").value == 3
        # Cumulative object: re-folding adds only the movement.
        stats.st_applications = 5
        fold_stats("chase", stats)
        assert reg.counter("chase.st_applications").value == 5
        assert reg.counter("chase.triggers_fired").value == 6

    def test_refold_without_change_adds_nothing(self):
        from repro.solver.cdcl import CDCLStats

        stats = CDCLStats(conflicts=4)
        fold_stats("solver", stats)
        fold_stats("solver", stats)
        assert get_registry().counter("solver.conflicts").value == 4

    def test_fold_survives_registry_reset(self):
        """Cached counter handles must re-resolve after a reset."""
        from oracles import SolverStats

        stats = SolverStats(decisions=2)
        fold_stats("solver", stats)
        get_registry().reset()
        stats.decisions = 6
        fold_stats("solver", stats)
        assert get_registry().counter("solver.decisions").value == 4

    def test_all_five_stats_classes_fold(self):
        from repro.chase.result import ChaseStats
        from repro.engine.incremental import UpdateStats
        from repro.engine.query import EvalStats
        from repro.solver.cdcl import CDCLStats
        from oracles import SolverStats

        for prefix, stats in (
            ("chase", ChaseStats(st_applications=1)),
            ("engine", EvalStats(graph_cache_hits=1)),
            ("update", UpdateStats(batches=1)),
            ("solver", CDCLStats(conflicts=1)),
            ("solver_dpll", SolverStats(decisions=1)),
        ):
            fold_stats(prefix, stats)
        counters = get_registry().snapshot_counters()
        assert counters["chase.st_applications"] == 1
        assert counters["engine.graph_cache_hits"] == 1
        assert counters["update.batches"] == 1
        assert counters["solver.conflicts"] == 1
        assert counters["solver_dpll.decisions"] == 1

    def test_fold_disabled_is_a_noop(self):
        from repro.chase.result import ChaseStats

        set_enabled(False)
        fold_stats("chase", ChaseStats(st_applications=2))
        assert get_registry().snapshot_counters() == {}

    def test_stats_as_dict_rejects_plain_objects(self):
        with pytest.raises(TypeError):
            stats_as_dict(object())


class TestNameMangling:
    def test_prometheus_name(self):
        assert prometheus_name("solver.conflicts") == "repro_solver_conflicts"
        assert prometheus_name("a-b.c d") == "repro_a_b_c_d"

    def test_format_value(self):
        assert format_value(3.0) == "3"
        assert format_value(3) == "3"
        assert format_value(0.25) == "0.25"
