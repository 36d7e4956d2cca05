"""The introspection plane: traces across the pool, metrics ops, HTTP scrape.

The PR 9 acceptance test lives here: a round trip against a live server
with ``--metrics-port`` yields a stitched request trace (queue wait,
worker dispatch, engine/chase/solver children with nonzero durations) and
a valid Prometheus scrape whose core series are present and monotone —
with answers byte-identical to direct library calls either way.
"""

import http.client
import json
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro import telemetry
from repro.io.json_io import document_to_dict
from repro.scenarios.figures import example31_setting
from repro.scenarios.flights import flights_instance
from repro.service.client import ServiceError
from repro.service.protocol import canonical_bytes, validate_request, ProtocolError
from repro.service.server import start_in_thread
from repro.service.workers import (
    _initialize_worker,
    execute_request,
    traced_execute_request,
)
from repro.telemetry import span_from_dict, stitch_request_trace

STAR_QUERY = "f . (f)*"   # no SAT encoding: exercises engine.enumerate
WORD_QUERY = "f . h"      # SAT-encodable word: exercises the solver pipeline


def ex31_document() -> dict:
    return document_to_dict(example31_setting(), flights_instance())


def params(document, **extra):
    base = {"document": document, "star_bound": 2}
    base.update(extra)
    return base


def span_names(node: dict) -> set[str]:
    names = {node["name"]}
    for child in node.get("children", ()):
        names |= span_names(child)
    return names


def find_spans(node: dict, name: str) -> list[dict]:
    found = [node] if node["name"] == name else []
    for child in node.get("children", ()):
        found.extend(find_spans(child, name))
    return found


class TestTraceAcrossProcessPool:
    """The worker envelope survives a real ProcessPoolExecutor round trip."""

    @pytest.fixture(scope="class")
    def pool(self):
        with ProcessPoolExecutor(
            max_workers=1, initializer=_initialize_worker, initargs=(None, True)
        ) as executor:
            yield executor

    def test_span_tree_survives_pickling(self, pool):
        import time

        submit_ts = time.time()
        envelope = pool.submit(
            traced_execute_request,
            "certain",
            params(ex31_document(), query=WORD_QUERY, pair=["c1", "hx"]),
        ).result(timeout=120)
        assert envelope["__worker__"] == 1
        assert "__error__" not in envelope["value"]
        sidecar = envelope["telemetry"]
        assert sidecar is not None
        root = sidecar["span"]
        assert root["name"] == "worker.execute"
        assert root["attrs"]["op"] == "certain"
        assert root["duration_s"] > 0
        # The tree is plain JSON after the pickle round trip, and the
        # rebuilt Span preserves it exactly.
        assert json.loads(json.dumps(root)) == root
        assert span_from_dict(root).to_dict() == root
        # Queue-wait attribution: the worker's wall start is after the
        # server-side submit instant, and stitching reports the gap.
        assert root["start_ts"] >= submit_ts
        trace = stitch_request_trace("r1", "certain", submit_ts,
                                     root["duration_s"], root)
        queue_wait = trace["children"][0]
        assert queue_wait["name"] == "service.queue_wait"
        assert queue_wait["duration_s"] == pytest.approx(
            root["start_ts"] - submit_ts
        )

    def test_solver_spans_nested_under_worker_execute(self, pool):
        envelope = pool.submit(
            traced_execute_request,
            "certain",
            params(ex31_document(), query=WORD_QUERY, pair=["c1", "hx"]),
        ).result(timeout=120)
        names = span_names(envelope["telemetry"]["span"])
        assert "solver.solve" in names

    def test_counter_deltas_ship_in_the_sidecar(self, pool):
        envelope = pool.submit(
            traced_execute_request, "chase", {"document": ex31_document()}
        ).result(timeout=120)
        deltas = envelope["telemetry"]["metrics"]
        assert deltas.get("chase.st_applications", 0) > 0
        assert all(v > 0 for v in deltas.values())

    def test_value_is_byte_identical_to_execute_request(self, pool):
        body = params(ex31_document(), query=STAR_QUERY, pair=None)
        envelope = pool.submit(
            traced_execute_request, "certain", body
        ).result(timeout=120)
        assert canonical_bytes(envelope["value"]) == canonical_bytes(
            execute_request("certain", body)
        )

    def test_disabled_worker_ships_no_sidecar(self):
        with ProcessPoolExecutor(
            max_workers=1, initializer=_initialize_worker, initargs=(None, False)
        ) as executor:
            envelope = executor.submit(
                traced_execute_request, "chase", {"document": ex31_document()}
            ).result(timeout=120)
        assert envelope["telemetry"] is None
        assert "__error__" not in envelope["value"]


class TestProtocolValidation:
    """metrics/traces requests validate like every other op."""

    def test_metrics_takes_no_params(self):
        request = validate_request({"id": "r1", "op": "metrics", "params": {}})
        assert request.op == "metrics"
        with pytest.raises(ProtocolError) as error:
            validate_request(
                {"id": "r1", "op": "metrics", "params": {"verbose": True}}
            )
        assert error.value.code == "bad-request"

    def test_traces_limit_must_be_positive_int(self):
        request = validate_request(
            {"id": "r1", "op": "traces", "params": {"limit": 3, "slow": True}}
        )
        assert request.params["limit"] == 3 and request.params["slow"] is True
        defaulted = validate_request({"id": "r1", "op": "traces", "params": {}})
        assert defaulted.params["limit"] is None
        assert defaulted.params["slow"] is False
        for bad in ({"limit": 0}, {"limit": -1}, {"limit": "5"},
                    {"limit": True}, {"slow": "yes"}, {"slow": 1}):
            with pytest.raises(ProtocolError) as error:
                validate_request({"id": "r1", "op": "traces", "params": bad})
            assert error.value.code == "bad-request", bad


class TestLiveIntrospectionPlane:
    """The acceptance round trip against a real served metrics plane."""

    @pytest.fixture(scope="class")
    def service(self):
        # The programmatic override beats REPRO_TELEMETRY=off and is
        # replayed into the worker pool, so this suite is meaningful on
        # the telemetry-disabled CI leg too.
        telemetry.set_enabled(True)
        handle = start_in_thread(workers=1, metrics_port=0)
        yield handle
        handle.close()
        telemetry.set_enabled(None)

    @pytest.fixture(scope="class")
    def warmed(self, service):
        """Run the workload once; later tests read the recorded telemetry."""
        document = ex31_document()
        with service.client() as client:
            star = client.certain(document, STAR_QUERY)
            word = client.certain(document, WORD_QUERY, pair=["c1", "hx"])
        return {"star": star, "word": word}

    def test_answers_byte_identical_to_direct_calls(self, warmed):
        direct_star = execute_request(
            "certain", params(ex31_document(), query=STAR_QUERY, pair=None)
        )
        assert canonical_bytes(warmed["star"]) == canonical_bytes(direct_star)

    def test_stitched_trace_has_the_full_span_taxonomy(self, service, warmed):
        with service.client() as client:
            body = client.traces()
        assert body["stats"]["recorded"] >= 2
        traces = body["traces"]
        assert all(t["name"] == "service.request" for t in traces)
        all_names = set()
        for trace in traces:
            children = [c["name"] for c in trace.get("children", ())]
            if children:  # cached replays carry no worker subtree
                assert children[0] == "service.queue_wait"
                assert "worker.execute" in children
            all_names |= span_names(trace)
        # The taxonomy: engine/chase/solver children all present across
        # the star + word workload, with nonzero measured durations.  The
        # star query is in the Section 3.1 fragment, so it chases the
        # relational universal solution and naively evaluates on it; the
        # word pair check still runs the chase-pattern + SAT machinery.
        assert {
            "engine.evaluate",
            "chase.relational",
            "chase.pattern",
            "solver.solve",
        } <= all_names
        for name in ("worker.execute", "engine.evaluate", "solver.solve"):
            spans = [s for t in traces for s in find_spans(t, name)]
            assert spans, name
            assert all(s["duration_s"] > 0 for s in spans), name

    def test_metrics_op_reports_the_merged_registry(self, service, warmed):
        with service.client() as client:
            body = client.metrics()
        assert body["enabled"] is True
        counters = body["metrics"]["counters"]
        assert counters["service.requests"] >= 2
        # Worker-side deltas merged into the server registry.
        assert counters.get("chase.st_applications", 0) > 0
        assert counters.get("solver.solves", 0) > 0
        assert "service.request_seconds" in body["metrics"]["histograms"]
        assert body["service"]["pool"]["mode"] == "process"
        assert body["traces"]["recorded"] >= 2

    def test_malformed_introspection_params_keep_the_tenant_warm(
        self, service, warmed
    ):
        with service.client() as client:
            for op, bad in (
                ("traces", {"limit": 0}),
                ("traces", {"slow": "yes"}),
                ("metrics", {"verbose": True}),
            ):
                with pytest.raises(ServiceError) as error:
                    client.call(op, bad)
                assert error.value.code == "bad-request", (op, bad)
            # Same connection, same tenant: still serving, still correct.
            again = client.certain(ex31_document(), STAR_QUERY)
        assert canonical_bytes(again) == canonical_bytes(warmed["star"])

    def scrape(self, service, path: str) -> tuple[int, str]:
        host, port = service.metrics_address
        connection = http.client.HTTPConnection(host, port, timeout=30)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, response.read().decode("utf-8")
        finally:
            connection.close()

    def test_healthz(self, service):
        status, body = self.scrape(service, "/healthz")
        assert status == 200 and body == "ok\n"

    def test_unknown_path_is_404(self, service):
        status, _ = self.scrape(service, "/nope")
        assert status == 404

    def test_prometheus_scrape_core_series_present_and_monotone(
        self, service, warmed
    ):
        def parse(body: str) -> dict[str, float]:
            samples = {}
            for line in body.splitlines():
                if line.startswith("#") or not line.strip():
                    continue
                name, value = line.rsplit(" ", 1)
                samples[name] = float(value)
            return samples

        status, first_body = self.scrape(service, "/metrics")
        assert status == 200
        first = parse(first_body)
        for series in (
            "repro_service_requests_total",
            "repro_chase_st_applications_total",
            "repro_solver_solves_total",
            "repro_engine_automata_compiled_total",
            "repro_service_cache_entries",
            "repro_service_request_seconds_count",
        ):
            assert series in first, series
        # More work (a fresh pair, so no cache short-circuit), then a
        # second scrape: counters must be monotone.
        with service.client() as client:
            client.certain(ex31_document(), WORD_QUERY, pair=["c1", "hy"])
        second = parse(self.scrape(service, "/metrics")[1])
        counters = [n for n in first if n.endswith("_total")]
        assert counters
        for name in counters:
            assert second.get(name, 0) >= first[name], name
        assert second["repro_service_requests_total"] > first[
            "repro_service_requests_total"
        ]
