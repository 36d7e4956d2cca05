"""The ``apply_updates`` operation: protocol, handler, and server behaviour.

The serving contract for the streaming chase: an update batch against a
document is a pure function of ``(document, updates, queries)`` — a warm
tenant state (checked in by a previous batch) and a cold bootstrap must
produce **byte-identical** responses, and the answers returned alongside
the batch must match a from-scratch ``evaluate_batch`` over the updated
document the response carries.
"""

import pytest

from repro.io.json_io import document_to_dict
from repro.scenarios.figures import example31_setting
from repro.scenarios.flights import flights_instance
from repro.scenarios.service_workload import demo_document
from repro.service.client import ServiceError
from repro.service.protocol import ProtocolError, canonical_bytes, validate_request
from repro.service.server import start_in_thread
from repro.service.tenants import tenant_cache
from repro.service.workers import execute_request

QUERIES = ["f", "f . h"]

UPDATES = [
    {"op": "insert", "relation": "Hotel", "tuple": ["02", "hz"]},
    {"op": "delete", "relation": "Hotel", "tuple": ["01", "hy"]},
]


def streaming_document() -> dict:
    """Example 3.1 as a wire document (inside the incremental fragment)."""
    return document_to_dict(example31_setting(), flights_instance())


def body(document, updates, queries=QUERIES, **extra):
    base = {"document": document, "updates": updates, "queries": queries,
            "star_bound": 2}
    base.update(extra)
    return base


class TestProtocol:
    def _validate(self, params):
        return validate_request({"id": "r1", "op": "apply_updates",
                                 "params": params})

    def test_queries_default_to_empty(self):
        request = self._validate(
            {"document": streaming_document(), "updates": UPDATES}
        )
        assert request.params["queries"] == []
        assert "backend" not in request.params

    def test_updates_are_required(self):
        with pytest.raises(ProtocolError) as excinfo:
            self._validate({"document": streaming_document()})
        assert excinfo.value.code == "bad-request"

    @pytest.mark.parametrize("update", [
        "not-an-object",
        {"op": "upsert", "relation": "Hotel", "tuple": ["02", "hz"]},
        {"op": "insert", "relation": "", "tuple": ["02", "hz"]},
        {"op": "insert", "relation": "Hotel", "tuple": "02"},
        {"op": "insert", "relation": "Hotel", "tuple": ["02"], "extra": 1},
    ])
    def test_malformed_updates_are_rejected(self, update):
        with pytest.raises(ProtocolError) as excinfo:
            self._validate({"document": streaming_document(),
                            "updates": [update]})
        assert excinfo.value.code == "bad-request"

    def test_empty_batch_is_allowed(self):
        request = self._validate(
            {"document": streaming_document(), "updates": []}
        )
        assert request.params["updates"] == []


class TestHandler:
    def test_response_shape_and_counts(self):
        served = execute_request(
            "apply_updates", body(streaming_document(), UPDATES)
        )
        assert "__error__" not in served
        assert served["applied"] == {"deletes": 1, "inserts": 1, "noops": 0}
        assert served["failed"] is False and served["failure"] is None
        assert served["queries"] == QUERIES
        assert len(served["results"]) == len(QUERIES)

    def test_answers_match_evaluate_batch_on_updated_document(self):
        """The piggy-backed answers == a cold evaluate_batch afterwards."""
        served = execute_request(
            "apply_updates", body(streaming_document(), UPDATES)
        )
        batch = execute_request(
            "evaluate_batch",
            {"document": served["document"], "queries": QUERIES,
             "star_bound": 2},
        )
        assert "__error__" not in batch
        for streamed, cold in zip(served["results"], batch["results"]):
            assert streamed["answers"] == cold["answers"]
            assert streamed["no_solution"] == cold["no_solution"]

    def test_warm_state_response_is_byte_identical_to_cold(self):
        """A second tenant replaying the stream reproduces the exact bytes."""
        first = execute_request(
            "apply_updates", body(streaming_document(), UPDATES)
        )
        follow = execute_request(
            "apply_updates",
            body(first["document"],
                 [{"op": "insert", "relation": "Flight",
                   "tuple": ["03", "c2", "c4"]}]),
        )
        stats = tenant_cache().stats()
        assert stats["hits"] == 1  # the follow-up resumed the warm state
        tenant_cache().clear()
        cold_first = execute_request(
            "apply_updates", body(streaming_document(), UPDATES)
        )
        cold_follow = execute_request(
            "apply_updates",
            body(cold_first["document"],
                 [{"op": "insert", "relation": "Flight",
                   "tuple": ["03", "c2", "c4"]}]),
        )
        assert canonical_bytes(first) == canonical_bytes(cold_first)
        assert canonical_bytes(follow) == canonical_bytes(cold_follow)

    def test_noop_batch_returns_the_same_document(self):
        document = streaming_document()
        served = execute_request(
            "apply_updates",
            body(document, [{"op": "delete", "relation": "Hotel",
                             "tuple": ["99", "zz"]}], queries=[]),
        )
        assert served["applied"] == {"deletes": 0, "inserts": 0, "noops": 1}
        assert canonical_bytes(served["document"]) == canonical_bytes(document)

    def test_failure_surfaces_in_the_response(self):
        """Two constants forced together by the egd: the stream reports it."""
        from repro.core.setting import DataExchangeSetting
        from repro.mappings.parser import parse_egd, parse_st_tgd
        from repro.relational.instance import RelationalInstance
        from repro.relational.schema import RelationalSchema

        schema = RelationalSchema()
        schema.declare("R", 2)
        setting = DataExchangeSetting(
            schema, {"h"},
            [parse_st_tgd("R(x, y) -> (x, h, y)", name="R_h")],
            [parse_egd("(x1, h, x3), (x2, h, x3) -> x1 = x2", name="inj")],
            name="fail",
        )
        document = document_to_dict(setting, RelationalInstance(schema))
        served = execute_request(
            "apply_updates",
            body(document,
                 [{"op": "insert", "relation": "R", "tuple": ["a", "u"]},
                  {"op": "insert", "relation": "R", "tuple": ["b", "u"]}],
                 queries=["h"]),
        )
        assert served["failed"] is True
        assert served["failure"] == ["a", "b"]
        for result in served["results"]:
            assert result["no_solution"] is True and result["answers"] == []

    def test_bad_update_is_bad_request_and_state_stays_warm(self):
        document = streaming_document()
        execute_request("apply_updates", body(document, [], queries=[]))
        error = execute_request(
            "apply_updates",
            body(document, [{"op": "insert", "relation": "NoSuch",
                             "tuple": ["a"]}], queries=[]),
        )
        assert error["__error__"]["code"] == "bad-request"
        again = execute_request("apply_updates", body(document, [], queries=[]))
        assert "__error__" not in again
        assert tenant_cache().stats()["hits"] == 2  # error kept it warm

    def test_outside_fragment_documents_are_unsupported(self):
        served = execute_request(
            "apply_updates", body(demo_document(), [], queries=[])
        )
        assert served["__error__"]["code"] == "unsupported"

    def test_streamed_answers(self):
        served = execute_request(
            "apply_updates", body(streaming_document(), UPDATES)
        )
        assert served["results"][0]["answers"] == []  # f hops through nulls
        assert served["results"][1]["answers"] == [
            ["c1", "hx"], ["c3", "hx"], ["c3", "hz"]
        ]


class TestServer:
    """End-to-end over a real server: envelopes, deadlines, cancellation."""

    @pytest.fixture(scope="class")
    def service(self):
        handle = start_in_thread(workers=0)
        yield handle
        handle.close()

    @pytest.fixture()
    def client(self, service):
        with service.client() as connection:
            yield connection

    def test_served_response_equals_direct_execution(self, client):
        request = body(streaming_document(), UPDATES)
        served = client.call("apply_updates", request)
        direct = execute_request("apply_updates", request)
        assert canonical_bytes(served) == canonical_bytes(direct)

    def test_malformed_update_is_rejected_before_scheduling(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.call(
                "apply_updates",
                body(streaming_document(),
                     [{"op": "upsert", "relation": "Hotel", "tuple": []}]),
            )
        assert excinfo.value.code == "bad-request"

    def test_exhausted_deadline_mid_stream(self, client):
        """A zero deadline on an update batch never reaches the tenant."""
        envelope = client.request(
            "apply_updates", body(streaming_document(), UPDATES),
            deadline_s=0.0, no_cache=True,
        )
        assert envelope["ok"] is False
        assert envelope["error"]["code"] == "deadline-exceeded"

    def test_cancel_mid_stream_discards_the_batch_result(self):
        import asyncio
        from concurrent.futures import Future

        from repro.service.cache import ResultCache
        from repro.service.server import ExchangeService

        class FakePool:
            def __init__(self):
                self.futures = []

            def submit(self, op, params):
                future = Future()
                self.futures.append(future)
                return future

            def stats(self):
                return {"mode": "fake", "submitted": len(self.futures),
                        "workers": 0}

        async def scenario():
            pool = FakePool()
            service = ExchangeService(pool, ResultCache(8))
            request = validate_request(
                {"id": "stream1", "op": "apply_updates",
                 "params": body(streaming_document(), UPDATES)}
            )
            task = asyncio.ensure_future(service._compute(request))
            while not pool.futures:
                await asyncio.sleep(0.001)
            future = pool.futures[0]
            future.set_running_or_notify_cancel()
            assert service.jobs.cancel("stream1") == "running"
            future.set_result({"applied": "would-be-result"})
            envelope = await task
            assert envelope["ok"] is False
            assert envelope["error"]["code"] == "cancelled"
            assert len(service.cache) == 0
            assert service.jobs.stats()["cancelled"] == 1

        asyncio.run(scenario())
