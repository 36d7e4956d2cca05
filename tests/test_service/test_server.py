"""End-to-end service tests: a real asyncio server over a real worker pool.

The acceptance property for the serving layer lives here: across the
multi-tenant demo workload, with ``>= 2`` worker processes, every
``exists``/``certain``/``chase``/``evaluate_batch`` response is
**byte-identical** to the direct library call executing the same
normalised request.
"""

import json
import os
import signal
import socket
import threading
import time

import pytest

from repro.scenarios.service_workload import (
    cold_documents,
    demo_document,
    multi_tenant_workload,
)
from repro.service.client import ServiceClient, ServiceError
from repro.service.protocol import canonical_bytes
from repro.service.server import start_in_thread
from repro.service.workers import execute_request

QUERY = "f . f*[h] . f- . (f-)*"


def params(document, **extra):
    base = {"document": document, "star_bound": 2}
    base.update(extra)
    return base


@pytest.fixture(scope="module")
def service():
    """One shared two-worker server for the whole module."""
    handle = start_in_thread(workers=2)
    yield handle
    handle.close()


@pytest.fixture()
def client(service):
    with service.client() as connection:
        yield connection


class TestAcceptance:
    """Service answers == direct library calls, under two worker processes."""

    def test_workload_responses_byte_identical(self, client):
        checked = 0
        for case in multi_tenant_workload(tenants=3, instances_per_tenant=1):
            document = case.document()
            requests = [
                ("exists", params(document)),
                ("chase", {"document": document}),
                ("evaluate_batch", params(document, queries=list(case.queries))),
            ] + [
                ("certain", params(document, query=query, pair=None))
                for query in case.queries
            ]
            for op, body in requests:
                served = client.call(op, body)
                direct = execute_request(op, body)
                assert "__error__" not in direct
                assert canonical_bytes(served) == canonical_bytes(direct), (
                    case.name, op,
                )
                checked += 1
        assert checked == 3 * 6

    def test_concurrent_clients_get_correct_answers(self, service):
        """Distinct universes in flight across both workers stay correct."""
        documents = cold_documents(6, seed=23)
        expected = [
            execute_request("certain", params(doc, query=QUERY, pair=None))
            for doc in documents
        ]
        results: list = [None] * len(documents)

        def worker(index: int) -> None:
            with service.client() as connection:
                results[index] = connection.call(
                    "certain", params(documents[index], query=QUERY, pair=None)
                )

        threads = [
            threading.Thread(target=worker, args=(index,))
            for index in range(len(documents))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        for index, (served, direct) in enumerate(zip(results, expected)):
            assert served is not None, f"client {index} never completed"
            assert canonical_bytes(served) == canonical_bytes(direct)


class TestCaching:
    def test_repeat_request_is_served_from_cache(self, client):
        body = params(demo_document(), query=QUERY, pair=None)
        first = client.request("certain", body)
        second = client.request("certain", body)
        assert first["ok"] and second["ok"]
        assert first["result"] == second["result"]
        assert second["cached"] is True

    def test_no_cache_bypasses_the_result_cache(self, client):
        body = params(demo_document(), query=QUERY, pair=None)
        client.request("certain", body)  # ensure the entry exists
        bypassed = client.request("certain", body, no_cache=True)
        assert bypassed["ok"] and bypassed["cached"] is False


class TestControlOps:
    def test_ping(self, client):
        assert client.ping() == {"pong": True, "protocol": 1}

    def test_stats_snapshot_shape(self, client):
        stats = client.stats()
        assert stats["pool"]["mode"] == "process"
        assert stats["pool"]["workers"] == 2
        assert set(stats["jobs"]) == {
            "active", "admitted", "cancelled", "completed", "expired", "failed",
        }
        assert stats["cache"]["limit"] >= 1

    def test_cancel_unknown_job(self, client):
        assert client.cancel("ghost") == {"job": "ghost", "outcome": "not-found"}


class TestErrorEnvelopes:
    def test_bad_json_line(self, service):
        with socket.create_connection(
            (service.host, service.port), timeout=30
        ) as raw:
            raw.sendall(b"this is not json\n")
            envelope = json.loads(raw.makefile("rb").readline())
        assert envelope["ok"] is False
        assert envelope["id"] is None
        assert envelope["error"]["code"] == "bad-json"

    def test_unknown_op(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.call("frobnicate")
        assert excinfo.value.code == "unknown-op"

    def test_schema_violation(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.call("certain", {"document": demo_document()})  # no query
        assert excinfo.value.code == "bad-request"

    def test_worker_error_becomes_envelope(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.call("certain", params(demo_document(), query="f . (", pair=None))
        assert excinfo.value.code == "bad-request"

    def test_exhausted_deadline_never_schedules(self, client):
        envelope = client.request(
            "exists", params(demo_document()), deadline_s=0.0, no_cache=True
        )
        assert envelope["ok"] is False
        assert envelope["error"]["code"] == "deadline-exceeded"

    @pytest.mark.parametrize(
        "name, value",
        [("kernel", "vector"), ("engine", "compiled"), ("solver", "cdcl"),
         ("backend", "csr")],
    )
    def test_retired_kernel_param_round_trip(self, client, name, value):
        """A request still carrying ``params.kernel``, ``params.engine``,
        ``params.solver`` or ``params.backend`` gets the typed bad-request
        envelope; the same connection then serves normally."""
        with pytest.raises(ServiceError) as excinfo:
            client.call("exists", {**params(demo_document()), name: value})
        assert excinfo.value.code == "bad-request"
        assert f"does not accept params [{name!r}]" in excinfo.value.message
        result = client.call("exists", params(demo_document()))
        assert result == execute_request("exists", params(demo_document()))

    def test_connection_survives_errors(self, client):
        """One connection: error envelopes do not poison the stream."""
        with pytest.raises(ServiceError):
            client.call("frobnicate")
        assert client.ping()["pong"] is True


class TestDeadWorker:
    """A worker killed under the server: envelopes, not a closed connection."""

    def test_submit_to_a_broken_pool_answers_with_an_envelope(self):
        handle = start_in_thread(workers=1)
        try:
            executor = handle.pool._executor
            [process] = executor._processes.values()
            os.kill(process.pid, signal.SIGKILL)
            process.join(timeout=30)
            deadline = time.monotonic() + 30
            while not executor._broken and time.monotonic() < deadline:
                time.sleep(0.01)
            assert executor._broken  # the next submit raises BrokenProcessPool
            with handle.client() as connection:
                envelope = connection.request(
                    "exists", params(demo_document()), no_cache=True
                )
                assert envelope["ok"] is False
                assert envelope["error"]["code"] == "internal-error"
                assert "BrokenProcessPool" in envelope["error"]["message"]
                assert "metrics" in connection.metrics()
        finally:
            handle.close()


class TestCancelWhileRunning:
    """cancel after a worker picked the job up: result discarded, not cached."""

    class FakePool:
        def __init__(self):
            self.futures = []

        def submit(self, op, params):
            from concurrent.futures import Future

            future = Future()
            self.futures.append(future)
            return future

        def stats(self):
            return {"mode": "fake", "submitted": len(self.futures), "workers": 0}

    def test_running_job_cancel_discards_result(self):
        import asyncio

        from repro.service.cache import ResultCache
        from repro.service.protocol import validate_request
        from repro.service.server import ExchangeService

        async def scenario():
            pool = self.FakePool()
            service = ExchangeService(pool, ResultCache(8))
            request = validate_request(
                {"id": "slow1", "op": "chase",
                 "params": {"document": demo_document()}}
            )
            task = asyncio.ensure_future(service._compute(request))
            while not pool.futures:  # the job reaches the pool
                await asyncio.sleep(0.001)
            future = pool.futures[0]
            future.set_running_or_notify_cancel()  # a worker picked it up
            assert service.jobs.cancel("slow1") == "running"
            future.set_result({"pattern": "would-be-result"})
            envelope = await task
            assert envelope["ok"] is False
            assert envelope["error"]["code"] == "cancelled"
            assert len(service.cache) == 0  # the result was never cached
            assert service.jobs.stats()["cancelled"] == 1

        asyncio.run(scenario())


class TestInlineLaneAndShutdown:
    """The --workers 0 lane plus the shutdown handshake (own tiny server)."""

    def test_inline_mode_and_shutdown(self):
        handle = start_in_thread(workers=0)
        try:
            with handle.client() as connection:
                served = connection.call(
                    "certain", params(demo_document(), query=QUERY, pair=None)
                )
                direct = execute_request(
                    "certain", params(demo_document(), query=QUERY, pair=None)
                )
                assert canonical_bytes(served) == canonical_bytes(direct)
                assert connection.stats()["pool"]["mode"] == "inline"
                assert connection.shutdown() == {"stopping": True}
            handle.thread.join(timeout=30)
            assert not handle.thread.is_alive()
        finally:
            handle.close()
