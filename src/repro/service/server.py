"""The asyncio JSON-lines server: accept → validate → cache → worker → respond.

One connection handler per client; requests on a connection are processed
in order (a client that wants concurrency opens several connections or
uses ``evaluate_batch``), while connections themselves are served
concurrently and fan out over the worker pool.  The request lifecycle:

1. **accept** a line (bounded by the protocol's line limit);
2. **validate** it into a normalised :class:`~repro.service.protocol.
   Request` — malformed input is answered with an error envelope without
   touching the pool;
3. **cache probe**: a compute request whose fingerprint is present in the
   :class:`~repro.service.cache.ResultCache` is answered immediately with
   ``"cached": true``;
4. **worker**: otherwise the request is admitted to the
   :class:`~repro.service.jobs.JobRegistry` and executed on the
   :class:`~repro.service.workers.WorkerPool`, bounded by its deadline;
5. **respond** with the success or error envelope, and cache the result.

Control operations (``ping``/``stats``/``shutdown``/``cancel``) are
answered inline by the server itself.  ``shutdown`` responds first, then
stops accepting and unblocks :func:`run_server`.

Two entry points: :func:`run_server` (blocking, the ``repro serve`` CLI)
and :func:`start_in_thread` (background thread + handle, used by tests,
benchmarks, and :mod:`examples.service_client`).
"""

from __future__ import annotations

import asyncio
import os
import threading
import time
from concurrent.futures import BrokenExecutor
from typing import Callable

from repro import telemetry
from repro.telemetry import (
    TraceBuffer,
    slow_threshold,
    stitch_request_trace,
)
from repro.service.cache import DEFAULT_LIMIT, ResultCache
from repro.service.jobs import DuplicateJobError, JobRegistry
from repro.service.protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    Request,
    decode_line,
    encode_line,
    error_envelope,
    ok_envelope,
    validate_request,
)
from repro.service.workers import WorkerPool


class ExchangeService:
    """The protocol state machine, independent of any particular transport."""

    def __init__(
        self,
        pool: WorkerPool,
        cache: ResultCache | None = None,
        jobs: JobRegistry | None = None,
    ):
        self.pool = pool
        self.cache = cache
        self.jobs = jobs if jobs is not None else JobRegistry()
        self.connections = 0
        self.requests = 0
        self.traces = TraceBuffer()
        self._server: asyncio.AbstractServer | None = None
        self._metrics_server: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._shutdown: asyncio.Event | None = None
        self.address: tuple[str, int] | None = None
        self.metrics_address: tuple[str, int] | None = None

    # ------------------------------------------------------------------ #
    # Request handling.
    # ------------------------------------------------------------------ #

    async def handle_line(self, line: bytes) -> dict:
        """Process one wire line into one response envelope."""
        try:
            data = decode_line(line)
        except ProtocolError as error:
            return error_envelope(None, error.code, error.message)
        echo_id = data.get("id") if isinstance(data, dict) else None
        if not isinstance(echo_id, str):
            echo_id = None
        try:
            request = validate_request(data)
        except ProtocolError as error:
            return error_envelope(echo_id, error.code, error.message)
        self.requests += 1
        if request.op == "ping":
            return ok_envelope(request.id, {"pong": True, "protocol": PROTOCOL_VERSION})
        if request.op == "stats":
            return ok_envelope(request.id, self.snapshot())
        if request.op == "shutdown":
            self.request_shutdown()
            return ok_envelope(request.id, {"stopping": True})
        if request.op == "cancel":
            outcome = self.jobs.cancel(request.params["job"])
            return ok_envelope(
                request.id, {"job": request.params["job"], "outcome": outcome}
            )
        if request.op == "metrics":
            return ok_envelope(request.id, self.metrics_snapshot())
        if request.op == "traces":
            return ok_envelope(
                request.id,
                {
                    "stats": self.traces.stats(),
                    "traces": self.traces.snapshot(
                        limit=request.params["limit"],
                        slow=request.params["slow"],
                    ),
                },
            )
        return await self._compute(request)

    async def _compute(self, request: Request) -> dict:
        fingerprint = request.fingerprint()
        collect = telemetry.enabled()
        if collect:
            telemetry.inc("service.requests")
        use_cache = self.cache is not None and not request.no_cache
        if use_cache:
            hit, value = self.cache.get(fingerprint)  # type: ignore[union-attr]
            if hit:
                if collect:
                    telemetry.inc("service.cache_hits")
                return ok_envelope(request.id, value, cached=True)
            if collect:
                telemetry.inc("service.cache_misses")
        if request.deadline_s is not None and request.deadline_s <= 0:
            return error_envelope(
                request.id,
                "deadline-exceeded",
                "deadline elapsed before the job could be scheduled",
            )
        submit_ts = time.time()
        started = time.perf_counter()
        try:
            # Admission precedes submission: a duplicate id is rejected
            # before it can occupy a worker slot.
            job = self.jobs.admit(
                request.id,
                request.op,
                fingerprint,
                lambda: self.pool.submit(request.op, request.params),
                request.deadline_s,
            )
        except DuplicateJobError:
            return error_envelope(
                request.id, "duplicate-id", f"request id {request.id!r} is in flight"
            )
        except BrokenExecutor as error:  # a worker died: the pool takes no job
            return error_envelope(
                request.id, "internal-error", f"{type(error).__name__}: {error}"
            )
        future = job.future
        try:
            result = await asyncio.wait_for(
                asyncio.wrap_future(future), timeout=job.remaining()
            )
        except asyncio.TimeoutError:
            future.cancel()  # best-effort: de-queues the job if still pending
            self.jobs.finish(job, "expired")
            return error_envelope(
                request.id,
                "deadline-exceeded",
                f"job exceeded its {request.deadline_s:.3f}s budget",
            )
        except asyncio.CancelledError:
            if future.cancelled():
                # A `cancel` operation revoked the queued job.
                self.jobs.finish(job, "cancelled")
                return error_envelope(
                    request.id, "cancelled", "job cancelled before completion"
                )
            self.jobs.finish(job, "failed")
            raise  # the server itself is being torn down
        except Exception as error:  # noqa: BLE001 - e.g. BrokenProcessPool
            self.jobs.finish(job, "failed")
            return error_envelope(
                request.id, "internal-error", f"{type(error).__name__}: {error}"
            )
        sidecar = None
        if isinstance(result, dict) and result.get("__worker__") == 1:
            # The pool wraps every result in the telemetry envelope;
            # unwrap before caching/responding so wire responses stay
            # byte-identical to direct execute_request calls.
            sidecar = result.get("telemetry")
            result = result.get("value")
        if collect:
            self._record_request(
                request, submit_ts, time.perf_counter() - started, sidecar
            )
        if job.cancel_requested:
            # A `cancel` op hit after a worker picked the job up: the
            # computation finished, but the documented contract is that a
            # cancelled job's result is discarded (and never cached).
            self.jobs.finish(job, "cancelled")
            return error_envelope(
                request.id, "cancelled", "job cancelled while running"
            )
        if isinstance(result, dict) and "__error__" in result:
            self.jobs.finish(job, "failed")
            marker = result["__error__"]
            return error_envelope(request.id, marker["code"], marker["message"])
        self.jobs.finish(job, "completed")
        if use_cache:
            self.cache.put(fingerprint, result)  # type: ignore[union-attr]
        return ok_envelope(request.id, result, cached=False)

    def _record_request(
        self,
        request: Request,
        submit_ts: float,
        total_s: float,
        sidecar: dict | None,
    ) -> None:
        """Fold one completed request into the registry and trace rings.

        Merges the worker's shipped counter deltas (except on the inline
        lane, whose workers already share this process's registry),
        observes the latency histograms, stitches the full trace — queue
        wait plus the worker's span tree — and records it, flagging the
        request slow when it ran past the deadline fraction
        (:func:`repro.telemetry.slow_threshold`).
        """
        worker_span = None
        if isinstance(sidecar, dict):
            worker_span = sidecar.get("span")
            deltas = sidecar.get("metrics")
            if isinstance(deltas, dict) and self.pool.mode != "inline":
                telemetry.get_registry().merge_deltas(deltas)
        telemetry.observe("service.request_seconds", total_s)
        if isinstance(worker_span, dict):
            telemetry.observe(
                "service.queue_wait_seconds",
                max(0.0, float(worker_span.get("start_ts", 0.0)) - submit_ts),
            )
        else:
            worker_span = None
        trace = stitch_request_trace(
            request.id, request.op, submit_ts, total_s, worker_span
        )
        slow = total_s >= slow_threshold(request.deadline_s)
        if slow:
            telemetry.inc("service.slow_requests")
        self.traces.add(trace, slow=slow)

    def metrics_snapshot(self) -> dict:
        """The ``metrics`` response body: the full registry + service state."""
        self.refresh_gauges()
        return {
            "enabled": telemetry.enabled(),
            "metrics": telemetry.get_registry().to_dict(),
            "service": self.snapshot(),
            "traces": self.traces.stats(),
        }

    def refresh_gauges(self) -> None:
        """Mirror point-in-time service state into registry gauges."""
        if not telemetry.enabled():
            return
        telemetry.set_gauge("service.active_jobs", len(self.jobs.active()))
        telemetry.set_gauge("service.connections", self.connections)
        if self.cache is not None:
            telemetry.set_gauge(
                "service.cache_entries", self.cache.stats()["entries"]
            )

    def snapshot(self) -> dict:
        """The ``stats`` response body."""
        return {
            "active_jobs": self.jobs.active(),
            "cache": None if self.cache is None else self.cache.stats(),
            "connections": self.connections,
            "jobs": self.jobs.stats(),
            "pool": self.pool.stats(),
            "protocol": PROTOCOL_VERSION,
            "requests": self.requests,
        }

    # ------------------------------------------------------------------ #
    # Transport.
    # ------------------------------------------------------------------ #

    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one client connection until EOF or a transport error."""
        self.connections += 1
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ValueError, OSError):
                    # Over-long line, a reset peer, or a socket torn down
                    # mid-read during shutdown: nothing sane to answer.
                    break
                if not line:
                    break  # EOF: the client is done
                if not line.strip():
                    continue
                envelope = await self.handle_line(line.strip())
                writer.write(encode_line(envelope))
                try:
                    await writer.drain()
                except OSError:
                    break
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (OSError, asyncio.CancelledError):
                pass

    async def serve(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Bind the listening socket; returns the actual (host, port)."""
        self._loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        self._server = await asyncio.start_server(
            self.handle_connection, host, port, limit=MAX_LINE_BYTES
        )
        sockname = self._server.sockets[0].getsockname()
        self.address = (sockname[0], sockname[1])
        return self.address

    async def serve_metrics(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> tuple[str, int]:
        """Bind the plain-HTTP introspection listener (``--metrics-port``).

        Serves ``GET /metrics`` (Prometheus text-exposition format, so a
        stock Prometheus scraper can point straight at it) and
        ``GET /healthz`` (liveness).  Returns the bound (host, port).
        """
        self._metrics_server = await asyncio.start_server(
            self._handle_metrics_connection, host, port
        )
        sockname = self._metrics_server.sockets[0].getsockname()
        self.metrics_address = (sockname[0], sockname[1])
        return self.metrics_address

    async def _handle_metrics_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Answer one HTTP/1.0-style request and close the connection."""
        try:
            request_line = await asyncio.wait_for(reader.readline(), timeout=10)
            while True:  # drain headers until the blank line (or EOF)
                header = await asyncio.wait_for(reader.readline(), timeout=10)
                if header in (b"\r\n", b"\n", b""):
                    break
            parts = request_line.split()
            path = parts[1].decode("latin-1") if len(parts) >= 2 else ""
            if path.split("?", 1)[0] == "/metrics":
                self.refresh_gauges()
                status, body = "200 OK", telemetry.get_registry().render_prometheus()
                content_type = "text/plain; version=0.0.4; charset=utf-8"
            elif path.split("?", 1)[0] == "/healthz":
                status, body = "200 OK", "ok\n"
                content_type = "text/plain; charset=utf-8"
            else:
                status, body = "404 Not Found", "not found\n"
                content_type = "text/plain; charset=utf-8"
            payload = body.encode("utf-8")
            writer.write(
                (
                    f"HTTP/1.1 {status}\r\n"
                    f"Content-Type: {content_type}\r\n"
                    f"Content-Length: {len(payload)}\r\n"
                    "Connection: close\r\n\r\n"
                ).encode("latin-1")
                + payload
            )
            await writer.drain()
        except (asyncio.TimeoutError, OSError, ValueError):
            pass  # a malformed or stalled scraper must not wedge the plane
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (OSError, asyncio.CancelledError):
                pass

    async def serve_forever(self) -> None:
        """Run until :meth:`request_shutdown` (requires :meth:`serve` first)."""
        assert self._server is not None and self._shutdown is not None
        try:
            await self._shutdown.wait()
        finally:
            self._server.close()
            await self._server.wait_closed()
            if self._metrics_server is not None:
                self._metrics_server.close()
                await self._metrics_server.wait_closed()

    def request_shutdown(self) -> None:
        """Unblock :meth:`serve_forever`; safe from any thread, idempotent."""
        if self._loop is None or self._shutdown is None:
            return
        try:
            self._loop.call_soon_threadsafe(self._shutdown.set)
        except RuntimeError:
            pass  # the loop already exited — there is nothing left to stop


def run_server(
    host: str = "127.0.0.1",
    port: int = 8765,
    workers: int = 1,
    cache_limit: int = DEFAULT_LIMIT,
    announce: Callable[[str], None] | None = None,
    snapshot_dir: str | None = None,
    metrics_port: int | None = None,
) -> None:
    """Blocking server entry point (the ``repro serve`` CLI command).

    ``cache_limit == 0`` disables the result cache; ``port == 0`` binds an
    ephemeral port.  ``snapshot_dir`` (CLI: ``--snapshot-dir``) points the
    worker pool at a persistent per-tenant witness snapshot store —
    pinned inside each worker process by the pool initializer — letting
    warm tenants skip re-chasing after a restart (see
    :func:`repro.service.workers.snapshot_store`).  ``announce`` (default:
    print) receives exactly one line naming the bound address — scripts
    scrape it to find an ephemeral port, so its shape is part of the CLI
    contract::

        repro-service listening on 127.0.0.1:8765 (workers=2, pid=4242)

    ``metrics_port`` (CLI: ``--metrics-port``) additionally binds the
    plain-HTTP ``/metrics`` + ``/healthz`` introspection listener on the
    same host; its address is announced on a *second* line (the primary
    announce-line contract above is unchanged)::

        repro-metrics listening on 127.0.0.1:9090
    """
    pool = WorkerPool(workers, snapshot_dir=snapshot_dir)
    if pool.mode == "process":
        pool.warm()  # fork every worker before the event loop exists
    service = ExchangeService(
        pool, ResultCache(cache_limit) if cache_limit > 0 else None
    )

    async def main() -> None:
        bound_host, bound_port = await service.serve(host, port)
        lines = [
            f"repro-service listening on {bound_host}:{bound_port} "
            f"(workers={pool.workers if pool.mode == 'process' else 'inline'}, "
            f"pid={os.getpid()})"
        ]
        if metrics_port is not None:
            metrics_host, bound_metrics_port = await service.serve_metrics(
                host, metrics_port
            )
            lines.append(
                f"repro-metrics listening on {metrics_host}:{bound_metrics_port}"
            )
        for line in lines:
            if announce is not None:
                announce(line)
            else:
                # flush=True: scrapers read this through a pipe, where stdout
                # is block-buffered — an unflushed announce line never
                # arrives.
                print(line, flush=True)
        await service.serve_forever()

    try:
        asyncio.run(main())
    finally:
        pool.shutdown()


class ServiceHandle:
    """An embedded server running in a background thread."""

    def __init__(
        self,
        service: ExchangeService,
        pool: WorkerPool,
        thread: threading.Thread,
        host: str,
        port: int,
        metrics_address: tuple[str, int] | None = None,
    ):
        self.service = service
        self.pool = pool
        self.thread = thread
        self.host = host
        self.port = port
        self.metrics_address = metrics_address
        """The bound ``/metrics`` HTTP address, when requested (host, port)."""

    def client(self, timeout: float = 120.0):
        """A fresh blocking client bound to this server."""
        from repro.service.client import ServiceClient

        return ServiceClient(self.host, self.port, timeout=timeout)

    def close(self) -> None:
        """Stop the server, join its thread, and shut the pool down."""
        self.service.request_shutdown()
        self.thread.join(timeout=30)
        self.pool.shutdown()

    def __enter__(self) -> "ServiceHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def start_in_thread(
    workers: int = 1,
    cache_limit: int = DEFAULT_LIMIT,
    host: str = "127.0.0.1",
    port: int = 0,
    snapshot_dir: str | None = None,
    metrics_port: int | None = None,
) -> ServiceHandle:
    """Start a server in a daemon thread; returns a :class:`ServiceHandle`.

    The worker pool is created and warmed *in the calling thread* before
    the event-loop thread starts, so worker processes are forked from a
    quiescent parent.  ``snapshot_dir`` mirrors :func:`run_server`'s
    per-tenant witness snapshot store (pinned per worker process — the
    calling process's environment is not touched).
    """
    pool = WorkerPool(workers, snapshot_dir=snapshot_dir)
    if pool.mode == "process":
        pool.warm()
    service = ExchangeService(
        pool, ResultCache(cache_limit) if cache_limit > 0 else None
    )
    ready = threading.Event()
    box: dict = {}

    def runner() -> None:
        async def main() -> None:
            try:
                box["address"] = await service.serve(host, port)
                if metrics_port is not None:
                    box["metrics_address"] = await service.serve_metrics(
                        host, metrics_port
                    )
            finally:
                ready.set()
            await service.serve_forever()

        try:
            asyncio.run(main())
        except Exception as error:  # noqa: BLE001 - surfaced to the caller
            box.setdefault("error", error)
            ready.set()

    thread = threading.Thread(target=runner, name="repro-service", daemon=True)
    thread.start()
    if not ready.wait(timeout=60):
        pool.shutdown()
        raise RuntimeError("service thread failed to start within 60s")
    if "error" in box or "address" not in box:
        pool.shutdown()
        raise RuntimeError(f"service failed to bind: {box.get('error')}")
    bound_host, bound_port = box["address"]
    return ServiceHandle(
        service, pool, thread, bound_host, bound_port,
        metrics_address=box.get("metrics_address"),
    )
