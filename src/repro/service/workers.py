"""Request execution: pure handlers plus the worker pool that runs them.

:func:`execute_request` is the single compute entry point — a *stateless*
function from (operation name, normalised JSON parameters) to a JSON-ready
result dictionary.  Statelessness is what lets the same function run

* inline in the server process (``--workers 0``, tests),
* in every ``ProcessPoolExecutor`` worker (the serving deployment), and
* directly from library code (the differential tests assert that the
  service returns byte-identical results to these direct calls).

The *caches* behind the handlers are per-process and value-keyed, so the
function stays referentially transparent while each worker process warms
up.  The tenant cache (:mod:`repro.service.tenants`) keeps one chase
result per tenant document on the Section 3.1 fragment with egds, so
``exists``, whole-set ``certain`` and ``evaluate_batch`` on one tenant
share a single chase, and it holds the live incremental states of
``apply_updates``.  The :mod:`repro.core.satpipeline` solvers and the shared
compiled :class:`~repro.engine.query.QueryEngine` (its
cross-candidate cache is how consecutive requests over one universe
amortise) also persist across the requests that land on that worker.
Every response equals the direct library call's, which never
reads the tenant cache.  Workers never share mutable state with each
other or with the server — requests and results cross the process
boundary as plain dictionaries.

Handler errors never cross the pool as exceptions (unpicklable exception
state would kill the future); they come back as an ``{"__error__":
{"code", "message"}}`` marker that the server translates into the error
envelope.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Callable

from repro.chase.egd_chase import chase_with_egds
from repro.chase.pattern_chase import chase_pattern
from repro.core.certain import (
    CertainAnswers,
    certain_answers_batch,
    certain_answers_nre,
    find_counterexample_solution,
)
from repro.core.existence import (
    ExistenceResult,
    decide_existence,
    existence_from_chase,
)
from repro.core.solution import is_solution
from repro.core.search import CandidateSearchConfig
from repro.core.tractable import answers_from_chase
from repro.engine.query import default_engine
from repro.errors import BoundExceeded, NotSupportedError, ParseError, ReproError
from repro.graph.parser import parse_nre
from repro.io.json_io import (
    document_from_dict,
    graph_to_dict,
    pattern_to_dict,
)
from repro.service.tenants import in_cached_fragment, tenant_cache
from repro import telemetry
from repro.telemetry import fold_stats, span

# --------------------------------------------------------------------- #
# Result serialisation — shared by the handlers and the differential
# tests (direct library call -> same dictionary -> byte-identity).
# --------------------------------------------------------------------- #


def existence_result_to_dict(result: ExistenceResult) -> dict:
    """Wire shape of an existence decision."""
    return {
        "detail": result.detail,
        "method": result.method,
        "status": result.status.value,
        "witness": None if result.witness is None else graph_to_dict(result.witness),
    }


def certain_answers_to_dict(result: CertainAnswers) -> dict:
    """Wire shape of a certain-answer set (answers sorted for determinism)."""
    return {
        "answers": [list(pair) for pair in sorted(result.answers, key=repr)],
        "method": result.method,
        "no_solution": result.no_solution,
        "solutions_examined": result.solutions_examined,
    }


# --------------------------------------------------------------------- #
# Handlers.
# --------------------------------------------------------------------- #


def _search_config(params: dict) -> CandidateSearchConfig:
    return CandidateSearchConfig(star_bound=params.get("star_bound", 2))


# --------------------------------------------------------------------- #
# Per-tenant witness snapshots: with REPRO_SNAPSHOT_DIR set (the CLI's
# `repro serve --snapshot-dir`), each worker persists the verified
# existence witness of every tenant document it decides.  After a server
# restart the witness is *loaded and machine-verified* instead of being
# re-derived through chase + candidate search — the warm-tenant path.
# Off by default: without the environment variable nothing changes, and
# responses stay byte-identical to direct library calls.
# --------------------------------------------------------------------- #

_SNAPSHOT_ENV = "REPRO_SNAPSHOT_DIR"

_SNAPSHOT_DIR_OVERRIDE: str | None = None
"""Per-worker snapshot directory pinned by the pool initializer.

``None`` means "not configured by a pool" — the environment variable
then decides.  The override lives in the *worker* process for process
pools, so two servers in one parent process never see each other's
configuration (the environment is not mutated)."""


def _initialize_worker(
    snapshot_dir: str | None, telemetry_override: bool | None = None
) -> None:
    """Pool initializer: pin this worker's snapshot dir + telemetry state.

    ``telemetry_override`` replays the parent's programmatic
    :func:`repro.telemetry.set_enabled` override into the worker process
    (``None`` leaves the worker on environment resolution, which spawned
    workers inherit anyway).
    """
    global _SNAPSHOT_DIR_OVERRIDE
    _SNAPSHOT_DIR_OVERRIDE = snapshot_dir
    if telemetry_override is not None:
        telemetry.set_enabled(telemetry_override)


def snapshot_store():
    """This process's tenant snapshot store, or ``None`` when disabled.

    A pool-configured directory (``repro serve --snapshot-dir``) wins;
    otherwise ``REPRO_SNAPSHOT_DIR`` decides, so direct library calls and
    pool workers of an unconfigured server behave identically.
    """
    from repro.graph.snapshot import SnapshotStore

    directory = _SNAPSHOT_DIR_OVERRIDE
    if directory is None:
        directory = os.environ.get(_SNAPSHOT_ENV, "").strip()
    if not directory:
        return None
    return SnapshotStore(directory)


def _witness_key(params: dict) -> str:
    """The snapshot key for one exists request (full normalised params)."""
    from repro.service.protocol import request_fingerprint

    return request_fingerprint("exists-witness", params)


def _handle_exists(params: dict) -> dict:
    setting, instance = document_from_dict(params["document"])
    store = snapshot_store()
    key = _witness_key(params) if store is not None else ""
    if store is not None:
        witness = store.load(key)
        verified = False
        if witness is not None:
            with span("solution.verify", method="snapshot-witness"):
                verified = is_solution(instance, witness, setting)
        if verified:
            # The snapshot is advisory, the verification is authoritative:
            # a stale or foreign witness that fails is_solution falls
            # through to the full decision below.
            return {
                "detail": "verified witness restored from the snapshot store",
                "method": "snapshot-witness",
                "status": "exists",
                "witness": graph_to_dict(witness),
            }
    if in_cached_fragment(setting):
        result = existence_from_chase(
            tenant_cache().chase(setting, instance), setting, instance
        )
    else:
        result = decide_existence(
            setting,
            instance,
            search_config=_search_config(params),
            engine=default_engine(),
        )
    if store is not None and result.witness is not None:
        store.store(key, result.witness.freeze())
    return existence_result_to_dict(result)


def _handle_certain(params: dict) -> dict:
    setting, instance = document_from_dict(params["document"])
    query = parse_nre(params["query"])
    engine = default_engine()
    config = _search_config(params)
    if params.get("pair") is not None:
        pair = tuple(params["pair"])
        counterexample = find_counterexample_solution(
            setting, instance, query, pair, config=config, engine=engine
        )
        return {
            "certain": counterexample is None,
            "counterexample": (
                None if counterexample is None else graph_to_dict(counterexample)
            ),
            "pair": list(pair),
        }
    if in_cached_fragment(setting):
        chase = tenant_cache().chase(setting, instance)
        result = answers_from_chase(chase, [query], engine)[0]
    else:
        result = certain_answers_nre(
            setting, instance, query, config=config, engine=engine
        )
    return certain_answers_to_dict(result)


def _handle_chase(params: dict) -> dict:
    setting, instance = document_from_dict(params["document"])
    if setting.egds():
        result = chase_with_egds(
            setting.st_tgds, setting.egds(), instance, alphabet=setting.alphabet
        )
        if result.failed:
            left, right = result.failure_witness  # type: ignore[misc]
            return {
                "failed": True,
                "failure": [left, right],
                "pattern": None,
                "stats": _chase_stats(result),
            }
    else:
        result = chase_pattern(setting.st_tgds, instance, alphabet=setting.alphabet)
    return {
        "failed": False,
        "failure": None,
        "pattern": pattern_to_dict(result.expect_pattern()),
        "stats": _chase_stats(result),
    }


def _chase_stats(result) -> dict:
    """The wire shape of a chase run's counters.

    Delegates to :meth:`~repro.chase.result.ChaseStats.as_dict` — the one
    source of truth — so counters added to the dataclass reach the wire
    (and the telemetry registry) without touching this module.
    """
    return result.stats.as_dict()


def _handle_evaluate_batch(params: dict) -> dict:
    setting, instance = document_from_dict(params["document"])
    queries = [parse_nre(q) for q in params["queries"]]
    if in_cached_fragment(setting):
        chase = tenant_cache().chase(setting, instance)
        results = answers_from_chase(chase, queries, default_engine())
    else:
        results = certain_answers_batch(
            setting,
            instance,
            queries,
            config=_search_config(params),
            engine=default_engine(),
        )
    return {
        "queries": list(params["queries"]),
        "results": [certain_answers_to_dict(r) for r in results],
    }


def _handle_apply_updates(params: dict) -> dict:
    """Stream an update batch into a tenant's live incremental chase.

    The tenant state is keyed by document value: a warm state checked in
    by a previous request over this exact document resumes with its
    trigger, quotient, and answer layers intact (O(affected) repair); a
    cold miss bootstraps from scratch.  Either way the response is a pure
    function of (document, updates, queries) — the updated document is
    returned so the client can address the *next* batch to the new value —
    and answers are byte-identical to a from-scratch ``evaluate_batch``
    against the updated document.
    """
    from repro.core.satpipeline import advance_pipeline
    from repro.errors import SchemaError
    from repro.io.json_io import document_to_dict

    setting, instance = document_from_dict(params["document"])
    queries = [parse_nre(q) for q in params["queries"]]
    tenants = tenant_cache()
    state = tenants.checkout_incremental(setting, instance)
    try:
        applied = state.apply_updates(params["updates"])
    except (SchemaError, ValueError) as error:
        # Batches are validated before any mutation, so the state is
        # still consistent — hand it back warm and report bad-request.
        tenants.checkin_incremental(state)
        raise ValueError(str(error)) from None
    engine = default_engine()
    results = [
        certain_answers_to_dict(state.certain_answers(query, engine=engine))
        for query in queries
    ]
    failure = state.failure_witness()
    response = {
        "applied": {
            "deletes": applied["deletes"],
            "inserts": applied["inserts"],
            "noops": applied["noops"],
        },
        "document": document_to_dict(state.setting, state.instance),
        "failed": state.failed,
        "failure": None if failure is None else [failure[0], failure[1]],
        "queries": list(params["queries"]),
        "results": results,
    }
    tenants.checkin_incremental(state)
    # Roll the per-universe SAT pipeline's working set forward too, so
    # later certain/exists requests on the updated document start warm.
    advance_pipeline(setting, instance, state.instance)
    return response


_HANDLERS: dict[str, Callable[[dict], dict]] = {
    "apply_updates": _handle_apply_updates,
    "certain": _handle_certain,
    "chase": _handle_chase,
    "evaluate_batch": _handle_evaluate_batch,
    "exists": _handle_exists,
}


def _error_marker(code: str, message: str) -> dict:
    return {"__error__": {"code": code, "message": message}}


def execute_request(op: str, params: dict) -> dict:
    """Run one compute operation; never raises (see the module docstring)."""
    handler = _HANDLERS.get(op)
    if handler is None:
        return _error_marker("unknown-op", f"no handler for op {op!r}")
    try:
        return handler(params)
    except BoundExceeded as error:
        return _error_marker("bounds-exceeded", str(error))
    except NotSupportedError as error:
        return _error_marker("unsupported", str(error))
    except (ParseError, KeyError, TypeError, ValueError) as error:
        return _error_marker(
            "bad-request", f"{type(error).__name__}: {error}"
        )
    except ReproError as error:
        return _error_marker("internal-error", f"{type(error).__name__}: {error}")
    except Exception as error:  # noqa: BLE001 - the pool must stay alive
        return _error_marker("internal-error", f"{type(error).__name__}: {error}")


def _flush_worker_telemetry() -> None:
    """Fold this process's warm caches' cumulative stats into the registry.

    The per-process :class:`~repro.engine.query.QueryEngine` instances and
    :class:`~repro.core.satpipeline.SatPipeline` solvers accumulate
    counters across requests; folding is delta-based, so flushing after
    every request ships exactly the new work.
    """
    from repro.core.satpipeline import live_pipelines
    from repro.engine.query import live_engines

    for engine in live_engines():
        fold_stats("engine", engine.stats)
    for pipeline in live_pipelines():
        stats = getattr(pipeline.solver, "stats", None)
        if stats is not None:
            fold_stats("solver", stats)


def traced_execute_request(op: str, params: dict) -> dict:
    """:func:`execute_request` wrapped in the telemetry envelope.

    The pool entry point.  The result is wrapped as ``{"__worker__": 1,
    "value": <execute_request result>, "telemetry": <sidecar|None>}`` —
    the server unwraps the value (so responses stay byte-identical to
    direct :func:`execute_request` calls) and consumes the sidecar:
    the worker's serialized span tree plus the counter deltas this
    request produced, shipped for server-side stitching and aggregation.
    ``execute_request`` itself stays pure and envelope-free for library
    callers and the differential tests.
    """
    if not telemetry.enabled():
        return {"__worker__": 1, "value": execute_request(op, params),
                "telemetry": None}
    with span("worker.execute", op=op, pid=os.getpid()) as root:
        result = execute_request(op, params)
    _flush_worker_telemetry()
    sidecar = {
        "span": root.to_dict(),
        "metrics": telemetry.get_registry().export_deltas(),
    }
    return {"__worker__": 1, "value": result, "telemetry": sidecar}


def _warm_worker() -> str:
    """Force a worker process to exist and pay its import cost up front.

    The short sleep keeps each warm-up job occupying a worker long enough
    that the pool spawns its full complement instead of funnelling every
    job through the first process.
    """
    time.sleep(0.05)
    return "warm"


class WorkerPool:
    """The request executor: N worker processes, or a serialised inline lane.

    ``workers >= 1`` builds a ``ProcessPoolExecutor`` — the serving
    configuration, where each worker process accumulates its own warm
    caches.  ``workers == 0`` runs requests on a single-threaded
    ``ThreadPoolExecutor`` inside the server process: zero fork cost (CI
    smoke jobs, debugging), and the single thread serialises all library
    calls, which keeps the non-thread-safe solver pipelines safe.

    ``snapshot_dir`` configures the per-tenant witness snapshot store for
    this pool's workers (see :func:`snapshot_store`).  For process pools
    the setting is pinned inside each worker process via the pool
    initializer — the parent's environment is never touched, so two
    servers embedded in one process keep independent configurations.
    The inline lane runs in the server process itself, where an explicit
    ``snapshot_dir`` necessarily sets the process-wide override (shared
    with direct library calls in that process — documented, tutorialised
    behaviour of the in-process lane).
    """

    def __init__(self, workers: int = 1, snapshot_dir: str | None = None):
        self.workers = max(0, int(workers))
        self.snapshot_dir = snapshot_dir or None
        if self.workers == 0:
            self.mode = "inline"
            if self.snapshot_dir is not None:
                _initialize_worker(self.snapshot_dir)
            self._executor: ThreadPoolExecutor | ProcessPoolExecutor = (
                ThreadPoolExecutor(max_workers=1, thread_name_prefix="repro-inline")
            )
        else:
            self.mode = "process"
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_initialize_worker,
                initargs=(self.snapshot_dir, telemetry.enabled_override()),
            )
        self.submitted = 0

    def submit(self, op: str, params: dict) -> Future:
        """Schedule one request; the future resolves to the wrapped result.

        The future's value is :func:`traced_execute_request`'s envelope —
        the server unwraps it (and consumes the telemetry sidecar) before
        building the response.
        """
        self.submitted += 1
        return self._executor.submit(traced_execute_request, op, params)

    def warm(self, timeout: float = 120.0) -> None:
        """Spawn every worker and pay library import cost before serving.

        Called before the event loop (and any helper threads) start, so
        all forking happens from a quiescent, single-threaded parent.
        """
        futures = [
            self._executor.submit(_warm_worker)
            for _ in range(max(1, self.workers))
        ]
        for future in futures:
            future.result(timeout=timeout)

    def stats(self) -> dict:
        """A JSON-ready snapshot for the ``stats`` operation."""
        return {"mode": self.mode, "submitted": self.submitted, "workers": self.workers}

    def shutdown(self) -> None:
        """Stop the executor, abandoning queued work.

        ``wait=True``: joining the worker processes (and the executor's
        management thread) here keeps interpreter exit quiet — with
        ``wait=False`` CPython's own atexit hook races the half-closed
        wakeup pipe and prints an ignored ``OSError`` on some exits.
        """
        self._executor.shutdown(wait=True, cancel_futures=True)
