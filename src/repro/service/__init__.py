"""The serving layer: a persistent process that amortizes everything.

The library's hot paths are already cached aggressively — compiled NRE
automata (in-process ``lru_cache``), per-universe incremental SAT
solvers (:mod:`repro.core.satpipeline`), and the query engine's
cross-candidate answer cache.  But a one-shot CLI throws all of that away
after every invocation.  This package keeps it alive:

* :mod:`repro.service.protocol` — the typed JSON-lines request/response
  wire format with schema validation and error envelopes;
* :mod:`repro.service.cache`    — the fingerprint-keyed result cache
  (layer 0: a warm repeat of any pure request is a dictionary lookup);
* :mod:`repro.service.jobs`     — job bookkeeping: per-request deadlines,
  cancellation, and serving telemetry;
* :mod:`repro.service.workers`  — the request executor: a
  ``ProcessPoolExecutor`` pool whose worker processes each keep their own
  warm solver pipelines and automaton caches across requests;
* :mod:`repro.service.server`   — the asyncio JSON-lines TCP server tying
  the pieces together (accept → validate → cache probe → worker →
  respond);
* :mod:`repro.service.client`   — a small blocking client used by the
  ``repro submit`` CLI, the benchmarks, and the examples.

Start a server with ``repro serve`` (or :func:`repro.service.server.
start_in_thread` for in-process embedding) and talk to it with ``repro
submit`` or :class:`repro.service.client.ServiceClient`.
"""

from repro.service.cache import ResultCache
from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import JobRegistry
from repro.service.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    Request,
    validate_request,
)
from repro.service.server import ExchangeService, start_in_thread
from repro.service.workers import WorkerPool, execute_request

__all__ = [
    "PROTOCOL_VERSION",
    "ExchangeService",
    "JobRegistry",
    "ProtocolError",
    "Request",
    "ResultCache",
    "ServiceClient",
    "ServiceError",
    "WorkerPool",
    "execute_request",
    "start_in_thread",
    "validate_request",
]
