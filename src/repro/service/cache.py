"""The fingerprint-keyed result cache — serving layer 0.

Every compute operation (``exists``/``certain``/``chase``/
``evaluate_batch``) is a pure function of its normalised parameters, so
its response can be replayed verbatim for any request with the same
:func:`repro.service.protocol.request_fingerprint`.  This cache sits in
the *server* process, in front of the worker pool; beneath it the worker
processes keep their own warm layers (the tenant cache of
:mod:`repro.service.tenants`, one chase result per tenant document, the
per-universe incremental SAT pipelines of :mod:`repro.core.satpipeline`,
and the engine's cross-candidate answer cache and compiled automata),
so even a cache
*miss* over a previously-seen tenant — another query, a batch, an
``exists`` — is far cheaper than a cold request.

Plain LRU over an ``OrderedDict``, guarded by a lock (the asyncio server
is single-threaded, but :func:`~repro.service.server.start_in_thread`
embeds the service next to foreign threads and the stats endpoint reads
concurrently).  Entries are the already-serialised result objects —
storing wire-ready values means a hit never re-serialises.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any

DEFAULT_LIMIT = 1024


class ResultCache:
    """A bounded LRU mapping request fingerprints to response results."""

    def __init__(self, limit: int = DEFAULT_LIMIT):
        if limit < 1:
            raise ValueError("cache limit must be positive")
        self.limit = limit
        self._entries: OrderedDict[str, Any] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: str) -> tuple[bool, Any]:
        """Return ``(hit, value)``; a hit refreshes the entry's recency."""
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                self.misses += 1
                return False, None
            self._entries.move_to_end(key)
            self.hits += 1
            return True, value

    def put(self, key: str, value: Any) -> None:
        """Insert (or refresh) an entry, evicting the least recent past limit."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.limit:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        """Drop every entry (counters survive — they are telemetry)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict:
        """A JSON-ready snapshot for the ``stats`` operation."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "evictions": self.evictions,
                "hits": self.hits,
                "limit": self.limit,
                "misses": self.misses,
            }
