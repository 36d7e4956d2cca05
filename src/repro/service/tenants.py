"""The worker's tenant cache: one chase per tenant document.

On the Section 3.1 fragment with egds (single-symbol s-t tgd heads,
egds as the only target constraints) one relational chase settles
everything a tenant can be asked.  The chased graph is the universal
solution, so ``exists`` is that graph (verified) or the chase's failure,
and whole-set certain answers are the null-free answers evaluated on it
(:mod:`repro.core.tractable`, :func:`repro.core.existence.existence_from_chase`).
The server's result cache keys on whole requests, so a second question
about the same tenant would chase it again; this cache keys on the
tenant's *value* — ``(setting key, instance fingerprint)``, the key of
the SAT-pipeline registry — and keeps the
:class:`~repro.chase.result.ChaseResult`.

The same cache holds the live
:class:`~repro.engine.incremental.IncrementalChase` states of
``apply_updates`` streams under their own key kind.  A state is
*checked out* (removed) while a batch mutates it and checked back in
under its new fingerprint, so two streams never share a mutable state.

The rules the cache keeps:

* one LRU over every entry, bounded by :data:`EDGE_BUDGET` edges in
  total; an entry larger than the budget is not stored;
* a chase that raised stores nothing; a chase that completed with
  ``failed=True`` (no solution) is stored like any other result;
* stored chase results are shared and only read — nothing mutates a
  cached graph;
* only the worker's handlers read it.  Library calls
  (:func:`~repro.core.existence.decide_existence`,
  ``certain_answers_*``) always chase.

Hits, misses and evictions are counted into the telemetry registry as
``chase.tenant_hits`` / ``chase.tenant_misses`` /
``chase.tenant_evictions``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any

from repro import telemetry
from repro.chase.result import ChaseResult
from repro.core.satpipeline import _setting_key
from repro.core.setting import DataExchangeSetting
from repro.core.tractable import chase_universal, in_tractable_fragment
from repro.relational.instance import RelationalInstance

EDGE_BUDGET = 16_000
"""Total edges the cache may hold: chased graphs plus incremental states.

A 150-node social tenant chases to about 1,000 edges, so a worker keeps
the last fifteen or so such tenants warm — enough for the questions a
client asks about one tenant in quick succession — or one 1,000-node
medlit update stream (about 11,000 edges across its two layers).  The cap
is small on purpose: a held graph costs about 1 KB per edge, and a
100,000-edge cap made a serve-social worker 12% larger and its requests
slower than this one."""


def in_cached_fragment(setting: DataExchangeSetting) -> bool:
    """Whether the worker answers ``setting`` from the tenant cache.

    The Section 3.1 fragment with egds: there ``exists``, ``certain`` and
    ``evaluate_batch`` all read one :func:`~repro.core.tractable.chase_universal`
    result.  Every other setting calls the library as is.
    """
    return in_tractable_fragment(setting) and setting.fragment().has_egds


class TenantCache:
    """A bounded LRU from tenant value keys to chase results and live states."""

    def __init__(self, edge_budget: int = EDGE_BUDGET):
        self.edge_budget = edge_budget
        self._entries: OrderedDict[tuple, tuple[Any, int]] = OrderedDict()
        self._edges = 0
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def chase(
        self, setting: DataExchangeSetting, instance: RelationalInstance
    ) -> ChaseResult:
        """The tenant's :func:`~repro.core.tractable.chase_universal` result.

        A miss chases and stores the result; an exception from the chase
        propagates and stores nothing.  The returned result is shared:
        callers read it and never mutate its graph.
        """
        key = ("chase", _setting_key(setting), instance.fingerprint())
        cached = self._lookup(key, pop=False)
        if cached is not None:
            return cached
        result = chase_universal(setting, instance)
        size = 0 if result.graph is None else result.graph.edge_count()
        self._store(key, result, size)
        return result

    def checkout_incremental(
        self, setting: DataExchangeSetting, instance: RelationalInstance
    ):
        """Take (or bootstrap) the live incremental chase for this tenant.

        A warm state checked in over exactly this instance resumes with
        its trigger, quotient and answer layers intact; a miss chases
        from scratch.  The state leaves the cache until
        :meth:`checkin_incremental` hands it back.  Raises
        :class:`~repro.errors.NotSupportedError` outside the
        relational-chase fragment, like
        :class:`~repro.engine.incremental.IncrementalChase`.
        """
        from repro.engine.incremental import IncrementalChase

        key = ("incremental", _setting_key(setting), instance.fingerprint())
        state = self._lookup(key, pop=True)
        if state is not None:
            return state
        return IncrementalChase(setting, instance)

    def checkin_incremental(self, state) -> None:
        """Return a checked-out state, keyed by its *current* instance."""
        key = (
            "incremental",
            _setting_key(state.setting),
            state.instance.fingerprint(),
        )
        self._store(key, state, state.edge_count)

    def _lookup(self, key: tuple, pop: bool):
        with self._lock:
            entry = self._entries.pop(key, None) if pop else self._entries.get(key)
            if entry is None:
                self.misses += 1
            else:
                self.hits += 1
                if pop:
                    self._edges -= entry[1]
                else:
                    self._entries.move_to_end(key)
        telemetry.inc("chase.tenant_misses" if entry is None else "chase.tenant_hits")
        return None if entry is None else entry[0]

    def _store(self, key: tuple, value: Any, edges: int) -> None:
        # One unit per entry on top of its edges, so empty graphs still
        # count against the budget.
        size = edges + 1
        evicted = 0
        with self._lock:
            previous = self._entries.pop(key, None)
            if previous is not None:
                self._edges -= previous[1]
            if size > self.edge_budget:
                return
            self._entries[key] = (value, size)
            self._edges += size
            while self._edges > self.edge_budget:
                _, (_, dropped) = self._entries.popitem(last=False)
                self._edges -= dropped
                evicted += 1
            self.evictions += evicted
        if evicted:
            telemetry.inc("chase.tenant_evictions", evicted)

    def stats(self) -> dict:
        """Entries, edges held, and hit/miss/eviction counts."""
        with self._lock:
            return {
                "edges": self._edges,
                "entries": len(self._entries),
                "evictions": self.evictions,
                "hits": self.hits,
                "misses": self.misses,
            }

    def clear(self) -> None:
        """Drop every entry and zero the counts (tests, long-running processes)."""
        with self._lock:
            self._entries.clear()
            self._edges = 0
            self.hits = self.misses = self.evictions = 0


_TENANTS = TenantCache()


def tenant_cache() -> TenantCache:
    """This process's tenant cache (one per worker process)."""
    return _TENANTS
