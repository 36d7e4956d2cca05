"""serve-social: a closed loop of one client against the service.

``start_in_thread(workers=1)`` serves one client connection that sends
each request only after the previous reply.  The traffic is distinct
social tenants.  Per group: whole-set ``certain`` for two queries on each
of four tenants, ``evaluate_batch`` on two of them, ``exists`` on four
more, and two exact repeats that the result cache answers.  Spreading the
``certain`` requests over many tenants keeps p50, which falls inside that
class, from hanging on a few generated tenants.  One client plus one
worker keeps the runnable threads at two.
"""

from __future__ import annotations

import json
import random
import resource
import statistics
import time
from pathlib import Path

from harness import Round, Tracer, collect_then_time, sub_seed
from repro.scenarios.scale import GeneratorConfig, scale_document, workload_queries
from repro.service.client import ServiceError
from repro.service.server import start_in_thread

FAMILY = "social"
NODES = 150
GROUPS = 5
"""Request groups per round; a group is 16 requests over 8 tenants."""
TENANTS_PER_GROUP = 8

ROUND_S = 5.0
"""Nominal wall time of one round on the reference host."""

WARM_TENANT = GROUPS * TENANTS_PER_GROUP
"""Key of the tenant that warms a fresh server up before timing."""

TRACE_POLL = 32
"""Traced rounds read the service's 64-entry trace ring this often."""

WORK_COUNTERS = ("chase.", "engine.", "service.cache_")

ABSENT = {
    "graph.*": "workers evaluate on the dict engine; no freeze or snapshot",
    "engine.pairs*/engine.answers_s": "queries run inside the worker",
    "update.*": "updates through the service are out of scope",
}


class ServeSocial:
    """One round starts a fresh server and sends its request plan."""

    def __init__(self, seed: int, workdir: Path, nodes: int = NODES):
        self.seed = seed
        self.nodes = nodes
        self.queries = list(workload_queries(FAMILY))
        self.plan = _plan(seed, len(self.queries))

    def _tenant(self, index: int, key: int) -> dict:
        config = GeneratorConfig(
            family=FAMILY, nodes=self.nodes, seed=sub_seed(self.seed, index, key)
        )
        return scale_document(config)

    def round(self, index: int, tracer: Tracer) -> Round:
        began = time.perf_counter()
        # The worker is forked at start: starting before the tenants are
        # generated keeps them out of its heap.
        handle = start_in_thread(workers=1)
        try:
            with tracer.span("setup.gen"):
                keys = sorted({step[2] for step in self.plan})
                documents = {key: self._tenant(index, key) for key in keys}
                warm_document = self._tenant(index, WARM_TENANT)
            client = handle.client(timeout=120.0)
            try:
                client.ping()
                for query in self.queries:
                    client.certain(warm_document, query)
                client.exists(warm_document)
                client.evaluate_batch(warm_document, self.queries)
                setup_s = time.perf_counter() - began
                measured = self._work(client, tracer, documents)
            finally:
                client.close()
        finally:
            handle.close()
        measured.setup_s = setup_s
        measured.peak_child_rss_kb = resource.getrusage(
            resource.RUSAGE_CHILDREN
        ).ru_maxrss
        return measured

    def _request(self, step: tuple, documents: dict) -> tuple[str, dict]:
        kind, original, key, query_index = step
        if kind == "repeat":
            return self._request(self.plan[original], documents)
        document = documents[key]
        if kind == "exists":
            return "exists", {"document": document}
        if kind == "batch":
            return "evaluate_batch", {"document": document, "queries": self.queries}
        return "certain", {"document": document, "query": self.queries[query_index]}

    def _work(self, client, tracer: Tracer, documents: dict) -> Round:
        before = client.metrics()["metrics"]
        ops: list[tuple[str, float]] = []
        envelopes: list[dict | None] = []
        client_spans: dict[str, tuple[int, float]] = {}
        adopted: set[str] = set()
        transport_s = 0.0

        start = collect_then_time()
        for index, step in enumerate(self.plan):
            op, params = self._request(step, documents)
            request_id = f"r{index}"
            op_start = time.perf_counter()
            with tracer.span("client." + step[0], index) as record:
                try:
                    envelope = client.request(op, params, request_id=request_id)
                except (ServiceError, OSError):
                    envelope = None
            seconds = time.perf_counter() - op_start
            ops.append((step[0], seconds))
            envelopes.append(envelope)
            if record is not None:
                client_spans[request_id] = (record["id"], seconds)
                if (index + 1) % TRACE_POLL == 0:
                    transport_s += _adopt_traces(client, tracer, client_spans, adopted)
        if tracer.enabled:
            transport_s += _adopt_traces(client, tracer, client_spans, adopted)
        work_s = time.perf_counter() - start

        after = client.metrics()["metrics"]
        counters = {
            name: value - before["counters"].get(name, 0)
            for name, value in after["counters"].items()
            if name.startswith(WORK_COUNTERS)
        }
        hits = counters.get("service.cache_hits", 0)
        lookups = hits + counters.get("service.cache_misses", 0)
        layers = {
            "service.request_s": _histogram_delta(
                before, after, "service.request_seconds"
            ),
            "service.queue_wait_s": _histogram_delta(
                before, after, "service.queue_wait_seconds"
            ),
            "service.transport_s": transport_s,
            "service.cache_hit_ratio": hits / lookups if lookups else 0.0,
        }
        for kind in ("exists", "certain", "batch", "repeat"):
            samples = [seconds for name, seconds in ops if name == kind]
            layers[f"serve.{kind}_ms"] = statistics.median(samples) * 1000
        # Tenants asked ``certain`` without a batch in the plan get one now,
        # untimed, so that every answer is checked against a batch.
        unbatched = {step[2] for step in self.plan if step[0] == "certain"} - {
            step[2] for step in self.plan if step[0] == "batch"
        }
        reference = {}
        for tenant in sorted(unbatched):
            try:
                reference[tenant] = client.evaluate_batch(
                    documents[tenant], self.queries
                )
            except (ServiceError, OSError):
                pass  # the tenant's certain answers then count as failed
        failed = _check(self.plan, envelopes, reference)
        return Round(0.0, work_s, ops, len(self.plan), failed, counters, layers)


def _plan(seed: int, query_count: int) -> list[tuple[str, int | None, int, int | None]]:
    """The request plan: (class, repeated step, tenant key, query index).

    Each group asks ``certain`` for two queries on each of four tenants
    (the queries rotate, so every query is asked), ``evaluate_batch`` on
    the first two of them and ``exists`` on four more tenants, shuffled,
    then repeats one ``certain`` and one ``exists`` request.
    """
    plan: list[tuple[str, int | None, int, int | None]] = []
    rng = random.Random(seed)
    for group in range(GROUPS):
        tenants = [group * TENANTS_PER_GROUP + k for k in range(TENANTS_PER_GROUP)]
        distinct = [
            ("certain", None, tenant, (2 * tenant + step) % query_count)
            for tenant in tenants[:4]
            for step in range(2)
        ]
        distinct += [("batch", None, tenant, None) for tenant in tenants[:2]]
        distinct += [("exists", None, tenant, None) for tenant in tenants[4:]]
        rng.shuffle(distinct)
        base = len(plan)
        plan.extend(distinct)
        for kind in ("certain", "exists"):
            original = next(
                base + i for i, step in enumerate(distinct) if step[0] == kind
            )
            _, _, tenant, query = plan[original]
            plan.append(("repeat", original, tenant, query))
    return plan


def _check(plan: list[tuple], envelopes: list[dict | None], reference: dict) -> int:
    """Count wrong or failed responses.

    ``exists`` must answer ``"exists"``; each ``certain`` must equal its
    tenant's ``evaluate_batch`` entry for the query (from the plan, or
    from ``reference`` for tenants the plan does not batch); a repeat must
    be byte-identical to the response it repeats.
    """
    failed = 0
    results = [e["result"] if e and e.get("ok") else None for e in envelopes]
    batches = dict(reference)
    batches.update(
        (step[2], result)
        for step, result in zip(plan, results)
        if step[0] == "batch" and result is not None
    )
    for index, (step, result) in enumerate(zip(plan, results)):
        kind, original, tenant, query = step
        if result is None:
            failed += 1
        elif kind == "exists":
            failed += result.get("status") != "exists"
        elif kind == "certain":
            batch = batches.get(tenant)
            failed += batch is None or batch["results"][query] != result
        elif kind == "repeat":
            first = results[original]
            failed += first is None or _canonical(first) != _canonical(result)
    return failed


def _canonical(result: dict) -> str:
    return json.dumps(result, sort_keys=True)


def _histogram_delta(before: dict, after: dict, name: str) -> float:
    empty = {"sum": 0.0}
    return (
        after["histograms"].get(name, empty)["sum"]
        - before["histograms"].get(name, empty)["sum"]
    )


def _adopt_traces(client, tracer, client_spans, adopted) -> float:
    """Graft new service traces under the client span of their request.

    Returns the transport time they reveal: each request's client round
    trip minus the server's time for it.
    """
    transport_s = 0.0
    for trace in client.traces(limit=64)["traces"]:
        request_id = trace.get("attrs", {}).get("request_id")
        if request_id not in client_spans or request_id in adopted:
            continue
        adopted.add(request_id)
        parent, round_trip = client_spans[request_id]
        tracer.adopt(
            trace, int(request_id[1:]), parent,
            leaves=("chase.relational", "engine.evaluate"),
        )
        transport_s += round_trip - trace["duration_s"]
    return transport_s
