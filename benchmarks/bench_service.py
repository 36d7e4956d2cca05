"""Service benchmarks: cold vs warm vs batched latency, worker scaling.

Four benchmarks over a real asyncio server with real worker processes,
measured from a blocking client over TCP (so every number includes the
full accept → validate → cache probe → worker → respond lifecycle):

* ``test_service_cold_request``  — every request hits a never-seen
  universe with the result cache bypassed: the worst case, paying chase +
  existence + enumeration/SAT + serialisation;
* ``test_service_warm_request``  — the same request repeated: a result
  cache hit, i.e. one dictionary lookup plus the TCP round trip.  Asserts
  the acceptance criterion: warm is **≥ 10×** faster than cold;
* ``test_service_batch_vs_sequential`` — K queries over one instance as
  one ``evaluate_batch`` request vs K sequential ``certain`` requests
  (cache bypassed): the batch shares one minimal-solution enumeration;
* ``test_service_throughput_workers`` — 8 cache-cold requests fired by 8
  concurrent clients against a 1-worker and a 2-worker pool: asserts
  throughput improves with the second worker (skipped on 1-CPU hosts).
"""

from __future__ import annotations

import os
import statistics
import threading
import time

import pytest

from conftest import report

from repro.scenarios.service_workload import (
    QUERY_MIXES,
    cold_documents,
    demo_document,
)
from repro.io.json_io import document_to_dict
from repro.scenarios.flights import flights_instance, setting_omega_prime
from repro.service.server import start_in_thread

QUERY = "f . f*[h] . f- . (f-)*"


def certain_params(document, query=QUERY):
    return {"document": document, "query": query, "pair": None,
            "star_bound": 2}


def timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


@pytest.fixture(scope="module")
def single_worker():
    handle = start_in_thread(workers=1)
    yield handle
    handle.close()


def test_service_cold_request(benchmark, single_worker):
    """Latency of a request over a never-before-seen universe."""
    documents = iter(cold_documents(64, seed=31))
    client = single_worker.client()

    def cold_request():
        result = client.call(
            "certain", certain_params(next(documents)), no_cache=True
        )
        assert "answers" in result

    benchmark.pedantic(cold_request, rounds=10, iterations=1, warmup_rounds=1)
    client.close()


def test_service_warm_request(benchmark, single_worker):
    """Latency of a result-cache hit — and the >= 10x acceptance assert."""
    client = single_worker.client()
    body = certain_params(demo_document())
    envelope = client.request("certain", body)  # prime the cache
    assert envelope["ok"]
    assert client.request("certain", body)["cached"] is True

    def warm_request():
        result = client.call("certain", body)
        assert "answers" in result

    benchmark.pedantic(warm_request, rounds=30, iterations=1, warmup_rounds=2)

    # The acceptance criterion, measured independently of the benchmark
    # fixture: cold (fresh universes, cache bypassed) vs warm (cache hit).
    cold_samples = [
        timed(lambda d=doc: client.call("certain", certain_params(d), no_cache=True))
        for doc in cold_documents(5, seed=47)
    ]
    warm_samples = [timed(lambda: client.call("certain", body)) for _ in range(50)]
    cold_median = statistics.median(cold_samples)
    warm_median = statistics.median(warm_samples)
    speedup = cold_median / warm_median
    report(
        "Service: cold vs warm request latency",
        [
            ("cold median (fresh universe)", "--", f"{1000 * cold_median:.2f} ms"),
            ("warm median (cache hit)", "--", f"{1000 * warm_median:.3f} ms"),
            ("warm speedup", ">= 10x", f"{speedup:.0f}x"),
        ],
    )
    assert speedup >= 10, (
        f"warm cached requests must be >= 10x faster than cold ones "
        f"(got {speedup:.1f}x: cold {1000 * cold_median:.2f} ms, "
        f"warm {1000 * warm_median:.3f} ms)"
    )
    client.close()


def test_service_batch_vs_sequential(benchmark, single_worker):
    """One evaluate_batch vs K sequential certain requests (cache bypassed).

    Ω′ (sameAs) keeps the queries on the minimal-solution enumeration
    path, which is exactly what the batched evaluation shares: existence
    is decided once and every enumerated solution serves all K queries.
    """
    document = document_to_dict(setting_omega_prime(), flights_instance())
    queries = list(QUERY_MIXES["paper"])
    client = single_worker.client()

    def batched():
        return client.call(
            "evaluate_batch",
            {"document": document, "queries": queries, "star_bound": 2},
            no_cache=True,
        )

    def sequential():
        return [
            client.call("certain", certain_params(document, query), no_cache=True)
            for query in queries
        ]

    batch_result = benchmark.pedantic(batched, rounds=5, iterations=1,
                                      warmup_rounds=1)
    sequential_results = sequential()
    # Same answers, batched or not.
    for single, from_batch in zip(sequential_results, batch_result["results"]):
        assert single["answers"] == from_batch["answers"]

    batch_time = min(timed(batched) for _ in range(3))
    sequential_time = min(timed(sequential) for _ in range(3))
    report(
        "Service: batched vs sequential evaluation",
        [
            ("queries per request", len(queries), len(queries)),
            ("sequential (K certain calls)", "--",
             f"{1000 * sequential_time:.1f} ms"),
            ("evaluate_batch (one call)", "--", f"{1000 * batch_time:.1f} ms"),
            ("batch speedup", "> 1x", f"{sequential_time / batch_time:.2f}x"),
        ],
    )
    client.close()


def _sweep(handle, documents) -> float:
    """Fire one cache-cold request per document from concurrent clients."""
    errors: list = []

    def fire(doc) -> None:
        try:
            with handle.client() as client:
                client.call("certain", certain_params(doc), no_cache=True)
        except Exception as error:  # noqa: BLE001 - surfaced below
            errors.append(error)

    threads = [threading.Thread(target=fire, args=(doc,)) for doc in documents]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    assert not errors, errors[0]
    return elapsed


def test_service_throughput_workers(benchmark):
    """Multi-worker throughput: 8 concurrent cold requests, 1 vs 2 workers."""
    requests = 8
    # Distinct universes per sweep so no request is amortised by another.
    streams = [cold_documents(requests, seed=100 + i) for i in range(8)]
    stream = iter(streams)

    with start_in_thread(workers=1) as one_worker:
        _sweep(one_worker, next(stream))  # warm-up
        one_elapsed = min(_sweep(one_worker, next(stream)) for _ in range(2))

    with start_in_thread(workers=2) as two_workers:
        _sweep(two_workers, next(stream))  # warm-up
        two_elapsed = min(_sweep(two_workers, next(stream)) for _ in range(2))

        def sweep_two_workers():
            return _sweep(two_workers, next(stream))

        benchmark.pedantic(sweep_two_workers, rounds=2, iterations=1)

    ratio = one_elapsed / two_elapsed
    report(
        "Service: throughput scaling with worker count",
        [
            ("concurrent requests per sweep", requests, requests),
            ("1 worker sweep", "--", f"{1000 * one_elapsed:.0f} ms"),
            ("2 workers sweep", "--", f"{1000 * two_elapsed:.0f} ms"),
            ("speedup from the second worker", "> 1x", f"{ratio:.2f}x"),
        ],
    )
    if (os.cpu_count() or 1) < 2:
        pytest.skip("single-CPU host: no parallel speedup to assert")
    assert ratio > 1.1, (
        f"two workers should outrun one on {requests} concurrent requests "
        f"(got {ratio:.2f}x)"
    )
