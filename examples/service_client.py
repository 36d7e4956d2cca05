#!/usr/bin/env python3
"""Drive the exchange service over the multi-tenant workload and verify it.

Connects to a running ``repro serve`` instance (``--port``), or starts an
embedded two-worker server when no port is given, then:

1. replays the parameterised multi-tenant workload
   (:func:`repro.scenarios.service_workload.multi_tenant_workload`) —
   ``exists``, ``chase``, one ``evaluate_batch`` and one whole-set
   ``certain`` per query of each case;
2. recomputes every answer with **direct library calls** (the same
   :func:`repro.service.workers.execute_request` entry point the workers
   run) and asserts the service responses are byte-identical;
3. replays one request twice and shows the result-cache hit;
4. prints the server's telemetry snapshot.

Run:  python examples/service_client.py [--host H] [--port P] [--workers N]

Exits non-zero on any mismatch — the CI smoke job runs this script against
a real ``repro serve`` process.
"""

from __future__ import annotations

import argparse
import sys

from repro.scenarios.service_workload import (
    case_requests,
    demo_document,
    multi_tenant_workload,
)
from repro.service.client import ServiceClient
from repro.service.protocol import canonical_bytes
from repro.service.server import start_in_thread
from repro.service.workers import execute_request


def _direct(op: str, params: dict) -> dict:
    """The ground truth: the same handler the service workers execute."""
    result = execute_request(op, params)
    assert "__error__" not in result, f"direct {op} call failed: {result}"
    return result


def verify_case(client: ServiceClient, case) -> int:
    """Replay one workload case; return the number of verified responses.

    Each response must be byte-identical to the direct library call with
    the same parameters.
    """
    checked = 0
    for op, params in case_requests(case):
        served = client.call(op, params)
        expected = _direct(op, params)
        if canonical_bytes(served) != canonical_bytes(expected):
            raise AssertionError(
                f"{case.name}/{op}: service response differs from the "
                f"direct library call\n  served:   {served}\n"
                f"  expected: {expected}"
            )
        checked += 1
    return checked


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=None,
        help="port of a running service (default: start an embedded one)",
    )
    parser.add_argument(
        "--workers", type=int, default=2,
        help="workers for the embedded server (ignored with --port)",
    )
    parser.add_argument("--tenants", type=int, default=3)
    parser.add_argument("--instances", type=int, default=2)
    args = parser.parse_args(argv)

    handle = None
    if args.port is None:
        handle = start_in_thread(workers=args.workers)
        host, port = handle.host, handle.port
        print(f"embedded service on {host}:{port} ({args.workers} workers)")
    else:
        host, port = args.host, args.port

    try:
        with ServiceClient(host, port) as client:
            print(f"ping -> {client.ping()}")
            total = 0
            for case in multi_tenant_workload(
                tenants=args.tenants, instances_per_tenant=args.instances
            ):
                checked = verify_case(client, case)
                total += checked
                print(f"  {case.name}: {checked} responses byte-identical")

            # The result cache: the same request again is a dictionary hit.
            params = {"document": demo_document(),
                      "query": "f . f*[h] . f- . (f-)*", "pair": None,
                      "star_bound": 2}
            first = client.request("certain", params)
            second = client.request("certain", params)
            assert first["result"] == second["result"]
            print(f"repeat request served from cache: {second['cached']}")

            stats = client.stats()
            print(f"server stats: jobs={stats['jobs']} cache={stats['cache']}")
            print(f"VERIFIED: {total} service responses match direct library calls")
    finally:
        if handle is not None:
            handle.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
