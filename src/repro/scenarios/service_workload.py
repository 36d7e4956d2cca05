"""The multi-tenant serving workload: settings × instances × query mixes.

The service benchmarks, the CI smoke job, and the service examples all
need the same thing — a reproducible stream of *distinct* exchange
documents with known-good query mixes, shaped like multi-tenant traffic:
several tenants, each with its own data-exchange setting, several
instances per tenant, and a repertoire of NRE queries per case.  This
module is that stream, parameterised and seeded.

Tenants cycle through the paper's three constraint regimes (they exercise
three different engine paths):

* ``egd``    — Ω with the hotel egd: existence via the chase + candidate
  search, certain answers via the minimal-solution enumeration;
* ``sameas`` — Ω′ with the hotel sameAs constraint: the Section 4.2
  constructive algorithm;
* ``free``   — no target constraints: pattern instantiation.

:func:`cold_documents` additionally manufactures a stream of documents
with pairwise-distinct instance fingerprints (a unique tag fact each), so
latency/throughput measurements can force a cache-cold universe per
request.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.setting import DataExchangeSetting
from repro.io.json_io import document_to_dict
from repro.relational.instance import RelationalInstance
from repro.scenarios.flights import (
    flights_instance,
    setting_no_constraints,
    setting_omega,
    setting_omega_prime,
)
from repro.scenarios.generators import random_flights_instance

QUERY_MIXES: dict[str, tuple[str, ...]] = {
    "paper": ("f . f*[h] . f- . (f-)*", "h . h", "f . f-"),
    "stars": ("f*", "f . f*", "(f + h) . (f- + h-)"),
    "words": ("f . f-", "h", "f . h"),
}
"""Named query repertoires, each exercising different NRE operators."""


@dataclass(frozen=True, eq=False)
class WorkloadCase:
    """One (tenant, instance, query mix) cell of the workload grid."""

    name: str
    tenant: str
    mix: str
    setting: DataExchangeSetting
    instance: RelationalInstance
    queries: tuple[str, ...]

    def document(self) -> dict:
        """The wire-ready exchange document for this case."""
        return document_to_dict(self.setting, self.instance)


_TENANTS: tuple[tuple[str, object], ...] = (
    ("egd", setting_omega),
    ("sameas", setting_omega_prime),
    ("free", setting_no_constraints),
)


def multi_tenant_workload(
    tenants: int = 3,
    instances_per_tenant: int = 2,
    seed: int = 7,
    flights: int = 3,
    cities: int = 3,
    hotels: int = 2,
) -> list[WorkloadCase]:
    """Build the workload grid: ``tenants × instances_per_tenant`` cases.

    Deterministic in ``seed``.  The first instance of every tenant is the
    paper's Example 2.2 instance (so pinned expectations stay checkable);
    the rest are small random Flight/Hotel instances.  Query mixes rotate
    through :data:`QUERY_MIXES` so consecutive cases stress different
    evaluation paths.
    """
    rng = random.Random(seed)
    mix_names = sorted(QUERY_MIXES)
    cases: list[WorkloadCase] = []
    for tenant_index in range(tenants):
        tenant_name, make_setting = _TENANTS[tenant_index % len(_TENANTS)]
        setting = make_setting()
        for instance_index in range(instances_per_tenant):
            if instance_index == 0:
                instance = flights_instance()
            else:
                instance = random_flights_instance(
                    flights, cities=cities, hotels=hotels, max_stops=2, rng=rng
                )
            mix = mix_names[(tenant_index + instance_index) % len(mix_names)]
            cases.append(
                WorkloadCase(
                    name=f"t{tenant_index}-{tenant_name}-i{instance_index}-{mix}",
                    tenant=f"t{tenant_index}-{tenant_name}",
                    mix=mix,
                    setting=setting,
                    instance=instance,
                    queries=QUERY_MIXES[mix],
                )
            )
    return cases


def case_requests(case: WorkloadCase) -> list[tuple[str, dict]]:
    """The ``(op, params)`` request list one workload case replays.

    One ``exists``, one ``chase``, one ``evaluate_batch``, and one
    whole-set ``certain`` per query of the case's mix.
    """
    document = case.document()
    requests: list[tuple[str, dict]] = [
        ("exists", {"document": document, "star_bound": 2}),
        ("chase", {"document": document}),
        ("evaluate_batch", {"document": document,
                            "queries": list(case.queries), "star_bound": 2}),
    ]
    requests.extend(
        ("certain", {"document": document, "query": query, "pair": None,
                     "star_bound": 2})
        for query in case.queries
    )
    return requests


def demo_document() -> dict:
    """The paper's running example as a wire-ready exchange document."""
    return document_to_dict(setting_omega(), flights_instance())


def cold_documents(
    count: int,
    seed: int = 11,
    flights: int = 2,
    cities: int = 3,
    hotels: int = 2,
) -> list[dict]:
    """``count`` Ω-documents with pairwise-distinct instance fingerprints.

    Each document carries a unique tag flight (``coldNNNN``), so every
    per-universe cache in the stack — the service result cache aside, the
    SAT pipelines and the engine's cross-candidate cache are all keyed by
    instance fingerprint — sees a never-before-seen universe.  This is the
    cache-cold request stream for the latency and throughput benchmarks.
    """
    rng = random.Random(seed)
    setting = setting_omega()
    documents: list[dict] = []
    for index in range(count):
        instance = random_flights_instance(
            flights, cities=cities, hotels=hotels, max_stops=2, rng=rng
        )
        instance.add("Flight", (f"cold{index:04d}", "c1", "c2"))
        documents.append(document_to_dict(setting, instance))
    return documents
