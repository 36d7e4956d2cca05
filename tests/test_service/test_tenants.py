"""The worker's tenant cache: one chase per tenant document.

On the Section 3.1 fragment with egds the ``exists``, whole-set
``certain`` and ``evaluate_batch`` handlers read one cached chase result
per tenant.  The contract: a repeat question about a tenant does no chase
work, every response stays byte-identical to the direct library call,
failed chases are cached, chases that raise are not, nothing mutates a
cached graph, the LRU holds to its edge budget, and library calls never
read the cache.
"""

import pytest

from repro import telemetry
from repro.core import existence
from repro.core.certain import certain_answers_batch, certain_answers_nre
from repro.core.existence import decide_existence
from repro.core.search import CandidateSearchConfig
from repro.core.setting import DataExchangeSetting
from repro.graph.parser import parse_nre
from repro.io.json_io import document_from_dict, document_to_dict
from repro.mappings.parser import parse_egd, parse_st_tgd
from repro.relational.instance import RelationalInstance
from repro.relational.schema import RelationalSchema
from repro.scenarios.figures import example31_setting
from repro.scenarios.flights import flights_instance
from repro.scenarios.scale import GeneratorConfig, scale_document, workload_queries
from repro.scenarios.service_workload import demo_document
from repro.service import tenants
from repro.service.protocol import canonical_bytes
from repro.service.tenants import TenantCache, in_cached_fragment, tenant_cache
from repro.service.workers import (
    certain_answers_to_dict,
    execute_request,
    existence_result_to_dict,
)

QUERIES = list(workload_queries("social"))
CONFIG = CandidateSearchConfig(star_bound=2)


def social_document(seed: int = 1, nodes: int = 30) -> dict:
    return scale_document(GeneratorConfig(family="social", nodes=nodes, seed=seed))


def failing_document() -> dict:
    """Two constants forced together by an injectivity egd: no solution."""
    schema = RelationalSchema()
    schema.declare("R", 2)
    setting = DataExchangeSetting(
        schema,
        {"h"},
        [parse_st_tgd("R(x, y) -> (x, h, y)", name="R_h")],
        [parse_egd("(x1, h, z), (x2, h, z) -> x1 = x2", name="inj")],
        name="fail",
    )
    instance = RelationalInstance(schema, {"R": [("a", "u"), ("b", "u")]})
    return document_to_dict(setting, instance)


def params(document, **extra):
    base = {"document": document, "star_bound": 2}
    base.update(extra)
    return base


@pytest.fixture
def counters():
    """Telemetry on, registry reset; yields a counter-snapshot function."""
    telemetry.set_enabled(True)
    telemetry.get_registry().reset()
    yield telemetry.get_registry().snapshot_counters
    telemetry.set_enabled(None)


def moved(before: dict, after: dict, prefix: str) -> dict:
    return {
        name: value - before.get(name, 0)
        for name, value in after.items()
        if name.startswith(prefix) and value != before.get(name, 0)
    }


def test_the_cached_fragment_is_single_symbol_heads_with_egds():
    setting, _ = document_from_dict(social_document())
    assert in_cached_fragment(setting)
    demo_setting, _ = document_from_dict(demo_document())
    assert not in_cached_fragment(demo_setting)  # star heads: library path


class TestOneChasePerTenant:
    def test_repeat_questions_do_no_chase_work(self, counters):
        document = social_document()
        execute_request("exists", params(document))
        before = counters()
        certain = execute_request(
            "certain", params(document, query=QUERIES[0], pair=None)
        )
        batch = execute_request("evaluate_batch", params(document, queries=QUERIES))
        after = counters()
        # Only the hit counter moves: no s-t application, egd firing, merge.
        assert moved(before, after, "chase.") == {"chase.tenant_hits": 2}
        setting, instance = document_from_dict(document)
        expected_certain = certain_answers_to_dict(
            certain_answers_nre(setting, instance, parse_nre(QUERIES[0]), config=CONFIG)
        )
        expected_batch = [
            certain_answers_to_dict(result)
            for result in certain_answers_batch(
                setting, instance, [parse_nre(q) for q in QUERIES], config=CONFIG
            )
        ]
        assert canonical_bytes(certain) == canonical_bytes(expected_certain)
        assert canonical_bytes(batch["results"]) == canonical_bytes(expected_batch)

    def test_exists_from_the_cache_equals_decide_existence(self):
        document = social_document(seed=2)
        first = execute_request("exists", params(document))
        again = execute_request("exists", params(document))
        setting, instance = document_from_dict(document)
        expected = existence_result_to_dict(
            decide_existence(setting, instance, search_config=CONFIG)
        )
        assert first["method"] == "relational-chase"
        assert canonical_bytes(first) == canonical_bytes(expected)
        assert canonical_bytes(again) == canonical_bytes(expected)
        assert tenant_cache().stats()["hits"] == 1

    def test_exists_verifies_every_cached_witness(self, monkeypatch):
        document = social_document(seed=3)
        execute_request("exists", params(document))
        verified = []
        real = existence.is_solution

        def counting(*args):
            verified.append(1)
            return real(*args)

        monkeypatch.setattr(existence, "is_solution", counting)
        execute_request("exists", params(document))
        assert verified == [1]

    @pytest.mark.parametrize("backend", ["dict", "csr"])
    def test_serving_never_mutates_a_cached_graph(self, backend):
        document = social_document(seed=4)
        setting, instance = document_from_dict(document)
        chase = tenant_cache().chase(setting, instance)
        version, edges = chase.graph.version, chase.graph.edges()
        execute_request("exists", params(document, backend=backend))
        execute_request(
            "certain", params(document, query=QUERIES[1], pair=None, backend=backend)
        )
        execute_request(
            "evaluate_batch", params(document, queries=QUERIES, backend=backend)
        )
        assert tenant_cache().chase(setting, instance) is chase
        assert chase.graph.version == version
        assert chase.graph.edges() == edges

    def test_failed_chase_is_cached_and_answered_identically(self, counters):
        document = failing_document()
        first = execute_request("exists", params(document))
        before = counters()
        again = execute_request("exists", params(document))
        certain = execute_request("certain", params(document, query="h", pair=None))
        batch = execute_request("evaluate_batch", params(document, queries=["h"]))
        after = counters()
        assert moved(before, after, "chase.") == {"chase.tenant_hits": 3}
        setting, instance = document_from_dict(document)
        expected = existence_result_to_dict(
            decide_existence(setting, instance, search_config=CONFIG)
        )
        assert expected["method"] == "chase-failure"
        assert canonical_bytes(first) == canonical_bytes(expected)
        assert canonical_bytes(again) == canonical_bytes(expected)
        expected_certain = certain_answers_to_dict(
            certain_answers_nre(setting, instance, parse_nre("h"), config=CONFIG)
        )
        assert expected_certain["no_solution"] is True
        assert canonical_bytes(certain) == canonical_bytes(expected_certain)
        assert canonical_bytes(batch["results"]) == canonical_bytes([expected_certain])

    def test_a_chase_that_raised_leaves_no_entry(self, monkeypatch):
        document = social_document(seed=5)

        def broken(setting, instance):
            raise RuntimeError("chase interrupted")

        monkeypatch.setattr(tenants, "chase_universal", broken)
        marker = execute_request("exists", params(document))
        assert marker["__error__"]["code"] == "internal-error"
        assert tenant_cache().stats()["entries"] == 0
        monkeypatch.undo()
        served = execute_request("exists", params(document))
        assert served["status"] == "exists"
        assert tenant_cache().stats()["entries"] == 1

    def test_library_calls_never_read_the_cache(self, counters):
        document = social_document(seed=6)
        execute_request("exists", params(document))
        setting, instance = document_from_dict(document)
        before = counters()
        decide_existence(setting, instance)
        certain_answers_nre(setting, instance, parse_nre(QUERIES[0]))
        after = counters()
        work = moved(before, after, "chase.")
        assert work["chase.st_applications"] > 0
        assert "chase.tenant_hits" not in work


class TestEdgeBudget:
    def _tenant(self, seed: int):
        setting, instance = document_from_dict(social_document(seed=seed, nodes=20))
        return setting, instance

    def test_lru_eviction_at_the_edge_budget(self, counters):
        a, b, c = (self._tenant(seed) for seed in (11, 12, 13))
        sizes = []
        for setting, instance in (a, b, c):
            probe = TenantCache()
            sizes.append(probe.chase(setting, instance).graph.edge_count() + 1)
        # Room for the two largest entries, never for all three.
        cache = TenantCache(edge_budget=sum(sizes) - min(sizes))
        cache.chase(*a)
        cache.chase(*b)
        cache.chase(*a)  # a is now the most recent
        cache.chase(*c)
        stats = cache.stats()
        assert stats["evictions"] >= 1
        assert stats["edges"] <= cache.edge_budget
        assert counters().get("chase.tenant_evictions", 0) == stats["evictions"]
        hits = cache.hits
        cache.chase(*c)
        assert cache.hits == hits + 1  # the newest entry survived
        cache.chase(*b)
        assert cache.hits == hits + 1  # b was the least recent: evicted

    def test_an_entry_larger_than_the_budget_is_not_stored(self):
        setting, instance = self._tenant(14)
        cache = TenantCache(edge_budget=5)
        result = cache.chase(setting, instance)
        assert result.graph.edge_count() > 5
        assert cache.stats()["entries"] == 0
        assert cache.stats()["edges"] == 0

    def test_incremental_states_share_the_budget(self):
        setting, instance = example31_setting(), flights_instance()
        cache = TenantCache()
        state = cache.checkout_incremental(setting, instance)
        assert cache.stats()["misses"] == 1
        cache.checkin_incremental(state)
        assert cache.stats()["edges"] == state.edge_count + 1
        assert cache.checkout_incremental(setting, instance) is state
        assert cache.stats() == {
            "edges": 0, "entries": 0, "evictions": 0, "hits": 1, "misses": 1,
        }
