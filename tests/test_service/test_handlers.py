"""The worker handlers: direct execution, library equivalence, batching."""

import dataclasses

import pytest

from oracles import ReferenceEngine
from repro.core.certain import (
    _enumerated_certain_answers,
    _enumerated_certain_batch,
    certain_answers_batch,
    certain_answers_nre,
)
from repro.core.existence import decide_existence
from repro.core.search import CandidateSearchConfig
from repro.graph.parser import parse_nre
from repro.io.json_io import document_from_dict, document_to_dict
from repro.scenarios.flights import flights_instance, setting_omega
from repro.scenarios.service_workload import (
    QUERY_MIXES,
    demo_document,
    multi_tenant_workload,
)
from repro.service.protocol import canonical_bytes
from repro.service.tenants import tenant_cache
from repro.service.workers import (
    certain_answers_to_dict,
    execute_request,
    existence_result_to_dict,
)

QUERY = "f . f*[h] . f- . (f-)*"


def params(document, **extra):
    base = {"document": document, "star_bound": 2}
    base.update(extra)
    return base


class TestHandlersMatchLibrary:
    """The handlers are thin, deterministic wrappers over the library."""

    def test_exists_equals_decide_existence(self):
        document = demo_document()
        served = execute_request("exists", params(document))
        setting, instance = document_from_dict(document)
        expected = existence_result_to_dict(
            decide_existence(
                setting, instance, search_config=CandidateSearchConfig(star_bound=2)
            )
        )
        assert canonical_bytes(served) == canonical_bytes(expected)

    def test_certain_equals_certain_answers_nre(self):
        document = demo_document()
        served = execute_request("certain", params(document, query=QUERY, pair=None))
        setting, instance = document_from_dict(document)
        expected = certain_answers_to_dict(
            certain_answers_nre(
                setting, instance, parse_nre(QUERY),
                config=CandidateSearchConfig(star_bound=2),
            )
        )
        assert canonical_bytes(served) == canonical_bytes(expected)
        assert served["answers"] == [["c1", "c1"], ["c1", "c3"],
                                     ["c3", "c1"], ["c3", "c3"]]

    def test_certain_pair_modes(self):
        document = demo_document()
        certain = execute_request(
            "certain", params(document, query=QUERY, pair=["c1", "c3"])
        )
        assert certain["certain"] is True and certain["counterexample"] is None
        refuted = execute_request(
            "certain", params(document, query=QUERY, pair=["c1", "c2"])
        )
        assert refuted["certain"] is False
        assert refuted["counterexample"]["edges"]  # a machine-checked solution

    def test_chase_shape(self):
        served = execute_request("chase", {"document": demo_document()})
        assert served["failed"] is False and served["failure"] is None
        assert len(served["pattern"]["edges"]) == 7
        # The stats block is ChaseStats.as_dict(): every dataclass counter
        # plus the derived total — one source of truth for the wire shape.
        assert served["stats"]["null_merges"] == 1
        assert served["stats"]["st_applications"] == 3
        assert served["stats"]["triggers_fired"] >= 3
        from repro.chase.result import ChaseStats

        assert set(served["stats"]) == set(ChaseStats().as_dict())

    def test_reference_engine_agrees(self):
        document = demo_document()
        compiled = execute_request("certain", params(document, query=QUERY, pair=None))
        setting, instance = document_from_dict(document)
        reference = _enumerated_certain_answers(
            setting, instance, parse_nre(QUERY),
            CandidateSearchConfig(star_bound=2), ReferenceEngine(),
        )
        assert compiled["answers"] == certain_answers_to_dict(reference)["answers"]


class TestEvaluateBatch:
    def test_batch_answers_equal_per_query_calls(self):
        for case in multi_tenant_workload(tenants=3, instances_per_tenant=1):
            document = case.document()
            batch = execute_request(
                "evaluate_batch", params(document, queries=list(case.queries))
            )
            assert batch["queries"] == list(case.queries)
            for query, result in zip(case.queries, batch["results"]):
                single = execute_request(
                    "certain", params(document, query=query, pair=None)
                )
                assert result["answers"] == single["answers"], (case.name, query)
                assert result["no_solution"] == single["no_solution"]

    def test_batch_shares_one_enumeration(self):
        """Non-SAT queries share a single minimal-solution pass."""
        setting, instance = setting_omega(), flights_instance()
        queries = [parse_nre(q) for q in QUERY_MIXES["paper"]]
        results = certain_answers_batch(setting, instance, queries)
        enumerated = [r for r in results if r.method.startswith("batched")]
        assert enumerated, "Ω's egd is not SAT-encodable: enumeration must run"
        # Every enumerated query reports the same shared pass.
        assert len({r.solutions_examined for r in enumerated}) == 1

    def test_batch_equals_singles_under_reference_engine(self):
        setting, instance = setting_omega(), flights_instance()
        queries = [parse_nre(q) for q in QUERY_MIXES["paper"]]
        config = CandidateSearchConfig(star_bound=2)
        batch = _enumerated_certain_batch(
            setting, instance, queries, config, ReferenceEngine()
        )
        for query, batched in zip(queries, batch):
            single = _enumerated_certain_answers(
                setting, instance, query, config, ReferenceEngine()
            )
            assert batched.answers == single.answers

    def test_empty_batch(self):
        assert certain_answers_batch(setting_omega(), flights_instance(), []) == []


class TestErrorMarkers:
    def test_unknown_op(self):
        marker = execute_request("frobnicate", {})
        assert marker["__error__"]["code"] == "unknown-op"

    def test_unparseable_query_is_bad_request(self):
        marker = execute_request(
            "certain", params(demo_document(), query="f . (", pair=None)
        )
        assert marker["__error__"]["code"] == "bad-request"

    def test_malformed_document_is_bad_request(self):
        marker = execute_request("exists", params({"setting": {}}))
        assert marker["__error__"]["code"] == "bad-request"

    def test_handlers_never_raise(self):
        # Garbage of every shape must come back as a marker, not an exception.
        for garbage in [{}, {"document": None}, {"document": 42}]:
            marker = execute_request("chase", garbage)
            assert "__error__" in marker


class TestFailingChaseDocument:
    def test_chase_failure_reported(self):
        from repro.mappings.parser import parse_egd, parse_st_tgd
        from repro.core.setting import DataExchangeSetting
        from repro.relational.instance import RelationalInstance
        from repro.relational.schema import RelationalSchema

        schema = RelationalSchema()
        schema.declare("R", 2)
        instance = RelationalInstance(schema, {"R": [("u", "v"), ("w", "v")]})
        setting = DataExchangeSetting(
            schema,
            {"h"},
            [parse_st_tgd("R(x, y) -> (x, h, y)")],
            [parse_egd("(x1, h, z), (x2, h, z) -> x1 = x2")],
        )
        served = execute_request(
            "chase", {"document": document_to_dict(setting, instance)}
        )
        assert served["failed"] is True and served["pattern"] is None
        assert sorted(served["failure"]) == ["u", "w"]


class TestFrozenWitness:
    """A tenant whose cached witness is frozen answers byte-identically.

    Frozen graphs answer through the same product search as dict graphs,
    reading their CSR buffers through dict-shaped views, and the
    matcher's solution check reads the same views.  Swapping every
    cached chase result for its frozen twin must not change one byte of
    any response.
    """

    @staticmethod
    def _freeze_cached_witnesses() -> int:
        cache = tenant_cache()
        frozen = 0
        for key, (result, size) in list(cache._entries.items()):
            if key[0] == "chase" and result.graph is not None:
                cache._entries[key] = (
                    dataclasses.replace(result, graph=result.graph.freeze()),
                    size,
                )
                frozen += 1
        return frozen

    @pytest.mark.parametrize("family", ["medlit", "social"])
    def test_frozen_witness_responses_equal_dict_witness(self, family):
        from repro.engine.query import default_engine
        from repro.scenarios.scale import (
            GeneratorConfig,
            scale_document,
            workload_queries,
        )

        document = scale_document(GeneratorConfig(family=family, nodes=60, seed=3))
        queries = list(workload_queries(family))
        requests = [
            ("exists", params(document)),
            ("evaluate_batch", params(document, queries=queries)),
        ] + [
            ("certain", params(document, query=query, pair=None))
            for query in queries
        ]
        on_dict = [execute_request(op, p) for op, p in requests]
        assert self._freeze_cached_witnesses() == 1
        default_engine().clear()  # evaluate afresh on the frozen graph
        on_frozen = [execute_request(op, p) for op, p in requests]
        for (op, _), dict_served, frozen_served in zip(requests, on_dict, on_frozen):
            assert "__error__" not in dict_served, op
            assert canonical_bytes(frozen_served) == canonical_bytes(dict_served), op
        assert on_dict[0]["status"] == "exists"
        assert any(result["answers"] for result in on_dict[1]["results"])


class TestSnapshotWarmExists:
    """REPRO_SNAPSHOT_DIR turns on the per-tenant witness snapshot store."""

    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SNAPSHOT_DIR", raising=False)
        from repro.service.workers import snapshot_store

        assert snapshot_store() is None

    def test_warm_exists_serves_the_verified_snapshot(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SNAPSHOT_DIR", str(tmp_path))
        document = demo_document()
        cold = execute_request("exists", params(document))
        assert cold["status"] == "exists"
        assert cold["method"] != "snapshot-witness"
        warm = execute_request("exists", params(document))
        assert warm["status"] == "exists"
        assert warm["method"] == "snapshot-witness"
        # The restored witness is the same verified solution graph.
        assert warm["witness"] == cold["witness"]

    def test_damaged_snapshot_falls_back_to_the_full_decision(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_SNAPSHOT_DIR", str(tmp_path))
        from repro.service.workers import _witness_key, snapshot_store
        from repro.service.protocol import validate_request

        document = demo_document()
        request = validate_request(
            {"id": "r1", "op": "exists", "params": {"document": document}}
        )
        execute_request("exists", request.params)
        store = snapshot_store()
        path = store.path_for(_witness_key(request.params))
        with open(path, "wb") as handle:
            handle.write(b"damaged")
        served = execute_request("exists", request.params)
        assert served["status"] == "exists"
        assert served["method"] != "snapshot-witness"

    def test_snapshot_key_includes_the_document(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SNAPSHOT_DIR", str(tmp_path))
        from repro.scenarios.service_workload import cold_documents

        first, second = cold_documents(2)
        cold = execute_request("exists", params(first))
        other = execute_request("exists", params(second))
        assert other["method"] != "snapshot-witness"
        warm = execute_request("exists", params(first))
        assert warm["method"] == "snapshot-witness"
        assert warm["witness"] == cold["witness"]
