"""Worker layer spans: every handler times its decode and its encode.

Under ``worker.execute`` each operation opens ``worker.decode`` around
the document parse and ``worker.encode`` around turning its result into
the wire dictionary, so a slow request's worker self time splits into
parse, compute and serialisation from the trace alone.
"""

import pytest

from repro import telemetry
from repro.core.satpipeline import clear_pipelines, live_pipelines
from repro.io.json_io import document_to_dict
from repro.scenarios.figures import example31_setting
from repro.scenarios.flights import flights_instance
from repro.service.protocol import canonical_bytes
from repro.service.workers import execute_request, traced_execute_request


def document() -> dict:
    return document_to_dict(example31_setting(), flights_instance())


REQUESTS = {
    "exists": {"document": document()},
    "certain": {"document": document(), "query": "f . h", "pair": None},
    "certain-pair": {"document": document(), "query": "f . h", "pair": ["c1", "hx"]},
    "chase": {"document": document()},
    "evaluate_batch": {"document": document(), "queries": ["f", "f . h"]},
    "apply_updates": {
        "document": document(),
        "updates": [{"op": "insert", "relation": "Hotel", "tuple": ["02", "hz"]}],
        "queries": ["f"],
    },
}


@pytest.fixture
def traced():
    telemetry.set_enabled(True)
    yield
    telemetry.set_enabled(None)


@pytest.mark.parametrize("name", sorted(REQUESTS))
def test_decode_and_encode_nest_under_worker_execute(traced, name):
    op = name.split("-")[0]
    envelope = traced_execute_request(op, dict(REQUESTS[name], star_bound=2))
    assert "__error__" not in envelope["value"]
    root = envelope["telemetry"]["span"]
    assert root["name"] == "worker.execute"
    children = [child["name"] for child in root["children"]]
    assert children.count("worker.decode") == 1
    assert children.count("worker.encode") == 1
    # Decode opens the request; encode follows the compute.  With no warm
    # SAT pipeline, apply_updates builds none (cold_update_builds_no_solver).
    assert children[0] == "worker.decode"
    assert children.index("worker.encode") > 0


def span_names(node: dict) -> set[str]:
    names = {node["name"]}
    for child in node.get("children", ()):
        names |= span_names(child)
    return names


def test_cold_update_builds_no_solver(traced):
    clear_pipelines()
    envelope = traced_execute_request(
        "apply_updates", dict(REQUESTS["apply_updates"], star_bound=2)
    )
    assert "__error__" not in envelope["value"]
    assert "solver.build" not in span_names(envelope["telemetry"]["span"])
    assert live_pipelines() == []


def test_spans_leave_the_response_unchanged(traced):
    params = dict(REQUESTS["exists"], star_bound=2)
    envelope = traced_execute_request("exists", params)
    telemetry.set_enabled(False)
    assert canonical_bytes(envelope["value"]) == canonical_bytes(
        execute_request("exists", params)
    )
