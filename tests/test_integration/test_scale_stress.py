"""Scale-stress integration: the 10^3 smoke tier of the nightly harness.

The nightly CI tier drives ``benchmarks/bench_scale.py`` at 10^5–10^6
nodes; this module is the tier-1 smoke slice of the same pipeline at
10^3: chase-then-evaluate on the chased graph and its frozen twin, the downsampled
SAT decision, snapshot byte-identity, the service request stream against
direct library calls, a subprocess run of the harness itself, and the
500-batch insert/delete soak through :class:`IncrementalChase` with
from-scratch oracle checkpoints and O(affected) telemetry pinning.
"""

import json
import subprocess
import sys

import pytest

from repro import telemetry
from repro.chase.relational_chase import chase_relational
from repro.core.satpipeline import pipeline_for
from repro.engine.incremental import IncrementalChase
from repro.engine.query import QueryEngine
from repro.graph.parser import parse_nre
from repro.graph.snapshot import load_snapshot, save_snapshot
from repro.io.json_io import graph_to_dict
from repro.scenarios.scale import (
    FAMILIES,
    GeneratorConfig,
    generate_instance,
    scale_document,
    scale_setting,
    update_stream,
    workload_queries,
)
from repro.service.protocol import canonical_bytes
from repro.service.server import start_in_thread
from repro.service.workers import execute_request
from repro.telemetry import get_registry

SMOKE_NODES = 1_000
SAT_DOWNSAMPLE = {"medlit": 12, "social": 4}


@pytest.fixture(scope="module", params=FAMILIES)
def family_state(request):
    """One chased 10^3 tenant per family, shared across the smoke tests."""
    family = request.param
    config = GeneratorConfig(family=family, nodes=SMOKE_NODES, seed=7)
    setting = scale_setting(family)
    instance = generate_instance(config)
    chased = chase_relational(
        setting.st_tgds, setting.egds(), instance, alphabet=setting.alphabet
    )
    assert not chased.failed
    return family, config, setting, instance, chased.expect_graph()


class TestChaseThenEvaluate:
    def test_universal_solution_is_substantial(self, family_state):
        family, config, setting, instance, graph = family_state
        # The generated tenant genuinely exercises the chase: existential
        # nulls were invented and egds merged them down.
        assert graph.edge_count() > instance.size()
        assert graph.node_count() > SMOKE_NODES

    def test_backends_agree_on_every_workload_query(self, family_state):
        family, config, setting, instance, graph = family_state
        frozen = graph.freeze()
        for text in workload_queries(family):
            query = parse_nre(text)
            on_dict = QueryEngine().pairs(graph, query)
            on_frozen = QueryEngine().pairs(frozen, query)
            assert on_dict == on_frozen, (family, text)
            assert on_frozen, (family, text)  # the mix is non-vacuous


class TestSatDownsample:
    def test_pipeline_decides_the_downsample(self, family_state):
        family, config, setting, instance, graph = family_state
        small = generate_instance(config.scaled(nodes=SAT_DOWNSAMPLE[family]))
        pipeline = pipeline_for(setting, small)
        assert pipeline is not None, f"{family} must stay SAT-encodable"
        assert pipeline.has_solution()


class TestSnapshotRoundTrip:
    def test_snapshot_bytes_survive_save_load(self, family_state, tmp_path):
        family, config, setting, instance, graph = family_state
        path = str(tmp_path / f"{family}.snap")
        save_snapshot(graph.freeze(), path)
        restored = load_snapshot(path)
        assert canonical_bytes(graph_to_dict(restored)) == canonical_bytes(
            graph_to_dict(graph)
        )


class TestServiceStream:
    def test_served_answers_equal_direct_execution(self, family_state):
        family, config, setting, instance, graph = family_state
        document = scale_document(config.scaled(nodes=200))
        queries = list(workload_queries(family))
        handle = start_in_thread(workers=1, metrics_port=0)
        try:
            with handle.client(timeout=300.0) as client:
                served_exists = client.exists(document)
                served_batch = client.evaluate_batch(document, queries)
                served_single = client.certain(document, queries[0])
        finally:
            handle.close()
        params = {"document": document, "star_bound": 2}
        direct_exists = execute_request("exists", dict(params))
        assert served_exists["status"] == direct_exists["status"] == "exists"
        direct_batch = execute_request(
            "evaluate_batch", dict(params, queries=queries)
        )
        assert canonical_bytes(served_batch) == canonical_bytes(direct_batch)
        direct_single = execute_request(
            "certain", dict(params, query=queries[0], pair=None)
        )
        assert canonical_bytes(served_single) == canonical_bytes(direct_single)
        assert served_single["answers"], (family, queries[0])


class TestBenchHarnessSmoke:
    def test_bench_scale_subprocess_export_and_gate(self, tmp_path):
        """The harness itself runs, exports, and gates at a tiny size."""
        raw = tmp_path / "raw.json"
        subprocess.run(
            [
                sys.executable, "benchmarks/bench_scale.py",
                "--sizes", "120", "--rounds", "1",
                "--service-requests", "6",
                "--max-rss-gb", "4",
                "--out", str(raw),
            ],
            check=True,
            cwd="/root/repo",
            capture_output=True,
            text=True,
        )
        report = json.loads(raw.read_text())
        names = {bench["name"] for bench in report["benchmarks"]}
        for family in FAMILIES:
            for stage in ("gen", "chase", "csr_freeze",
                          "sat_decide", "snapshot_save", "snapshot_load",
                          "service_p50", "service_p99"):
                assert f"{family}/n120/{stage}" in names
        assert report["scale"]["peak_rss_bytes"] > 0

        exported = tmp_path / "BENCH_SCALE.json"
        subprocess.run(
            [
                sys.executable, "benchmarks/export_medians.py",
                str(raw), str(exported), "--tag", "scale",
            ],
            check=True, cwd="/root/repo", capture_output=True,
        )
        document = json.loads(exported.read_text())
        assert document["meta"]["tag"] == "scale"
        assert all(name.startswith("scale/") for name in document["medians"])
        # The gate accepts a run against its own export (ratio 1.0).
        subprocess.run(
            [
                sys.executable, "benchmarks/compare_medians.py",
                str(exported), str(exported), "--tolerance", "0.25",
            ],
            check=True, cwd="/root/repo", capture_output=True,
        )


class TestIncrementalSoak:
    """500 update batches through the incremental engine, oracle-checked."""

    CHECKPOINT_EVERY = 100
    BATCHES = 500
    OPS_PER_BATCH = 4

    def test_soak_matches_oracle_and_stays_o_affected(self):
        config = GeneratorConfig(family="medlit", nodes=250, seed=13)
        setting = scale_setting("medlit")
        telemetry.set_enabled(True)
        try:
            live = IncrementalChase(setting, generate_instance(config))
            # Flush the bootstrap's counters into the registry so the
            # deltas below cover exactly the 500 soak batches.
            live.apply_updates([])
            registry = get_registry()
            before = registry.snapshot_counters()
            stats_before = live.stats.summary()
            total_ops = 0
            for index, batch in enumerate(
                update_stream(
                    config, batches=self.BATCHES,
                    ops_per_batch=self.OPS_PER_BATCH,
                ),
                start=1,
            ):
                live.apply_updates(batch)
                total_ops += len(batch)
                if index % self.CHECKPOINT_EVERY == 0:
                    oracle = chase_relational(
                        setting.st_tgds, setting.egds(), live.instance,
                        alphabet=setting.alphabet,
                    )
                    assert not oracle.failed
                    assert canonical_bytes(
                        graph_to_dict(live.chase_result().graph)
                    ) == canonical_bytes(graph_to_dict(oracle.graph)), (
                        f"drift at checkpoint {index}"
                    )
            after = registry.snapshot_counters()
        finally:
            telemetry.set_enabled(None)

        assert total_ops == self.BATCHES * self.OPS_PER_BATCH
        stats = live.stats.summary()
        applied = {
            name: stats[name] - stats_before[name] for name in stats
        }
        assert applied["batches"] == self.BATCHES
        # O(affected): incremental trigger work is bounded by the update
        # ops (every tgd body here is a single atom, so one insert seeds
        # at most one trigger per tgd mentioning its relation — never a
        # rescan of the 250-node tenant per batch).
        assert applied["triggers_added"] <= 2 * total_ops
        assert applied["triggers_retracted"] <= 2 * total_ops
        # The same counters surface as update.* telemetry for operators.
        folded = {
            name: after.get(name, 0) - before.get(name, 0)
            for name in ("update.batches", "update.triggers_added",
                         "update.triggers_retracted", "update.egd_merges")
        }
        assert folded["update.batches"] == self.BATCHES
        assert folded["update.triggers_added"] == applied["triggers_added"]
        assert folded["update.triggers_retracted"] == applied["triggers_retracted"]
        assert folded["update.egd_merges"] == applied["egd_merges"]
