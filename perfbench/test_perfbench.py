"""Tests of the benchmark itself: deterministic work, the report shape.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import harness  # noqa: E402
import run  # noqa: E402
from bulk import BulkMedlit  # noqa: E402
from serve import ServeSocial  # noqa: E402
from stream import StreamMedlit  # noqa: E402

SMALL = [(BulkMedlit, 300), (StreamMedlit, 100), (ServeSocial, 40)]


def _counters(workload_cls, nodes, seed, workdir):
    workload = workload_cls(seed, workdir, nodes=nodes)
    measured = workload.round(1, harness.Tracer(False))
    assert measured.failed == 0
    return measured.counters


@pytest.mark.parametrize("workload_cls,nodes", SMALL)
def test_same_seed_same_work_other_seed_other_work(workload_cls, nodes, tmp_path):
    first = _counters(workload_cls, nodes, 5, tmp_path)
    again = _counters(workload_cls, nodes, 5, tmp_path)
    other = _counters(workload_cls, nodes, 6, tmp_path)
    assert first and first == again
    assert other != first


def test_traced_round_reports_layers(tmp_path):
    workload = BulkMedlit(3, tmp_path, nodes=300)
    tracer = harness.Tracer(False)
    rounds = harness.run_rounds(workload.round, 4, True, tracer)
    assert [r.traced for r in rounds] == [False, True, True, False]
    values = harness.layer_values(rounds)
    assert set(values) == set(harness.LAYER_METRICS)
    assert values["chase.relational_s"] > 0
    assert values["engine.pairs_s"] == pytest.approx(
        sum(values[f"engine.pairs.q{i}_s"] for i in range(5)), rel=0.5
    )


def test_self_time_subtracts_children():
    tracer = harness.Tracer(True)
    tracer.adopt(
        {"name": "outer", "start_ts": 100.0, "duration_s": 1.0, "children": [
            {"name": "inner", "start_ts": 100.2, "duration_s": 0.3, "children": [
                {"name": "dropped", "start_ts": 100.3, "duration_s": 0.1},
            ]},
        ]},
        op=0, parent=None, leaves=("inner",),
    )
    times = tracer.self_times()
    assert times == pytest.approx({"outer": 0.7, "inner": 0.3})


def test_placement_flags_a_percentile_on_a_class_boundary():
    centred = [("fast", 0.01)] * 30 + [("slow", 0.1)] * 40 + [("slowest", 1.0)] * 30
    edge = [("fast", 0.01)] * 50 + [("slow", 0.1)] * 50
    assert all(check["ok"] for check in harness.placement(centred).values())
    assert not harness.placement(edge)["p50"]["ok"]


def test_benchmark_json_names_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.LAYER_METRICS
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOADS


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench")
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bulk-medlit",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
