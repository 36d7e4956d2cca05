"""The snapshot file format: round trips, stamps, and failure modes."""

import os
import pathlib
import pickle
import subprocess
import sys

import pytest

from repro.errors import SnapshotError
from repro.graph.database import GraphDatabase
from repro.graph.snapshot import (
    SNAPSHOT_FORMAT,
    SnapshotStore,
    load_snapshot,
    save_snapshot,
)
from repro.patterns.pattern import Null


def sample_graph() -> GraphDatabase:
    graph = GraphDatabase(
        alphabet={"f", "h"},
        edges=[
            ("c1", "f", Null("N1")),
            (Null("N1"), "h", "hx"),
            (Null("N1"), "f", "c2"),
        ],
    )
    graph.add_node("isolated")
    return graph


class TestSaveLoad:
    def test_round_trip_is_exact(self, tmp_path):
        graph = sample_graph()
        path = str(tmp_path / "graph.snap")
        save_snapshot(graph, path)
        loaded = load_snapshot(path)
        assert loaded == graph
        assert loaded.is_frozen
        assert loaded.fingerprint() == graph.fingerprint()
        assert loaded.alphabet == graph.alphabet
        assert list(loaded.edges_since(0)) == list(graph.edges_since(0))

    def test_destructive_round_trip_keeps_the_journal(self, tmp_path):
        graph = sample_graph()
        graph.remove_edge(Null("N1"), "h", "hx")
        graph.rename_node("c2", "c3")
        path = str(tmp_path / "graph.snap")
        save_snapshot(graph, path)
        loaded = load_snapshot(path)
        assert loaded == graph and "hx" in loaded
        assert loaded.version == graph.version
        assert loaded.edges_since(0) == graph.edges_since(0)
        assert loaded.destructive and loaded.fingerprint() is None

    def test_payload_is_an_edge_list(self, tmp_path):
        path = tmp_path / "graph.snap"
        save_snapshot(sample_graph(), str(path))
        payload = pickle.loads(path.read_bytes())
        assert payload["format"] == SNAPSHOT_FORMAT == 2
        assert payload["edges"] == [
            ("c1", "f", Null("N1")),
            (Null("N1"), "h", "hx"),
            (Null("N1"), "f", "c2"),
        ]
        assert payload["journal"] is None  # equal to the edge list
        assert "isolated" in payload["nodes"]

    def test_saving_a_frozen_graph_round_trips(self, tmp_path):
        frozen = sample_graph().freeze()
        path = str(tmp_path / "frozen.snap")
        save_snapshot(frozen, path)
        assert load_snapshot(path) == frozen

    def test_atomic_overwrite(self, tmp_path):
        path = str(tmp_path / "graph.snap")
        save_snapshot(sample_graph(), path)
        replacement = GraphDatabase(edges=[("x", "a", "y")])
        save_snapshot(replacement, path)
        assert load_snapshot(path) == replacement
        leftovers = [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]
        assert not leftovers

    def test_missing_file_is_loud(self, tmp_path):
        with pytest.raises(SnapshotError, match="no snapshot file"):
            load_snapshot(str(tmp_path / "absent.snap"))

    def test_garbage_bytes_are_loud(self, tmp_path):
        path = tmp_path / "junk.snap"
        path.write_bytes(b"\x00\x01definitely not a pickle")
        with pytest.raises(SnapshotError, match="unreadable"):
            load_snapshot(str(path))

    def test_foreign_pickle_is_loud(self, tmp_path):
        path = tmp_path / "foreign.snap"
        path.write_bytes(pickle.dumps({"something": "else"}))
        with pytest.raises(SnapshotError, match="not a repro graph snapshot"):
            load_snapshot(str(path))

    def test_future_format_is_loud(self, tmp_path):
        path = tmp_path / "future.snap"
        payload = {
            "magic": "repro-graph-snapshot",
            "format": SNAPSHOT_FORMAT + 1,
            "state": {},
        }
        path.write_bytes(pickle.dumps(payload))
        with pytest.raises(SnapshotError, match="format"):
            load_snapshot(str(path))


def damaged_payload(damage: str) -> dict:
    """A valid snapshot payload of ``sample_graph`` with one kind of damage."""
    payload = {
        "magic": "repro-graph-snapshot",
        "format": SNAPSHOT_FORMAT,
        "alphabet": frozenset({"f", "h"}),
        "nodes": ["c1", Null("N1"), "hx", "c2", "isolated"],
        "edges": [("c1", "f", Null("N1")), (Null("N1"), "h", "hx")],
        "journal": None,
        "destructive": False,
    }
    if damage == "missing-key":
        del payload["edges"]
    elif damage == "journal-entry-not-a-triple":
        payload["journal"] = [("c1", "f")]
        payload["destructive"] = True
    elif damage == "out-of-alphabet-label":
        payload["edges"].append(("c1", "zz", "c2"))
    elif damage == "format-1":
        payload = {
            "magic": "repro-graph-snapshot",
            "format": 1,
            "state": {"nodes": [], "journal": ()},
        }
    return payload


DAMAGES = (
    "missing-key",
    "journal-entry-not-a-triple",
    "out-of-alphabet-label",
    "format-1",
)


class TestDamagedPayloads:
    @pytest.mark.parametrize("damage", DAMAGES)
    def test_load_is_loud(self, damage, tmp_path):
        path = tmp_path / "damaged.snap"
        path.write_bytes(pickle.dumps(damaged_payload(damage)))
        with pytest.raises(SnapshotError) as raised:
            load_snapshot(str(path))
        if damage == "format-1":
            assert "re-export the snapshot" in str(raised.value)
        else:
            assert "corrupt snapshot payload" in str(raised.value)

    @pytest.mark.parametrize("damage", DAMAGES)
    def test_store_reads_a_miss(self, damage, tmp_path):
        store = SnapshotStore(str(tmp_path))
        store.store("tenant", sample_graph())
        with open(store.path_for("tenant"), "wb") as handle:
            handle.write(pickle.dumps(damaged_payload(damage)))
        assert store.load("tenant") is None

    def test_the_undamaged_payload_loads(self, tmp_path):
        path = tmp_path / "whole.snap"
        path.write_bytes(pickle.dumps(damaged_payload("none")))
        assert load_snapshot(str(path)).edge_count() == 2


class TestSnapshotStore:
    def test_cache_semantics(self, tmp_path):
        store = SnapshotStore(str(tmp_path))
        assert store.load("tenant") is None
        store.store("tenant", sample_graph())
        loaded = store.load("tenant")
        assert loaded == sample_graph()
        assert loaded.is_frozen

    def test_keys_do_not_collide(self, tmp_path):
        store = SnapshotStore(str(tmp_path))
        store.store("alpha", GraphDatabase(edges=[("a", "x", "b")]))
        store.store("beta", GraphDatabase(edges=[("c", "x", "d")]))
        assert store.load("alpha") != store.load("beta")

    def test_damaged_entry_reads_as_miss(self, tmp_path):
        store = SnapshotStore(str(tmp_path))
        store.store("tenant", sample_graph())
        with open(store.path_for("tenant"), "wb") as handle:
            handle.write(b"damaged")
        assert store.load("tenant") is None

    def test_directory_is_version_stamped(self, tmp_path):
        store = SnapshotStore(str(tmp_path))
        assert f"v{SNAPSHOT_FORMAT}" in store.path_for("anything")
        assert os.path.join(str(tmp_path), "v2") in store.path_for("anything")


class TestLayerSpans:
    """Freezing and the snapshot round trip open named library spans.

    Only names and nesting are asserted, never timings.
    """

    def _tree(self, action) -> list:
        from repro.telemetry import set_enabled, span

        set_enabled(True)
        try:
            with span("test.root") as root:
                action()
        finally:
            set_enabled(None)
        return [
            (child.name, [grandchild.name for grandchild in child.children])
            for child in root.children
        ]

    def test_freeze_is_one_span(self):
        graph = sample_graph()
        assert self._tree(graph.freeze) == [("graph.freeze", [])]
        frozen = graph.freeze()
        assert self._tree(frozen.freeze) == []  # already frozen: no copy

    def test_save_splits_into_encode_and_write(self, tmp_path):
        path = str(tmp_path / "graph.snap")
        graph = sample_graph()
        assert self._tree(lambda: save_snapshot(graph, path)) == [
            ("snapshot.save", ["snapshot.encode", "snapshot.write"])
        ]

    def test_load_splits_into_read_and_build(self, tmp_path):
        path = str(tmp_path / "graph.snap")
        save_snapshot(sample_graph(), path)
        assert self._tree(lambda: load_snapshot(path)) == [
            ("snapshot.load", ["snapshot.read", "snapshot.build"])
        ]


def test_the_library_does_not_import_numpy():
    """Graph storage, snapshots and the service run on the standard library."""
    src = str(pathlib.Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = (
        "import sys, repro, repro.graph.snapshot, repro.service.server; "
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'numpy'))"
    )
    process = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert process.returncode == 0, process.stderr
    assert process.stdout.strip() == "[]"
