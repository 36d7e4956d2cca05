"""Version-stamped snapshots of graph databases.

A :class:`~repro.graph.database.GraphDatabase` serialises to a single
snapshot file — its alphabet, node list, live edges as ``(source, label,
target)`` triples, its edge journal when that differs from the live edges,
and its ``destructive`` flag — and loads back as a frozen graph, rebuilt
through :meth:`~repro.graph.database.GraphDatabase.from_edges` without
re-chasing anything.  The round trip is exact: nodes, edges, alphabet
declaration, journal, ``destructive`` flag and content fingerprint all
survive (``tests/test_graph/test_snapshot.py`` pins this).

Two consumption layers sit on top of the file format:

* the CLI's ``repro snapshot save/load/info`` subcommands
  (:mod:`repro.cli`) move graphs between JSON and snapshot form;
* :class:`SnapshotStore` is the content-keyed directory store the service
  worker pool uses for *per-tenant warm starts*: with
  ``REPRO_SNAPSHOT_DIR`` set (or ``repro serve --snapshot-dir``), workers
  persist each tenant's verified existence witness and skip the
  chase-and-search pipeline for that tenant after a restart
  (:mod:`repro.service.workers`).

The on-disk layout is **version-stamped** — ``SNAPSHOT_FORMAT`` is baked
into every payload and bumped on any change to the pickled shape, so a
newer library never misreads an older file.  Explicit
:func:`load_snapshot` calls are user requests and fail loudly with
:class:`~repro.errors.SnapshotError` rather than degrading silently;
only the store's cache-style lookups treat damage as a miss.

**Trust boundary.** Snapshots are :mod:`pickle` payloads (node ids are
arbitrary hashable Python values — labeled nulls, tuples — which no
data-only encoding round-trips faithfully), and unpickling executes code
chosen by whoever wrote the file.  Load snapshots only from locations
you would load code from: your own exports and snapshot directories
owned by the service user.  Never point ``repro snapshot load`` or
``--snapshot-dir`` at untrusted or world-writable paths.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from repro.errors import SchemaError, SnapshotError
from repro.graph.database import FrozenGraphDatabase, GraphDatabase
from repro.telemetry import span

SNAPSHOT_FORMAT = 2
"""Bump on any change to the snapshot payload shape."""

_MAGIC = "repro-graph-snapshot"


def save_snapshot(graph: GraphDatabase, path: str) -> None:
    """Write ``graph`` to ``path`` as a version-stamped snapshot file.

    Mutable and frozen graphs serialise alike; the graph is only read.
    The write is atomic (temp file + ``os.replace``), so a concurrent
    reader sees either the old file or the new one, never a torn pickle.

    >>> import tempfile, os
    >>> g = GraphDatabase(edges=[("u", "a", "v")])
    >>> with tempfile.TemporaryDirectory() as d:
    ...     save_snapshot(g, os.path.join(d, "g.snap"))
    ...     load_snapshot(os.path.join(d, "g.snap")) == g
    True
    """
    with span("snapshot.save"):
        with span("snapshot.encode"):
            journal = graph.journal_triples()
            live = graph.live_triples()
            payload = {
                "magic": _MAGIC,
                "format": SNAPSHOT_FORMAT,
                "alphabet": graph.declared_alphabet(),
                "nodes": list(graph.nodes()),
                "edges": live,
                # Written only when it no longer lists the live edges.
                "journal": None if live is journal else journal,
                "destructive": graph.destructive,
            }
            data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        with span("snapshot.write"):
            _write_atomically(path, data)


def _write_atomically(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` through a temp file and ``os.replace``."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    descriptor, temp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(descriptor, "wb") as handle:
            handle.write(data)
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise


def load_snapshot(path: str) -> GraphDatabase:
    """Read a snapshot file back into a frozen :class:`GraphDatabase`.

    Raises :class:`~repro.errors.SnapshotError` when the file is missing,
    unreadable, not a snapshot, carries a foreign format version, or holds
    a payload that does not rebuild into a graph (a missing key, an entry
    that is not a triple, a label outside the declared alphabet) —
    explicit loads fail loudly (use :class:`SnapshotStore` for cache-style
    miss-on-damage semantics).
    """
    with span("snapshot.load"):
        with span("snapshot.read"):
            payload = _read_payload(path)
        with span("snapshot.build"):
            try:
                return FrozenGraphDatabase.from_edges(
                    payload["alphabet"],
                    payload["edges"],
                    destructive=bool(payload["destructive"]),
                    nodes=payload["nodes"],
                    journal=payload["journal"],
                )
            except (KeyError, TypeError, ValueError, SchemaError) as error:
                # A missing key, a payload or entry of the wrong shape, or a
                # label outside the declared alphabet.
                raise SnapshotError(
                    f"corrupt snapshot payload in {path!r}: "
                    f"{type(error).__name__}: {error}"
                ) from None


def _read_payload(path: str) -> dict:
    """Unpickle the snapshot at ``path`` and check its magic and format."""
    try:
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
    except FileNotFoundError:
        raise SnapshotError(f"no snapshot file at {path!r}") from None
    except Exception as error:  # noqa: BLE001 - pickle raises many shapes
        raise SnapshotError(f"unreadable snapshot {path!r}: {error}") from None
    if not isinstance(payload, dict) or payload.get("magic") != _MAGIC:
        raise SnapshotError(f"{path!r} is not a repro graph snapshot")
    if payload.get("format") != SNAPSHOT_FORMAT:
        raise SnapshotError(
            f"{path!r} has snapshot format {payload.get('format')!r}; this "
            f"library reads format {SNAPSHOT_FORMAT} — re-export the snapshot"
        )
    return payload


class SnapshotStore:
    """A content-keyed directory of graph snapshots (the warm-tenant store).

    Keys are arbitrary strings (the service uses request fingerprints);
    each key maps to one snapshot file named by its SHA-256.  Lookups have
    cache semantics — a missing, damaged, or foreign-format entry reads as
    ``None``, never an exception — while writes are atomic and last-writer
    -wins (all writers hold identical content for a given key, since keys
    are derived from the full request).

    >>> import tempfile
    >>> with tempfile.TemporaryDirectory() as d:
    ...     store = SnapshotStore(d)
    ...     store.load("tenant-1") is None
    ...     store.store("tenant-1", GraphDatabase(edges=[("u", "a", "v")]))
    ...     store.load("tenant-1").edge_count()
    True
    1
    """

    def __init__(self, directory: str):
        self.directory = directory

    def path_for(self, key: str) -> str:
        """The snapshot path for ``key`` (exists or not)."""
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()
        return os.path.join(
            self.directory, f"v{SNAPSHOT_FORMAT}", digest + ".snap"
        )

    def load(self, key: str) -> GraphDatabase | None:
        """The frozen graph stored under ``key``, or ``None`` (cache miss)."""
        try:
            return load_snapshot(self.path_for(key))
        except SnapshotError:
            return None

    def store(self, key: str, graph: GraphDatabase) -> None:
        """Persist ``graph`` under ``key``; it loads back frozen.

        Best-effort, like every cache write in this library: filesystem
        trouble degrades to a skipped store, never an error in the
        serving path.
        """
        try:
            save_snapshot(graph, self.path_for(key))
        except OSError:
            pass
