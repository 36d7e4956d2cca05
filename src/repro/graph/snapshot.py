"""Version-stamped snapshots of frozen graph databases.

The freeze/thaw story of :mod:`repro.graph.backends` gives a chased result
a read-optimized in-process form; this module makes that form *durable*:
a frozen :class:`~repro.graph.database.GraphDatabase` serialises to a
single snapshot file — interning table, edge journal, and raw CSR buffers
— and loads back without re-sorting, re-interning, or re-chasing
anything.  The round trip is exact: nodes, edges, alphabet declaration,
journal, and content fingerprint all survive
(``tests/test_graph/test_snapshot.py`` pins this).

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

from repro.errors import SnapshotError
from repro.graph.backends import CsrBackend
from repro.graph.database import GraphDatabase

SNAPSHOT_FORMAT = 1
"""Bump on any change to the snapshot payload shape or CSR field layout."""

_MAGIC = "repro-graph-snapshot"


def save_snapshot(graph: GraphDatabase, path: str) -> None:
    """Write ``graph`` to ``path`` as a version-stamped snapshot file.

    A mutable graph is frozen first (the original is untouched); an
    already-frozen graph serialises its live CSR buffers as they are.
    The write is atomic (temp file + ``os.replace``), so a concurrent
    reader sees either the old file or the new one, never a torn pickle.

    >>> import tempfile, os
    >>> g = GraphDatabase(edges=[("u", "a", "v")])
    >>> with tempfile.TemporaryDirectory() as d:
    ...     save_snapshot(g, os.path.join(d, "g.snap"))
    ...     load_snapshot(os.path.join(d, "g.snap")) == g
    True
    """
    frozen = graph.freeze()
    backend = frozen.csr
    assert backend is not None  # freeze() guarantees a CSR backend
    payload = {
        "magic": _MAGIC,
        "format": SNAPSHOT_FORMAT,
        "state": backend.dump_state(),
    }
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    descriptor, temp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(descriptor, "wb") as handle:
            pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
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
    unreadable, not a snapshot, or carries a foreign format version —
    explicit loads fail loudly (use :class:`SnapshotStore` for cache-style
    miss-on-damage semantics).
    """
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
    try:
        backend = CsrBackend.restore_state(payload["state"])
    except (KeyError, TypeError, ValueError) as error:
        raise SnapshotError(f"corrupt snapshot payload in {path!r}: {error}") from None
    return GraphDatabase._from_backend(backend)


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
        """Persist ``graph`` under ``key`` (freezing it if necessary).

        Best-effort, like every cache write in this library: filesystem
        trouble degrades to a skipped store, never an error in the
        serving path.
        """
        try:
            save_snapshot(graph, self.path_for(key))
        except OSError:
            pass
