"""Pluggable physical storage behind :class:`~repro.graph.database.GraphDatabase`.

The logical data model of the paper — a directed edge-labeled graph
``G = (V, E)``, ``E ⊆ V × Σ × V`` — admits more than one useful physical
representation.  The chases *write* (edge insertion, in-place node
renames), while the query engine only *reads* (bulk per-label traversal
in both directions).  This module separates the two concerns behind one
protocol with two conforming backends:

* :class:`DictBackend` — the mutation-friendly default: per-label hash
  adjacency (``label → node → set``), any-label incident-edge indexes,
  and the append-only edge journal that powers semi-naive chase rounds
  and content fingerprinting.  This is the original ``GraphDatabase``
  storage, extracted verbatim.
* :class:`CsrBackend` — a frozen, read-optimized representation: nodes
  and labels are *interned* to dense integer ids, and each label's
  forward/backward adjacency is a sorted CSR (compressed sparse row)
  pair of ``array`` buffers — ``offsets[u] : offsets[u+1]`` slices the
  neighbour ids of node ``u``.  The product-automaton evaluator
  (:mod:`repro.graph.automaton`) detects a CSR backend and switches to
  an integer-id search loop with per-state ``bytearray`` visited maps —
  the bulk-traversal fast path measured in
  ``benchmarks/bench_storage_backends.py``.

A graph moves between the two through
:meth:`~repro.graph.database.GraphDatabase.freeze` (dict → CSR, content
and journal preserved, mutations now raise
:class:`~repro.errors.FrozenGraphError`) and
:meth:`~repro.graph.database.GraphDatabase.thaw` (CSR → dict, journal
replayed so the fingerprint survives the round trip).  Frozen graphs
serialise to version-stamped snapshot files via
:mod:`repro.graph.snapshot`.

Both backends expose the same read surface (the :class:`StorageBackend`
protocol); ``tests/test_graph/test_backends.py`` drives random
mutation/query interleavings against both and asserts byte-identical
observable behaviour.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, Protocol, runtime_checkable

from repro import kernels
from repro.errors import FrozenGraphError, SchemaError

Node = Hashable
LabelName = str

# Shared empty adjacency returned by the *_index accessors for absent labels.
_EMPTY_INDEX: dict = {}


class Fingerprint:
    """A content token for an append-only graph.

    Wraps ``(nodes, journal)`` with a hash computed once at construction, so
    fingerprints are cheap to use as cache keys no matter how often they are
    looked up.  Two fingerprints compare equal iff the node sets and journal
    sequences are equal — i.e. iff the graphs have identical content (for
    graphs that never removed or renamed anything, the journal *is* the edge
    set, in insertion order).  Fingerprints are backend-independent: a graph
    and its frozen CSR counterpart carry equal tokens.
    """

    __slots__ = ("key", "_hash")

    def __init__(self, nodes: frozenset, journal: tuple):
        self.key = (nodes, journal)
        self._hash = hash(self.key)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Fingerprint):
            return NotImplemented
        return self._hash == other._hash and self.key == other.key

    def __repr__(self) -> str:
        return f"Fingerprint(|V|={len(self.key[0])}, |journal|={len(self.key[1])})"


@dataclass(frozen=True, order=True)
class Edge:
    """A labeled edge ``(source, label, target)``."""

    source: Node
    label: LabelName
    target: Node

    def __hash__(self) -> int:
        # Edges are hashed constantly (edge sets, journals, incident-edge
        # indexes, trigger dedupe); the generated dataclass hash rebuilds
        # the field tuple on every call, so memoise it per instance.
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((self.source, self.label, self.target))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __getstate__(self) -> dict:
        # The memoised hash is salted per process (PYTHONHASHSEED); it
        # must never survive pickling into another interpreter.
        state = self.__dict__.copy()
        state.pop("_hash", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    def __str__(self) -> str:
        return f"({self.source} -{self.label}-> {self.target})"


@runtime_checkable
class StorageBackend(Protocol):
    """The physical-storage surface a :class:`GraphDatabase` delegates to.

    The protocol covers four concern groups:

    * **adjacency reads** — ``successors`` / ``predecessors`` /
      ``forward_index`` / ``backward_index`` / ``iter_label_pairs`` /
      ``has_successor`` / ``has_predecessor`` / ``label_count``;
    * **edge journal / versioning** — ``version`` / ``edges_since`` /
      ``journal`` (the substrate of semi-naive chase rounds);
    * **fingerprint support** — ``fingerprint()`` plus the
      ``destructive`` flag that permanently disqualifies a graph from
      journal-keyed caching;
    * **mutation hooks** — ``add_node`` / ``add_edge`` / ``remove_edge``
      / ``rename_node``; read-only backends raise
      :class:`~repro.errors.FrozenGraphError` from all four.

    ``name`` identifies the backend (``"dict"`` / ``"csr"``) and
    ``mutable`` states whether the mutation hooks are live.
    """

    name: str
    mutable: bool

    def declared_alphabet(self) -> frozenset[LabelName] | None:
        """The alphabet Σ fixed at construction, or ``None`` when open."""
        ...

    def labels(self) -> frozenset[LabelName]:
        """The labels carried by at least one edge (or index entry)."""
        ...

    def add_node(self, node: Node) -> None:
        """Add an isolated node (idempotent); frozen backends refuse."""
        ...

    def add_edge(self, source: Node, lab: LabelName, target: Node) -> None:
        """Add an edge, auto-adding endpoints; frozen backends refuse."""
        ...

    def remove_edge(self, source: Node, lab: LabelName, target: Node) -> None:
        """Remove an edge if present (a *destructive* mutation)."""
        ...

    def rename_node(self, old: Node, new: Node) -> frozenset[Edge]:
        """Rewrite every edge through ``old`` onto ``new``; O(degree)."""
        ...

    def discard_node(self, node: Node) -> None:
        """Remove an *isolated* node (a *destructive* mutation)."""
        ...

    def has_node(self, node: Node) -> bool:
        """Node-set membership."""
        ...

    def has_edge(self, source: Node, lab: LabelName, target: Node) -> bool:
        """Edge-set membership."""
        ...

    def nodes(self) -> frozenset[Node]:
        """The node set, as an immutable snapshot."""
        ...

    def edges(self) -> frozenset[Edge]:
        """The edge set, as an immutable snapshot."""
        ...

    def node_count(self) -> int:
        """``len(nodes())`` without building the snapshot."""
        ...

    def edge_count(self) -> int:
        """``len(edges())`` without building the snapshot."""
        ...

    def successors(self, node: Node, lab: LabelName) -> frozenset[Node]:
        """``{v | (node, lab, v) ∈ E}``."""
        ...

    def predecessors(self, node: Node, lab: LabelName) -> frozenset[Node]:
        """``{u | (u, lab, node) ∈ E}``."""
        ...

    def forward_index(self, lab: LabelName) -> dict:
        """A read-only dict view ``node → successors`` for one label."""
        ...

    def backward_index(self, lab: LabelName) -> dict:
        """A read-only dict view ``node → predecessors`` for one label."""
        ...

    def iter_label_pairs(self, lab: LabelName) -> Iterator[tuple[Node, Node]]:
        """Iterate the ``(u, v)`` pairs labeled ``lab`` without copying."""
        ...

    def has_successor(self, node: Node, lab: LabelName) -> bool:
        """Whether ``node`` has any outgoing ``lab`` edge (no copying)."""
        ...

    def has_predecessor(self, node: Node, lab: LabelName) -> bool:
        """Whether ``node`` has any incoming ``lab`` edge (no copying)."""
        ...

    def label_count(self, lab: LabelName) -> int:
        """The number of ``lab``-labeled edges, O(1)."""
        ...

    def edges_from(self, node: Node) -> frozenset[Edge]:
        """Every edge whose source is ``node``, any label."""
        ...

    def edges_to(self, node: Node) -> frozenset[Edge]:
        """Every edge whose target is ``node``, any label."""
        ...

    @property
    def version(self) -> int:
        """The journal length — grows by one per edge insertion."""
        ...

    def edges_since(self, version: int) -> list[Edge]:
        """The edges inserted after ``version`` was read, in order."""
        ...

    def journal(self) -> tuple[Edge, ...]:
        """The full append-only insertion log."""
        ...

    @property
    def destructive(self) -> bool:
        """Whether a remove/rename broke the journal-determines-content law."""
        ...

    def fingerprint(self) -> Fingerprint | None:
        """A hashable content token, or ``None`` after destructive mutation."""
        ...


class DictBackend:
    """The mutation-friendly hash-index backend (the library default).

    Keeps forward and backward adjacency indexes per label so that NRE
    evaluation can traverse edges in both directions in O(degree).  On top
    of those it maintains, incrementally on every insertion:

    * any-label incident-edge indexes (``edges_from`` / ``edges_to``) so
      the chase engine can find every edge touching a node in O(degree) —
      the key operation when a merge step renames a node;
    * an append-only *edge journal* (``version`` / ``edges_since``)
      recording the order in which edges were added, which is what makes
      semi-naive (delta) chase iteration possible.
    """

    name = "dict"
    mutable = True

    def __init__(self, alphabet: Iterable[LabelName] | None = None):
        self._alphabet: frozenset[LabelName] | None = (
            frozenset(alphabet) if alphabet is not None else None
        )
        self._nodes: set[Node] = set()
        self._edges: set[Edge] = set()
        # label -> node -> set of neighbours
        self._fwd: dict[LabelName, dict[Node, set[Node]]] = {}
        self._bwd: dict[LabelName, dict[Node, set[Node]]] = {}
        # node -> incident edges, any label (for merges and delta matching)
        self._out_edges: dict[Node, set[Edge]] = {}
        self._in_edges: dict[Node, set[Edge]] = {}
        # label -> number of edges, so join ordering reads sizes in O(1)
        self._label_counts: dict[LabelName, int] = {}
        # Append-only log of edge insertions; len() is the graph version.
        self._journal: list[Edge] = []
        # Destructive operations permanently disqualify the graph from
        # journal-keyed caching; the token is memoised per size key.
        self._destructive = False
        self._fingerprint: Fingerprint | None = None
        self._fingerprint_key: tuple[int, int] | None = None

    # -- schema ---------------------------------------------------------- #

    def declared_alphabet(self) -> frozenset[LabelName] | None:
        """The alphabet fixed at construction, or ``None`` when open."""
        return self._alphabet

    def labels(self) -> frozenset[LabelName]:
        """The labels currently carried by at least one edge.

        Counts-based, not index-keys-based: a label whose every edge was
        removed again is no longer *in use*, and the frozen CSR twin
        (built from the edge set) must observe the same label set.
        """
        return frozenset(
            lab for lab, count in self._label_counts.items() if count > 0
        )

    # -- mutation hooks --------------------------------------------------- #

    def add_node(self, node: Node) -> None:
        """Add an isolated node (idempotent)."""
        self._nodes.add(node)

    def add_edge(self, source: Node, lab: LabelName, target: Node) -> None:
        """Add the edge ``(source, lab, target)``; endpoints are auto-added.

        Duplicates are detected on the forward index (which mirrors the
        edge set exactly) *before* the :class:`Edge` is constructed — the
        chase re-adds edges constantly, and the duplicate path costs two
        dict probes and one set probe, no allocation.
        """
        if self._alphabet is not None and lab not in self._alphabet:
            raise SchemaError(
                f"label {lab!r} is not in the alphabet {sorted(self._alphabet)}"
            )
        fwd = self._fwd.get(lab)
        if fwd is None:
            fwd = self._fwd[lab] = {}
        targets = fwd.get(source)
        if targets is None:
            targets = fwd[source] = set()
        elif target in targets:
            return  # duplicate: endpoints are already present too
        targets.add(target)
        self._nodes.add(source)
        self._nodes.add(target)
        edge = Edge(source, lab, target)
        self._edges.add(edge)
        self._bwd.setdefault(lab, {}).setdefault(target, set()).add(source)
        self._out_edges.setdefault(source, set()).add(edge)
        self._in_edges.setdefault(target, set()).add(edge)
        self._label_counts[lab] = self._label_counts.get(lab, 0) + 1
        self._journal.append(edge)

    @classmethod
    def from_edges(
        cls,
        alphabet: Iterable[LabelName] | None,
        edges: Iterable[tuple[Node, LabelName, Node]],
        destructive: bool = False,
    ) -> "DictBackend":
        """Bulk-load ``edges`` in one pass; they become the journal, in order.

        The same content, journal and indexes as ``add_edge`` per edge
        (a repeated edge keeps its first position), without the per-call
        overhead.  A label outside ``alphabet`` raises
        :class:`~repro.errors.SchemaError`.  ``destructive`` marks a
        journal that is not the graph's history — a chase result loaded
        after its merges — so the backend carries no fingerprint.

        >>> backend = DictBackend.from_edges(None, [("u", "a", "v"), ("u", "a", "v")])
        >>> backend.version, backend.edge_count(), sorted(backend.nodes())
        (1, 1, ['u', 'v'])
        """
        backend = cls(alphabet)
        fwd, bwd = backend._fwd, backend._bwd
        out_edges, in_edges = backend._out_edges, backend._in_edges
        journal = backend._journal
        append = journal.append
        new = object.__new__
        for source, lab, target in edges:
            by_source = fwd.get(lab)
            if by_source is None:
                declared = backend._alphabet
                if declared is not None and lab not in declared:
                    raise SchemaError(
                        f"label {lab!r} is not in the alphabet {sorted(declared)}"
                    )
                by_source = fwd[lab] = {}
                bwd[lab] = {}
            targets = by_source.get(source)
            if targets is None:
                by_source[source] = {target}
            elif target in targets:
                continue
            else:
                targets.add(target)
            by_target = bwd[lab]
            sources = by_target.get(target)
            if sources is None:
                by_target[target] = {source}
            else:
                sources.add(source)
            # Field-wise construction, hash memoised up front: the frozen
            # dataclass __init__ and the first __hash__ cost four
            # object.__setattr__ calls per edge.
            edge = new(Edge)
            fields = edge.__dict__
            fields["source"], fields["label"], fields["target"] = source, lab, target
            fields["_hash"] = hash((source, lab, target))
            append(edge)
            outgoing = out_edges.get(source)
            if outgoing is None:
                out_edges[source] = {edge}
            else:
                outgoing.add(edge)
            incoming = in_edges.get(target)
            if incoming is None:
                in_edges[target] = {edge}
            else:
                incoming.add(edge)
        backend._edges = set(journal)
        backend._nodes = set(out_edges)
        backend._nodes.update(in_edges)
        backend._label_counts = {
            lab: sum(map(len, by_source.values())) for lab, by_source in fwd.items()
        }
        backend._destructive = destructive
        return backend

    def clone(self, alphabet: "Iterable[LabelName] | None" = None) -> "DictBackend":
        """A structural copy — index surgery, not edge-by-edge replay.

        Copies the two-level adjacency indexes and incident-edge sets
        directly and *shares* the frozen :class:`Edge` objects (their
        memoised hashes ride along), so cloning costs container copies
        only — no per-edge alphabet check, construction, or re-hash.
        ``alphabet`` re-declares the clone's alphabet (``None`` keeps the
        source's); labels in use that the new alphabet lacks raise
        :class:`~repro.errors.SchemaError`, exactly like replaying the
        edges would.  The clone's journal is the live edge set (fresh
        graphs replayed edge-by-edge journal the same way), so it starts
        non-destructive with ``version == edge_count()``.
        """
        declared = self._alphabet if alphabet is None else frozenset(alphabet)
        if declared is not None:
            for lab, count in self._label_counts.items():
                if count > 0 and lab not in declared:
                    raise SchemaError(
                        f"label {lab!r} is not in the alphabet {sorted(declared)}"
                    )

        def copy_adjacency(
            index: dict[LabelName, dict[Node, set[Node]]],
        ) -> dict[LabelName, dict[Node, set[Node]]]:
            copied = {}
            for lab, bucket in index.items():
                live = {node: set(peers) for node, peers in bucket.items() if peers}
                if live:
                    copied[lab] = live
            return copied

        twin = DictBackend.__new__(DictBackend)
        twin._alphabet = declared
        twin._nodes = set(self._nodes)
        twin._edges = set(self._edges)
        twin._fwd = copy_adjacency(self._fwd)
        twin._bwd = copy_adjacency(self._bwd)
        twin._out_edges = {n: set(es) for n, es in self._out_edges.items() if es}
        twin._in_edges = {n: set(es) for n, es in self._in_edges.items() if es}
        twin._label_counts = {
            lab: count for lab, count in self._label_counts.items() if count > 0
        }
        twin._journal = list(self.edges())
        twin._destructive = False
        twin._fingerprint = None
        twin._fingerprint_key = None
        return twin

    def remove_edge(self, source: Node, lab: LabelName, target: Node) -> None:
        """Remove an edge if present; endpoints stay in the node set."""
        edge = Edge(source, lab, target)
        self._destructive = True  # the journal no longer determines the content
        if edge in self._edges:
            self._edges.remove(edge)
            self._fwd[lab][source].discard(target)
            self._bwd[lab][target].discard(source)
            self._out_edges[source].discard(edge)
            self._in_edges[target].discard(edge)
            self._label_counts[lab] -= 1

    def rename_node(self, old: Node, new: Node) -> frozenset[Edge]:
        """Rename ``old`` to ``new`` in place, rewriting incident edges.

        Returns the rewritten edges (as they read *after* the rename) so
        that callers can re-match triggers against exactly the part of the
        graph that changed.  O(degree(old)), not O(|E|).
        """
        if old == new or old not in self._nodes:
            return frozenset()
        self._destructive = True  # node set changes without a journal entry
        rewritten: set[Edge] = set()
        incident = self._out_edges.get(old, set()) | self._in_edges.get(old, set())
        for edge in list(incident):
            self.remove_edge(edge.source, edge.label, edge.target)
            source = new if edge.source == old else edge.source
            target = new if edge.target == old else edge.target
            self.add_edge(source, edge.label, target)
            rewritten.add(Edge(source, edge.label, target))
        self._nodes.discard(old)
        self._nodes.add(new)
        return frozenset(rewritten)

    def discard_node(self, node: Node) -> None:
        """Remove an isolated node; absent nodes are a no-op.

        Raises :class:`~repro.errors.SchemaError` when ``node`` still has
        incident edges — callers (the incremental chase's dead-node
        cleanup) must retract the edges first, so the node set can never
        silently disagree with the edge set.  Removing a node breaks the
        journal-determines-content law like any other destructive mutation.
        """
        if node not in self._nodes:
            return
        if self._out_edges.get(node) or self._in_edges.get(node):
            raise SchemaError(
                f"cannot discard node {node!r}: it still has incident edges"
            )
        self._destructive = True  # node set changes without a journal entry
        self._nodes.discard(node)

    # -- membership and bulk reads ---------------------------------------- #

    def has_node(self, node: Node) -> bool:
        """Whether ``node`` is in the node set."""
        return node in self._nodes

    def has_edge(self, source: Node, lab: LabelName, target: Node) -> bool:
        """Whether the edge ``(source, lab, target)`` is present.

        Probed on the forward index rather than the edge set: three
        container probes against one :class:`Edge` construction plus a
        three-field hash — this runs per candidate pair in the sameAs
        saturation's violation filter.
        """
        bucket = self._fwd.get(lab)
        if bucket is None:
            return False
        targets = bucket.get(source)
        return targets is not None and target in targets

    def nodes(self) -> frozenset[Node]:
        """The node set."""
        return frozenset(self._nodes)

    def edges(self) -> frozenset[Edge]:
        """The edge set."""
        return frozenset(self._edges)

    def node_count(self) -> int:
        """The number of nodes."""
        return len(self._nodes)

    def edge_count(self) -> int:
        """The number of edges."""
        return len(self._edges)

    # -- adjacency reads --------------------------------------------------- #

    def successors(self, node: Node, lab: LabelName) -> frozenset[Node]:
        """``{v | (node, lab, v) ∈ E}``."""
        return frozenset(self._fwd.get(lab, {}).get(node, ()))

    def predecessors(self, node: Node, lab: LabelName) -> frozenset[Node]:
        """``{u | (u, lab, node) ∈ E}``."""
        return frozenset(self._bwd.get(lab, {}).get(node, ()))

    def forward_index(self, lab: LabelName) -> dict[Node, set[Node]]:
        """The live forward adjacency index for ``lab`` — READ ONLY."""
        return self._fwd.get(lab, _EMPTY_INDEX)

    def backward_index(self, lab: LabelName) -> dict[Node, set[Node]]:
        """The live backward adjacency index for ``lab`` — READ ONLY."""
        return self._bwd.get(lab, _EMPTY_INDEX)

    def iter_label_pairs(self, lab: LabelName) -> Iterator[tuple[Node, Node]]:
        """Iterate the ``(u, v)`` pairs labeled ``lab`` without copying."""
        for u, targets in self._fwd.get(lab, {}).items():
            for v in targets:
                yield (u, v)

    def has_successor(self, node: Node, lab: LabelName) -> bool:
        """Whether ``node`` has any outgoing ``lab`` edge (no copying)."""
        return bool(self._fwd.get(lab, {}).get(node))

    def has_predecessor(self, node: Node, lab: LabelName) -> bool:
        """Whether ``node`` has any incoming ``lab`` edge (no copying)."""
        return bool(self._bwd.get(lab, {}).get(node))

    def label_count(self, lab: LabelName) -> int:
        """The number of edges labeled ``lab``, from an O(1) counter."""
        return self._label_counts.get(lab, 0)

    def edges_from(self, node: Node) -> frozenset[Edge]:
        """Every edge whose source is ``node`` (any label)."""
        return frozenset(self._out_edges.get(node, ()))

    def edges_to(self, node: Node) -> frozenset[Edge]:
        """Every edge whose target is ``node`` (any label)."""
        return frozenset(self._in_edges.get(node, ()))

    # -- journal / fingerprint --------------------------------------------- #

    @property
    def version(self) -> int:
        """A counter that increases with every edge insertion."""
        return len(self._journal)

    def edges_since(self, version: int) -> list[Edge]:
        """The edges inserted after ``version`` was read, in order."""
        return self._journal[version:]

    def journal(self) -> tuple[Edge, ...]:
        """The full append-only insertion log as a tuple."""
        return tuple(self._journal)

    @property
    def destructive(self) -> bool:
        """Whether a destructive mutation invalidated journal-keyed caching."""
        return self._destructive

    def fingerprint(self) -> Fingerprint | None:
        """A hashable content token, or ``None`` after destructive mutation."""
        if self._destructive:
            return None
        key = (len(self._journal), len(self._nodes))
        if self._fingerprint is None or self._fingerprint_key != key:
            self._fingerprint = Fingerprint(
                frozenset(self._nodes), tuple(self._journal)
            )
            self._fingerprint_key = key
        return self._fingerprint


def _frozen_mutation(operation: str) -> FrozenGraphError:
    return FrozenGraphError(
        f"cannot {operation} on a frozen (CSR) graph — call thaw() to get a "
        "mutable dict-backed copy first"
    )


class CsrBackend:
    """Read-only interned-CSR storage for frozen graphs.

    Nodes and labels are interned to dense integer ids at construction
    (deterministically, by ``repr`` order, so two content-equal graphs
    intern identically).  Each label holds four buffers::

        fwd_offsets[lab], fwd_targets[lab]   # out-neighbour ids of u at
                                             # fwd_targets[fwd_offsets[u] :
                                             #             fwd_offsets[u+1]]
        bwd_offsets[lab], bwd_targets[lab]   # mirrored for predecessors

    with each node's neighbour slice sorted ascending (so ``has_edge`` is
    a binary search and traversal output order is deterministic).  The
    buffers are numpy ``int64`` arrays when numpy is importable — the
    substrate of the vectorized sweep search
    (:mod:`repro.graph.vector`), pickled into snapshots as-is so reloads
    reattach them without copies — and :class:`array.array` values
    (typecode ``"q"``) otherwise.  Every accessor treats the two buffer
    types interchangeably, so snapshots written by either installation
    load on the other (numpy-written snapshots do require numpy to
    unpickle).

    All mutation hooks raise :class:`~repro.errors.FrozenGraphError`.
    The generic read surface (``forward_index`` et al.) is served from
    lazily-materialised per-label dictionaries, so every consumer of the
    dict backend keeps working unchanged; the product-automaton evaluator
    bypasses those views entirely through :meth:`forward_csr` /
    :meth:`backward_csr` / :meth:`node_id` / :meth:`node_at`.
    """

    name = "csr"
    mutable = False

    def __init__(
        self,
        alphabet: frozenset[LabelName] | None,
        nodes: Iterable[Node],
        edges: Iterable[Edge],
        journal: tuple[Edge, ...],
        destructive: bool,
    ):
        self._alphabet = alphabet
        # Deterministic interning: sort by repr, like every other ordering
        # decision in the library (nodes are arbitrary hashables).
        self._node_list: list[Node] = sorted(set(nodes), key=repr)
        self._node_ids: dict[Node, int] = {
            node: index for index, node in enumerate(self._node_list)
        }
        self._journal = journal
        self._destructive = destructive
        self._fingerprint_token: Fingerprint | None = (
            None
            if destructive
            else Fingerprint(frozenset(self._node_list), journal)
        )

        by_label: dict[LabelName, list[tuple[int, int]]] = {}
        edge_total = 0
        for edge in edges:
            by_label.setdefault(edge.label, []).append(
                (self._node_ids[edge.source], self._node_ids[edge.target])
            )
            edge_total += 1
        self._edge_total = edge_total
        self._labels = frozenset(by_label)

        count = len(self._node_list)
        self._fwd_offsets: dict[LabelName, array] = {}
        self._fwd_targets: dict[LabelName, array] = {}
        self._bwd_offsets: dict[LabelName, array] = {}
        self._bwd_targets: dict[LabelName, array] = {}
        self._label_counts: dict[LabelName, int] = {}
        for lab, pairs in by_label.items():
            self._label_counts[lab] = len(pairs)
            self._fwd_offsets[lab], self._fwd_targets[lab] = _build_csr(
                count, sorted(pairs)
            )
            self._bwd_offsets[lab], self._bwd_targets[lab] = _build_csr(
                count, sorted((target, source) for source, target in pairs)
            )

        # Lazy dict-shaped views for the generic read surface.
        self._fwd_views: dict[LabelName, dict[Node, frozenset[Node]]] = {}
        self._bwd_views: dict[LabelName, dict[Node, frozenset[Node]]] = {}
        # Lazy plain-list twins of the CSR buffers: CPython indexes and
        # slices lists of (pre-boxed) ints markedly faster than array
        # values, so the generated-code search binds against these.
        self._fwd_lists: dict[LabelName, tuple[list[int], list[int]]] = {}
        self._bwd_lists: dict[LabelName, tuple[list[int], list[int]]] = {}
        # Lazy numpy int64 twins for the vector search (no-copy views when
        # the buffers are already numpy-built).
        self._fwd_arrays: dict[LabelName, tuple] = {}
        self._bwd_arrays: dict[LabelName, tuple] = {}
        self._edge_set: frozenset[Edge] | None = None

    # -- interning / CSR surface (the automaton fast path) ----------------- #

    def node_id(self, node: Node) -> int | None:
        """The dense integer id of ``node``, or ``None`` if absent."""
        return self._node_ids.get(node)

    def node_at(self, node_id: int) -> Node:
        """The node interned at ``node_id`` (inverse of :meth:`node_id`)."""
        return self._node_list[node_id]

    def nodes_at(self, node_ids: Iterable[int]) -> "map":
        """Bulk :meth:`node_at`: the nodes interned at each id, in order.

        Returns a lazy C-level ``map`` so callers can feed it straight into
        a set or list constructor without a Python-level loop — the vector
        search decodes whole hit arrays through this.
        """
        return map(self._node_list.__getitem__, node_ids)

    def forward_csr(self, lab: LabelName) -> tuple[array, array] | None:
        """``(offsets, targets)`` arrays for ``lab``, or ``None`` if unused."""
        offsets = self._fwd_offsets.get(lab)
        if offsets is None:
            return None
        return offsets, self._fwd_targets[lab]

    def backward_csr(self, lab: LabelName) -> tuple[array, array] | None:
        """The predecessor mirror of :meth:`forward_csr`."""
        offsets = self._bwd_offsets.get(lab)
        if offsets is None:
            return None
        return offsets, self._bwd_targets[lab]

    def forward_lists(self, lab: LabelName) -> tuple[list, list] | None:
        """``(offsets, targets)`` as plain lists (memoised), or ``None``.

        The evaluation-speed twin of :meth:`forward_csr`: one ``tolist``
        per label converts the buffers at C speed, and every later BFS
        indexes pre-boxed ints instead of unboxing array elements.
        """
        lists = self._fwd_lists.get(lab)
        if lists is None:
            offsets = self._fwd_offsets.get(lab)
            if offsets is None:
                return None
            lists = self._fwd_lists[lab] = (
                offsets.tolist(),
                self._fwd_targets[lab].tolist(),
            )
        return lists

    def backward_lists(self, lab: LabelName) -> tuple[list, list] | None:
        """The predecessor mirror of :meth:`forward_lists`."""
        lists = self._bwd_lists.get(lab)
        if lists is None:
            offsets = self._bwd_offsets.get(lab)
            if offsets is None:
                return None
            lists = self._bwd_lists[lab] = (
                offsets.tolist(),
                self._bwd_targets[lab].tolist(),
            )
        return lists

    def forward_arrays(self, lab: LabelName) -> tuple | None:
        """``(offsets, targets)`` as numpy ``int64`` arrays (memoised).

        The vector search's buffer view: a no-copy pass-through when the
        backend was built with numpy, a one-time conversion when the
        buffers came from an :class:`array.array` build (e.g. a snapshot
        written by a numpy-less installation).  Returns ``None`` for
        labels absent from the graph — or when numpy itself is absent
        (the runner then routes every search to codegen).
        """
        arrays = self._fwd_arrays.get(lab)
        if arrays is None:
            np_mod = kernels.get_numpy()
            if np_mod is None:
                return None
            offsets = self._fwd_offsets.get(lab)
            if offsets is None:
                return None
            arrays = self._fwd_arrays[lab] = (
                np_mod.asarray(offsets, dtype=np_mod.int64),
                np_mod.asarray(self._fwd_targets[lab], dtype=np_mod.int64),
            )
        return arrays

    def backward_arrays(self, lab: LabelName) -> tuple | None:
        """The predecessor mirror of :meth:`forward_arrays`."""
        arrays = self._bwd_arrays.get(lab)
        if arrays is None:
            np_mod = kernels.get_numpy()
            if np_mod is None:
                return None
            offsets = self._bwd_offsets.get(lab)
            if offsets is None:
                return None
            arrays = self._bwd_arrays[lab] = (
                np_mod.asarray(offsets, dtype=np_mod.int64),
                np_mod.asarray(self._bwd_targets[lab], dtype=np_mod.int64),
            )
        return arrays

    # -- schema ------------------------------------------------------------ #

    def declared_alphabet(self) -> frozenset[LabelName] | None:
        """The alphabet declared when the source graph was built."""
        return self._alphabet

    def labels(self) -> frozenset[LabelName]:
        """The labels carried by at least one edge."""
        return self._labels

    # -- mutation hooks (all refused) -------------------------------------- #

    def add_node(self, node: Node) -> None:
        """Refused: frozen graphs are immutable."""
        raise _frozen_mutation("add_node")

    def add_edge(self, source: Node, lab: LabelName, target: Node) -> None:
        """Refused: frozen graphs are immutable."""
        raise _frozen_mutation("add_edge")

    def remove_edge(self, source: Node, lab: LabelName, target: Node) -> None:
        """Refused: frozen graphs are immutable."""
        raise _frozen_mutation("remove_edge")

    def rename_node(self, old: Node, new: Node) -> frozenset[Edge]:
        """Refused: frozen graphs are immutable."""
        raise _frozen_mutation("rename_node")

    def discard_node(self, node: Node) -> None:
        """Refused: frozen graphs are immutable."""
        raise _frozen_mutation("discard_node")

    # -- membership and bulk reads ----------------------------------------- #

    def has_node(self, node: Node) -> bool:
        """Whether ``node`` is in the node set."""
        return node in self._node_ids

    def has_edge(self, source: Node, lab: LabelName, target: Node) -> bool:
        """Edge membership by binary search in the sorted CSR slice."""
        offsets = self._fwd_offsets.get(lab)
        if offsets is None:
            return False
        sid = self._node_ids.get(source)
        tid = self._node_ids.get(target)
        if sid is None or tid is None:
            return False
        targets = self._fwd_targets[lab]
        low, high = int(offsets[sid]), int(offsets[sid + 1])
        position = bisect_left(targets, tid, low, high)
        return bool(position < high and targets[position] == tid)

    def nodes(self) -> frozenset[Node]:
        """The node set."""
        return frozenset(self._node_list)

    def edges(self) -> frozenset[Edge]:
        """The edge set (materialised from the CSR buffers once, cached)."""
        if self._edge_set is None:
            node_at = self._node_list
            collected: list[Edge] = []
            for lab, offsets in self._fwd_offsets.items():
                targets = self._fwd_targets[lab]
                for sid in range(len(node_at)):
                    source = node_at[sid]
                    for position in range(offsets[sid], offsets[sid + 1]):
                        collected.append(Edge(source, lab, node_at[targets[position]]))
            self._edge_set = frozenset(collected)
        return self._edge_set

    def node_count(self) -> int:
        """The number of nodes."""
        return len(self._node_list)

    def edge_count(self) -> int:
        """The number of edges."""
        return self._edge_total

    # -- adjacency reads ---------------------------------------------------- #

    def successors(self, node: Node, lab: LabelName) -> frozenset[Node]:
        """``{v | (node, lab, v) ∈ E}`` from the CSR slice."""
        offsets = self._fwd_offsets.get(lab)
        sid = self._node_ids.get(node)
        if offsets is None or sid is None:
            return frozenset()
        targets = self._fwd_targets[lab]
        node_at = self._node_list
        return frozenset(
            node_at[targets[position]]
            for position in range(offsets[sid], offsets[sid + 1])
        )

    def predecessors(self, node: Node, lab: LabelName) -> frozenset[Node]:
        """``{u | (u, lab, node) ∈ E}`` from the CSR slice."""
        offsets = self._bwd_offsets.get(lab)
        tid = self._node_ids.get(node)
        if offsets is None or tid is None:
            return frozenset()
        targets = self._bwd_targets[lab]
        node_at = self._node_list
        return frozenset(
            node_at[targets[position]]
            for position in range(offsets[tid], offsets[tid + 1])
        )

    def _view(
        self,
        lab: LabelName,
        views: dict[LabelName, dict[Node, frozenset[Node]]],
        offsets_by_label: dict[LabelName, array],
        targets_by_label: dict[LabelName, array],
    ) -> dict[Node, frozenset[Node]]:
        view = views.get(lab)
        if view is None:
            offsets = offsets_by_label.get(lab)
            if offsets is None:
                return _EMPTY_INDEX
            targets = targets_by_label[lab]
            node_at = self._node_list
            view = {}
            for nid in range(len(node_at)):
                low, high = offsets[nid], offsets[nid + 1]
                if low != high:
                    view[node_at[nid]] = frozenset(
                        node_at[targets[position]] for position in range(low, high)
                    )
            views[lab] = view
        return view

    def forward_index(self, lab: LabelName) -> dict:
        """A dict-shaped forward adjacency view (materialised lazily).

        Shaped like :meth:`DictBackend.forward_index` so generic
        consumers keep working; values are frozensets because the frozen
        graph never changes.
        """
        return self._view(lab, self._fwd_views, self._fwd_offsets, self._fwd_targets)

    def backward_index(self, lab: LabelName) -> dict:
        """The predecessor mirror of :meth:`forward_index`."""
        return self._view(lab, self._bwd_views, self._bwd_offsets, self._bwd_targets)

    def iter_label_pairs(self, lab: LabelName) -> Iterator[tuple[Node, Node]]:
        """Iterate the ``(u, v)`` pairs labeled ``lab`` from the CSR buffers."""
        offsets = self._fwd_offsets.get(lab)
        if offsets is None:
            return
        targets = self._fwd_targets[lab]
        node_at = self._node_list
        for sid in range(len(node_at)):
            source = node_at[sid]
            for position in range(offsets[sid], offsets[sid + 1]):
                yield (source, node_at[targets[position]])

    def has_successor(self, node: Node, lab: LabelName) -> bool:
        """Whether ``node`` has any outgoing ``lab`` edge."""
        offsets = self._fwd_offsets.get(lab)
        sid = self._node_ids.get(node)
        if offsets is None or sid is None:
            return False
        return offsets[sid] != offsets[sid + 1]

    def has_predecessor(self, node: Node, lab: LabelName) -> bool:
        """Whether ``node`` has any incoming ``lab`` edge."""
        offsets = self._bwd_offsets.get(lab)
        tid = self._node_ids.get(node)
        if offsets is None or tid is None:
            return False
        return offsets[tid] != offsets[tid + 1]

    def label_count(self, lab: LabelName) -> int:
        """The number of edges labeled ``lab``."""
        return self._label_counts.get(lab, 0)

    def edges_from(self, node: Node) -> frozenset[Edge]:
        """Every edge whose source is ``node`` (any label)."""
        sid = self._node_ids.get(node)
        if sid is None:
            return frozenset()
        node_at = self._node_list
        collected: list[Edge] = []
        for lab, offsets in self._fwd_offsets.items():
            targets = self._fwd_targets[lab]
            for position in range(offsets[sid], offsets[sid + 1]):
                collected.append(Edge(node, lab, node_at[targets[position]]))
        return frozenset(collected)

    def edges_to(self, node: Node) -> frozenset[Edge]:
        """Every edge whose target is ``node`` (any label)."""
        tid = self._node_ids.get(node)
        if tid is None:
            return frozenset()
        node_at = self._node_list
        collected: list[Edge] = []
        for lab, offsets in self._bwd_offsets.items():
            targets = self._bwd_targets[lab]
            for position in range(offsets[tid], offsets[tid + 1]):
                collected.append(Edge(node_at[targets[position]], lab, node))
        return frozenset(collected)

    # -- journal / fingerprint ---------------------------------------------- #

    @property
    def version(self) -> int:
        """The (now constant) journal length of the frozen graph."""
        return len(self._journal)

    def edges_since(self, version: int) -> list[Edge]:
        """The journal suffix after ``version`` (always empty at the tip)."""
        return list(self._journal[version:])

    def journal(self) -> tuple[Edge, ...]:
        """The journal carried over from the source graph at freeze time."""
        return self._journal

    @property
    def destructive(self) -> bool:
        """Whether the *source* graph had destructively mutated pre-freeze."""
        return self._destructive

    def fingerprint(self) -> Fingerprint | None:
        """The content token (computed once at freeze; ``None`` if tainted)."""
        return self._fingerprint_token

    @classmethod
    def from_backend(cls, backend: "StorageBackend") -> "CsrBackend":
        """Build a CSR backend holding exactly ``backend``'s content."""
        return cls(
            alphabet=backend.declared_alphabet(),
            nodes=backend.nodes(),
            edges=backend.edges(),
            journal=backend.journal(),
            destructive=backend.destructive,
        )

    def extended(self, new_edges: Iterable[Edge]) -> "CsrBackend":
        """A new CSR backend with ``new_edges`` appended to the journal.

        The journal-replay *refreeze* path: instead of thawing to a dict
        graph and re-freezing the whole thing per update batch, only the
        labels touched by the batch rebuild their CSR buffers — buffers,
        adjacency views and node interning of untouched labels are shared
        with ``self``.  Edges already present (or repeated inside the
        batch) are skipped, mirroring :meth:`DictBackend.add_edge`'s
        dedupe, so the resulting fingerprint equals the one a dict-backed
        twin would have produced applying the same insertions.  With an
        empty effective batch, ``self`` is returned unchanged (fingerprint
        survival under no-op batches is a pinned regression).

        Fresh endpoint nodes are interned *after* the existing ones (in
        repr order among themselves): existing node ids — and with them
        every shared buffer — stay valid.  Cost is O(touched labels' edges
        + new nodes), not O(|E|).
        """
        appended: list[Edge] = []
        seen: set[Edge] = set()
        for edge in new_edges:
            if self._alphabet is not None and edge.label not in self._alphabet:
                raise SchemaError(
                    f"label {edge.label!r} is not in the alphabet "
                    f"{sorted(self._alphabet)}"
                )
            if edge in seen or self.has_edge(edge.source, edge.label, edge.target):
                continue
            seen.add(edge)
            appended.append(edge)
        if not appended:
            return self

        clone = CsrBackend.__new__(CsrBackend)
        clone._alphabet = self._alphabet
        node_list = list(self._node_list)
        node_ids = dict(self._node_ids)
        fresh = sorted(
            {
                endpoint
                for edge in appended
                for endpoint in (edge.source, edge.target)
                if endpoint not in node_ids
            },
            key=repr,
        )
        for node in fresh:
            node_ids[node] = len(node_list)
            node_list.append(node)
        clone._node_list = node_list
        clone._node_ids = node_ids
        clone._journal = self._journal + tuple(appended)
        clone._destructive = self._destructive
        clone._fingerprint_token = (
            None
            if clone._destructive
            else Fingerprint(frozenset(node_list), clone._journal)
        )
        clone._edge_total = self._edge_total + len(appended)

        touched = {edge.label for edge in appended}
        count = len(node_list)
        old_count = len(self._node_list)
        clone._label_counts = dict(self._label_counts)
        clone._fwd_offsets = {}
        clone._fwd_targets = {}
        clone._bwd_offsets = {}
        clone._bwd_targets = {}
        clone._fwd_views = {}
        clone._bwd_views = {}
        clone._fwd_lists = {}
        clone._bwd_lists = {}
        clone._fwd_arrays = {}
        clone._bwd_arrays = {}
        clone._edge_set = None
        for lab in self._fwd_offsets:
            if lab in touched:
                continue
            if count == old_count:
                clone._fwd_offsets[lab] = self._fwd_offsets[lab]
                clone._bwd_offsets[lab] = self._bwd_offsets[lab]
            else:
                # Fresh nodes have no edges under untouched labels: extend
                # the offsets with the final running total, keep targets.
                clone._fwd_offsets[lab] = _extend_offsets(
                    self._fwd_offsets[lab], count - old_count
                )
                clone._bwd_offsets[lab] = _extend_offsets(
                    self._bwd_offsets[lab], count - old_count
                )
            clone._fwd_targets[lab] = self._fwd_targets[lab]
            clone._bwd_targets[lab] = self._bwd_targets[lab]
            view = self._fwd_views.get(lab)
            if view is not None:
                clone._fwd_views[lab] = view
            view = self._bwd_views.get(lab)
            if view is not None:
                clone._bwd_views[lab] = view
        for lab in touched:
            pairs: list[tuple[int, int]] = []
            offsets = self._fwd_offsets.get(lab)
            if offsets is not None:
                targets = self._fwd_targets[lab]
                tolist = getattr(targets, "tolist", None)
                target_values = tolist() if tolist is not None else list(targets)
                offset_values = offsets.tolist()
                for sid in range(old_count):
                    for position in range(offset_values[sid], offset_values[sid + 1]):
                        pairs.append((sid, target_values[position]))
            for edge in appended:
                if edge.label == lab:
                    pairs.append((node_ids[edge.source], node_ids[edge.target]))
            clone._label_counts[lab] = len(pairs)
            clone._fwd_offsets[lab], clone._fwd_targets[lab] = _build_csr(
                count, sorted(pairs)
            )
            clone._bwd_offsets[lab], clone._bwd_targets[lab] = _build_csr(
                count, sorted((target, source) for source, target in pairs)
            )
        clone._labels = frozenset(clone._fwd_offsets)
        return clone

    # -- snapshot support ---------------------------------------------------- #

    def dump_state(self) -> dict:
        """The picklable physical state for :mod:`repro.graph.snapshot`.

        Contains the interning table, the journal, and the raw CSR buffers
        — everything :meth:`restore_state` needs to reattach the backend
        without re-sorting or re-interning anything.
        """
        return {
            "alphabet": self._alphabet,
            "nodes": list(self._node_list),
            "journal": self._journal,
            "destructive": self._destructive,
            "edge_total": self._edge_total,
            "label_counts": dict(self._label_counts),
            "fwd_offsets": dict(self._fwd_offsets),
            "fwd_targets": dict(self._fwd_targets),
            "bwd_offsets": dict(self._bwd_offsets),
            "bwd_targets": dict(self._bwd_targets),
        }

    @classmethod
    def restore_state(cls, state: dict) -> "CsrBackend":
        """Reattach a backend from :meth:`dump_state` output (no rebuild).

        Buffers are reattached as stored — numpy arrays stay numpy arrays
        (no copies) — except when a snapshot written by a numpy-less
        installation (:class:`array.array` buffers) is loaded where numpy
        is available: those are upgraded once here, so the vector kernel
        never pays a per-query conversion.
        """
        backend = cls.__new__(cls)
        backend._alphabet = state["alphabet"]
        backend._node_list = list(state["nodes"])
        backend._node_ids = {
            node: index for index, node in enumerate(backend._node_list)
        }
        backend._journal = tuple(state["journal"])
        backend._destructive = bool(state["destructive"])
        backend._fingerprint_token = (
            None
            if backend._destructive
            else Fingerprint(frozenset(backend._node_list), backend._journal)
        )
        backend._edge_total = int(state["edge_total"])
        backend._label_counts = dict(state["label_counts"])
        backend._labels = frozenset(backend._label_counts)
        backend._fwd_offsets = _coerce_buffers(state["fwd_offsets"])
        backend._fwd_targets = _coerce_buffers(state["fwd_targets"])
        backend._bwd_offsets = _coerce_buffers(state["bwd_offsets"])
        backend._bwd_targets = _coerce_buffers(state["bwd_targets"])
        backend._fwd_views = {}
        backend._bwd_views = {}
        backend._fwd_lists = {}
        backend._bwd_lists = {}
        backend._fwd_arrays = {}
        backend._bwd_arrays = {}
        backend._edge_set = None
        return backend


def _build_csr(node_count: int, sorted_pairs: list[tuple[int, int]]) -> tuple:
    """Build ``(offsets, targets)`` buffers from pairs sorted by (row, col).

    With numpy the whole build is three array ops (``bincount`` for the
    per-row degrees, ``cumsum`` for the offsets, one fancy slice for the
    targets); the :class:`array.array` fallback is the original Python
    counting loop.  Both produce identical integer content.
    """
    np_mod = kernels.get_numpy()
    if np_mod is not None:
        offsets = np_mod.zeros(node_count + 1, dtype=np_mod.int64)
        if sorted_pairs:
            pairs = np_mod.asarray(sorted_pairs, dtype=np_mod.int64)
            np_mod.cumsum(
                np_mod.bincount(pairs[:, 0], minlength=node_count),
                out=offsets[1:],
            )
            targets = np_mod.ascontiguousarray(pairs[:, 1])
        else:
            targets = np_mod.empty(0, dtype=np_mod.int64)
        return offsets, targets
    offsets = array("q", bytes(8 * (node_count + 1)))
    targets = array("q", (col for _, col in sorted_pairs))
    for row, _ in sorted_pairs:
        offsets[row + 1] += 1
    running = 0
    for index in range(1, node_count + 1):
        running += offsets[index]
        offsets[index] = running
    return offsets, targets


def _extend_offsets(offsets, extra: int):
    """Append ``extra`` copies of the final running total to an offsets buffer."""
    np_mod = kernels.get_numpy()
    if np_mod is not None and isinstance(offsets, np_mod.ndarray):
        return np_mod.concatenate(
            [offsets, np_mod.full(extra, offsets[-1], dtype=np_mod.int64)]
        )
    extended = array("q", offsets)
    extended.extend([extended[-1]] * extra)
    return extended


def _coerce_buffers(buffers: dict) -> dict:
    """Upgrade restored CSR buffers to numpy when numpy is available."""
    np_mod = kernels.get_numpy()
    if np_mod is None:
        return dict(buffers)
    return {
        lab: buf
        if isinstance(buf, np_mod.ndarray)
        else np_mod.asarray(buf, dtype=np_mod.int64)
        for lab, buf in buffers.items()
    }
