"""Directed edge-labeled graph databases.

An instance over a target schema (finite alphabet) Σ is a directed,
edge-labeled graph ``G = (V, E)`` with ``V`` a finite set of node ids and
``E ⊆ V × Σ × V`` (paper, Section 2).  Nodes are arbitrary hashable values;
labels are strings.

:class:`GraphDatabase` is the single data model every chase, query
engine, and serialisation layer speaks, and it holds its own storage:
per-label forward hash adjacency (``label → node → set``), the node set,
per-label edge counts and an append-only *journal* of plain ``(source,
label, target)`` triples (``version`` / ``edges_since``) that makes
semi-naive (delta) chase iteration and content fingerprints possible.
The rest is derived on a reader's first ask, then kept up to date by
every mutation: a bulk-loaded label's backward adjacency (a label
``add_edge`` creates keeps both directions from its first edge), the
any-label incident-edge indexes (``edges_from`` / ``edges_to``: a merge
finds a node's edges in O(degree)) and the :class:`Edge` set.

:meth:`GraphDatabase.freeze` returns a :class:`FrozenGraphDatabase`, a
read-only twin whose mutators raise
:class:`~repro.errors.FrozenGraphError` and which round-trips through the
version-stamped snapshot files of :mod:`repro.graph.snapshot`;
:meth:`GraphDatabase.thaw` goes back to a mutable twin with the journal
(hence the content fingerprint) preserved.  Twins share their storage
until one side's first mutation copies it.
``tests/test_graph/test_backends.py`` drives random mutation scripts and
asserts that freezing, thawing, copying and snapshot reloads change no
observable, on either side of a share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator

from repro.errors import FrozenGraphError, SchemaError
from repro.telemetry import span

Node = Hashable
LabelName = str
Triple = tuple[Node, LabelName, Node]

__all__ = [
    "Edge",
    "Fingerprint",
    "FrozenGraphDatabase",
    "GraphDatabase",
    "LabelName",
    "Node",
]

# Shared empty adjacency returned by the *_index accessors for absent labels.
_EMPTY_INDEX: dict = {}


class Fingerprint:
    """A content token for an append-only graph.

    Wraps ``(nodes, journal)`` with a hash computed once at construction, so
    fingerprints are cheap to use as cache keys no matter how often they are
    looked up.  Two fingerprints compare equal iff the node sets and journal
    sequences are equal — i.e. iff the graphs have identical content (for
    graphs that never removed or renamed anything, the journal *is* the edge
    set, in insertion order).  A graph and its frozen copy carry equal
    tokens.
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
        # Edges are hashed constantly (edge sets, incident-edge indexes,
        # trigger dedupe); the generated dataclass hash rebuilds
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


_new = object.__new__


def _edge(source: Node, lab: LabelName, target: Node) -> Edge:
    """An :class:`Edge` built field-wise, its hash memoised up front.

    The frozen dataclass ``__init__`` and the first ``__hash__`` cost four
    ``object.__setattr__`` calls per edge; the derived edge set and the
    journal slices build edges in bulk.
    """
    edge = _new(Edge)
    fields = edge.__dict__
    fields["source"], fields["label"], fields["target"] = source, lab, target
    fields["_hash"] = hash((source, lab, target))
    return edge


def _copy_adjacency(
    index: dict[LabelName, dict[Node, set[Node]]],
) -> dict[LabelName, dict[Node, set[Node]]]:
    """Copy a ``label → node → set`` index, dropping emptied buckets."""
    return {
        lab: {node: set(peers) for node, peers in bucket.items() if peers}
        for lab, bucket in index.items()
    }


class GraphDatabase:
    """A finite directed edge-labeled graph with fast per-label adjacency.

    ``alphabet`` optionally fixes the target schema Σ; when provided, adding
    an edge with a label outside Σ raises :class:`~repro.errors.SchemaError`.
    When omitted, the alphabet is open and grows with the edges.  ``edges``
    are bulk-loaded in one pass and become the journal, in order (a
    repeated edge keeps its first position); ``nodes`` adds isolated nodes.

    >>> g = GraphDatabase(alphabet={"f", "h"})
    >>> g.add_edge("c1", "f", "c2")
    >>> g.has_edge("c1", "f", "c2")
    True
    >>> sorted(g.successors("c1", "f"))
    ['c2']

    :meth:`freeze` returns a read-only twin that shares the storage, for
    a graph that will be queried or snapshotted; a later write copies it:

    >>> frozen = g.freeze()
    >>> frozen.is_frozen
    True
    >>> sorted(frozen.successors("c1", "f")) == sorted(g.successors("c1", "f"))
    True
    >>> g.add_edge("c2", "h", "c3")
    >>> frozen.has_edge("c2", "h", "c3")
    False
    """

    __slots__ = (
        "_alphabet",
        "_nodes",
        "_fwd",
        "_bwd",
        "_label_counts",
        "_journal",
        "_destructive",
        "_journal_live",
        "_fingerprint",
        "_fingerprint_key",
        "_edges",
        "_out_edges",
        "_in_edges",
        "_shared",
    )

    def __init__(
        self,
        alphabet: Iterable[LabelName] | None = None,
        nodes: Iterable[Node] = (),
        edges: Iterable[Triple] = (),
    ):
        declared = frozenset(alphabet) if alphabet is not None else None
        self._alphabet: frozenset[LabelName] | None = declared
        # label -> node -> set of successors
        fwd: dict[LabelName, dict[Node, set[Node]]] = {}
        # Append-only log of edge insertions; len() is the graph version.
        journal: list[Triple] = []
        append = journal.append
        for entry in edges:
            source, lab, target = entry
            by_source = fwd.get(lab)
            if by_source is None:
                if declared is not None and lab not in declared:
                    raise SchemaError(
                        f"label {lab!r} is not in the alphabet {sorted(declared)}"
                    )
                by_source = fwd[lab] = {}
            targets = by_source.get(source)
            if targets is None:
                by_source[source] = {target}
            elif target in targets:
                continue
            else:
                targets.add(target)
            # The caller's tuple becomes the journal entry, one allocation
            # (and one object for the collector to track) less per edge;
            # any other sequence is copied so entries stay immutable.
            append(entry if entry.__class__ is tuple else (source, lab, target))
        node_set: set[Node] = set()
        for by_source in fwd.values():
            node_set.update(by_source, *by_source.values())
        node_set.update(nodes)
        self._nodes = node_set
        self._fwd = fwd
        # label -> node -> set of predecessors, for the labels read so far
        self._bwd: dict[LabelName, dict[Node, set[Node]]] = {}
        # label -> number of edges, so join ordering reads sizes in O(1)
        self._label_counts: dict[LabelName, int] = {
            lab: sum(map(len, by_source.values())) for lab, by_source in fwd.items()
        }
        self._journal = journal
        # Destructive operations permanently disqualify the graph from
        # journal-keyed caching and end the journal; the token is
        # memoised per size key.
        self._destructive = False
        # Whether the journal lists exactly the live edges.
        self._journal_live = True
        self._fingerprint: Fingerprint | None = None
        self._fingerprint_key: tuple[int, int] | None = None
        # Derived, ``None`` until first read: the edge set and node ->
        # incident edges, any label (for merges and delta matching).
        self._edges: set[Edge] | None = None
        self._out_edges: dict[Node, set[Edge]] | None = None
        self._in_edges: dict[Node, set[Edge]] | None = None
        # Whether a twin may hold the containers (see _unshare).
        self._shared = False

    @classmethod
    def from_edges(
        cls,
        alphabet: Iterable[LabelName] | None,
        edges: Iterable[Triple],
        *,
        destructive: bool = False,
        nodes: Iterable[Node] = (),
        journal: Iterable[Triple] | None = None,
    ) -> "GraphDatabase":
        """Bulk-load a graph of this class, with a given history.

        The content is ``GraphDatabase(alphabet, nodes, edges)``'s.
        ``destructive`` marks a journal that is not the graph's history —
        a chase result loaded after its merges — so the graph carries no
        fingerprint.  ``journal`` replaces the journal with a recorded one
        (a destructive graph's, which may list removed edges).

        >>> g = GraphDatabase.from_edges(None, [("u", "a", "v")], destructive=True)
        >>> g.version, g.edge_count(), g.fingerprint() is None
        (1, 1, True)
        """
        graph = cls(alphabet, nodes, edges)
        if journal is not None:
            graph._journal = [(s, lab, t) for s, lab, t in journal]
            graph._journal_live = False
        graph._destructive = destructive
        return graph

    # ------------------------------------------------------------------ #
    # Frozen and mutable copies
    # ------------------------------------------------------------------ #

    @property
    def is_frozen(self) -> bool:
        """Whether this graph is a read-only :meth:`freeze` copy.

        >>> g = GraphDatabase(edges=[("u", "a", "v")])
        >>> g.is_frozen, g.freeze().is_frozen
        (False, True)
        """
        return isinstance(self, FrozenGraphDatabase)

    def freeze(self) -> "GraphDatabase":
        """Return a read-only twin of this graph, in O(labels).

        The twin keeps the content, journal, ``destructive`` flag and
        fingerprint, so query-engine caches keyed on :meth:`fingerprint`
        treat the two interchangeably.  It shares this graph's storage,
        which this graph's next mutation copies first.  Every mutation of
        the twin raises :class:`~repro.errors.FrozenGraphError`.  Freezing
        a frozen graph returns it unchanged.

        >>> g = GraphDatabase(edges=[("u", "a", "v")])
        >>> frozen = g.freeze()
        >>> frozen.edges() == g.edges()
        True
        >>> frozen.fingerprint() == g.fingerprint()
        True
        >>> frozen.freeze() is frozen
        True
        """
        if self.is_frozen:
            return self
        with span("graph.freeze"):
            return self._share(FrozenGraphDatabase, self._alphabet, history=True)

    def thaw(self) -> "GraphDatabase":
        """Return a mutable twin of this graph.

        The twin keeps the journal, the ``destructive`` flag and the
        fingerprint, so ``freeze``/``thaw`` round trips are content- *and*
        cache-exact.  Thawing a mutable graph returns an independent twin;
        either side copies the shared storage on its first mutation.

        >>> g = GraphDatabase(edges=[("u", "a", "v")])
        >>> thawed = g.freeze().thaw()
        >>> thawed.is_frozen
        False
        >>> thawed.fingerprint() == g.fingerprint()
        True
        """
        return self._share(GraphDatabase, self._alphabet, history=True)

    def copy(self) -> "GraphDatabase":
        """Return an independent *mutable* twin (same alphabet declaration).

        Copy-on-write like :meth:`thaw`; the copy of a frozen graph is
        mutable too — the point of copying is to mutate the result.
        Unlike :meth:`thaw`, the copy starts a fresh history: its journal
        is the live edge set (in journal order when the journal is exactly
        the edge set), it is not destructive and ``version ==
        edge_count()``.
        """
        return self._share(GraphDatabase, self._alphabet, history=False)

    def with_alphabet(self, alphabet: Iterable[LabelName]) -> "GraphDatabase":
        """Return a :meth:`copy` whose declared alphabet is ``alphabet``.

        Useful when a graph built over Σ must be re-read over Σ ∪ {sameAs}.
        Labels in use that ``alphabet`` lacks raise
        :class:`~repro.errors.SchemaError`, exactly like replaying the
        edges would.
        """
        declared = frozenset(alphabet)
        for lab in self.labels():
            if lab not in declared:
                raise SchemaError(
                    f"label {lab!r} is not in the alphabet {sorted(declared)}"
                )
        return self._share(GraphDatabase, declared, history=False)

    def _share(
        self,
        cls: "type[GraphDatabase]",
        alphabet: frozenset[LabelName] | None,
        history: bool,
    ) -> "GraphDatabase":
        """A new ``cls`` over this graph's containers, both marked shared.

        With ``history`` the twin keeps the journal, the ``destructive``
        flag and the memoised fingerprint, so ``version``, ``edges_since``
        and :meth:`fingerprint` read the same on both sides; without it
        the twin's journal is the live edge set.  Each side gets its own
        label → backward-index map, so a later lazy build publishes into
        one side's map only.  The derived edge indexes are not shared.
        Neither side learns when the other is gone or has copied, so each
        copies on its own first write.
        """
        twin = cls.__new__(cls)
        twin._alphabet = alphabet
        twin._nodes = self._nodes
        twin._fwd = self._fwd
        twin._bwd = dict(self._bwd)
        twin._label_counts = self._label_counts
        if history:
            twin._journal = self._journal
            twin._destructive = self._destructive
            twin._journal_live = self._journal_live
            twin._fingerprint = self._fingerprint
            twin._fingerprint_key = self._fingerprint_key
        else:
            twin._journal = self.live_triples()
            twin._destructive = False
            twin._journal_live = True
            twin._fingerprint = twin._fingerprint_key = None
        twin._edges = twin._out_edges = twin._in_edges = None
        twin._shared = self._shared = True
        return twin

    def _unshare(self) -> None:
        """Copy the containers a twin may hold, before the first write."""
        self._nodes = set(self._nodes)
        self._fwd = _copy_adjacency(self._fwd)
        self._bwd = _copy_adjacency(self._bwd)
        self._label_counts = dict(self._label_counts)
        self._journal = list(self._journal)
        self._shared = False

    # ------------------------------------------------------------------ #
    # Schema
    # ------------------------------------------------------------------ #

    @property
    def alphabet(self) -> frozenset[LabelName]:
        """The declared alphabet, or the set of labels in use if undeclared."""
        if self._alphabet is not None:
            return self._alphabet
        return self.labels()

    def declared_alphabet(self) -> frozenset[LabelName] | None:
        """The alphabet fixed at construction, or ``None`` when open."""
        return self._alphabet

    def labels(self) -> frozenset[LabelName]:
        """The labels currently carried by at least one edge.

        Counts-based, not index-keys-based: a label whose every edge was
        removed again is no longer *in use*, and a snapshot reload (rebuilt
        from the edge set) must observe the same label set.
        """
        return frozenset(
            lab for lab, count in self._label_counts.items() if count > 0
        )

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #

    def add_node(self, node: Node) -> None:
        """Add an isolated node (idempotent).

        Raises :class:`~repro.errors.FrozenGraphError` on a frozen graph.
        """
        if self._shared:
            self._unshare()
        self._nodes.add(node)

    def add_edge(self, source: Node, lab: LabelName, target: Node) -> None:
        """Add the edge ``(source, lab, target)``; endpoints are auto-added.

        Duplicates are detected on the forward index (which mirrors the
        edge set exactly) — the chase re-adds edges constantly, and the
        duplicate path costs two dict probes and one set probe, no
        allocation.  A label this call creates keeps its backward index
        from the first edge on, so a graph grown edge by edge never derives
        one on a read.  An :class:`Edge` is built only when the derived
        edge indexes exist and must follow.  A destructive graph journals
        nothing more.  Raises :class:`~repro.errors.FrozenGraphError` on a
        frozen graph.
        """
        if self._alphabet is not None and lab not in self._alphabet:
            raise SchemaError(
                f"label {lab!r} is not in the alphabet {sorted(self._alphabet)}"
            )
        fwd = self._fwd.get(lab, _EMPTY_INDEX)
        targets = fwd.get(source)
        if targets is not None and target in targets:
            return  # duplicate: endpoints are already present too
        if self._shared:
            self._unshare()
            fwd = self._fwd.get(lab, _EMPTY_INDEX)
            targets = fwd.get(source)
        if fwd is _EMPTY_INDEX:
            fwd = self._fwd[lab] = {}
            self._bwd[lab] = {}
        if targets is None:
            targets = fwd[source] = set()
        targets.add(target)
        self._nodes.add(source)
        self._nodes.add(target)
        bwd = self._bwd.get(lab)
        if bwd is not None:
            bwd.setdefault(target, set()).add(source)
        self._label_counts[lab] = self._label_counts.get(lab, 0) + 1
        if self._destructive:
            self._journal_live = False
        else:
            self._journal.append((source, lab, target))
        if self._edges is not None:
            edge = _edge(source, lab, target)
            self._edges.add(edge)
            self._out_edges.setdefault(source, set()).add(edge)
            self._in_edges.setdefault(target, set()).add(edge)

    def remove_edge(self, source: Node, lab: LabelName, target: Node) -> None:
        """Remove an edge if present; endpoints stay in the node set.

        Raises :class:`~repro.errors.FrozenGraphError` on a frozen graph.
        """
        self._destructive = True  # the journal no longer determines the content
        targets = self._fwd.get(lab, _EMPTY_INDEX).get(source)
        if targets is None or target not in targets:
            return
        if self._shared:
            self._unshare()
            targets = self._fwd[lab][source]
        self._journal_live = False
        targets.discard(target)
        if lab in self._bwd:
            self._bwd[lab][target].discard(source)
        self._label_counts[lab] -= 1
        if self._edges is not None:
            edge = _edge(source, lab, target)
            self._edges.discard(edge)
            self._out_edges[source].discard(edge)
            self._in_edges[target].discard(edge)

    def rename_node(self, old: Node, new: Node) -> frozenset[Edge]:
        """Rename ``old`` to ``new`` in place, rewriting incident edges.

        Returns the rewritten edges (as they read *after* the rename) so
        that callers can re-match triggers against exactly the part of the
        graph that changed.  O(degree(old)), not O(|E|), once the derived
        incident-edge maps exist (the first rename builds them).  Renaming
        a node onto itself or an unknown node is a no-op.  Raises
        :class:`~repro.errors.FrozenGraphError` on a frozen graph.

        >>> g = GraphDatabase(edges=[("u", "a", "x"), ("w", "b", "x")])
        >>> sorted(str(e) for e in g.rename_node("x", "y"))
        ['(u -a-> y)', '(w -b-> y)']
        >>> g.has_edge("u", "a", "x")
        False
        """
        if old == new or old not in self._nodes:
            return frozenset()
        if self._shared:
            self._unshare()
        self._destructive = True  # node set changes without a journal entry
        _, out_edges, in_edges = self._incidence()
        rewritten: set[Edge] = set()
        incident = out_edges.get(old, set()) | in_edges.get(old, set())
        for edge in list(incident):
            self.remove_edge(edge.source, edge.label, edge.target)
            source = new if edge.source == old else edge.source
            target = new if edge.target == old else edge.target
            self.add_edge(source, edge.label, target)
            rewritten.add(_edge(source, edge.label, target))
        self._nodes.discard(old)
        self._nodes.add(new)
        return frozenset(rewritten)

    def discard_node(self, node: Node) -> None:
        """Remove an *isolated* node from the node set (absent: no-op).

        Raises :class:`~repro.errors.SchemaError` while ``node`` still has
        incident edges — callers must retract the edges first, so the node
        set can never silently disagree with the edge set — and
        :class:`~repro.errors.FrozenGraphError` on a frozen graph.  Like
        :meth:`remove_edge` this is a destructive mutation: the graph stops
        being fingerprintable.  The incremental chase uses it to drop
        merged nodes whose last supporting base edge was retracted.

        >>> g = GraphDatabase(nodes=["u"], edges=[("v", "a", "w")])
        >>> g.discard_node("u")
        >>> sorted(g.nodes())
        ['v', 'w']
        """
        if node not in self._nodes:
            return
        for lab, by_source in self._fwd.items():
            if by_source.get(node) or self.has_predecessor(node, lab):
                raise SchemaError(
                    f"cannot discard node {node!r}: it still has incident edges"
                )
        if self._shared:
            self._unshare()
        self._destructive = True  # node set changes without a journal entry
        self._nodes.discard(node)

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #

    def has_edge(self, source: Node, lab: LabelName, target: Node) -> bool:
        """Return whether the edge ``(source, lab, target)`` is present.

        Probed on the forward index: three container probes, no
        :class:`Edge` construction — this runs per candidate pair in the
        sameAs saturation's violation filter.
        """
        bucket = self._fwd.get(lab)
        if bucket is None:
            return False
        targets = bucket.get(source)
        return targets is not None and target in targets

    def nodes(self) -> frozenset[Node]:
        """Return the node set."""
        return frozenset(self._nodes)

    def edges(self) -> frozenset[Edge]:
        """Return the edge set (builds the derived edge indexes on first call)."""
        return frozenset(self._incidence()[0])

    def live_triples(self) -> list[Triple]:
        """Return the live edges as ``(source, label, target)`` triples.

        While the journal lists exactly the live edges it is returned as
        it stands (the graph's own list — READ ONLY, not to be held
        across a mutation, as :meth:`journal_triples`); once an edge was
        removed, or added to a destructive graph (which journals nothing
        more), this reads the forward index instead.

        >>> g = GraphDatabase(edges=[("u", "a", "v"), ("v", "a", "w")])
        >>> g.remove_edge("u", "a", "v")
        >>> g.add_edge("w", "a", "u")
        >>> sorted(g.live_triples())
        [('v', 'a', 'w'), ('w', 'a', 'u')]
        """
        if self._journal_live:
            return self._journal
        return [
            (source, lab, target)
            for lab, by_source in self._fwd.items()
            for source, targets in by_source.items()
            for target in targets
        ]

    def journal_triples(self) -> list[Triple]:
        """Return the journal as ``(source, label, target)`` triples — READ ONLY.

        The graph's own list, as :meth:`forward_index` is, with the same
        caveat: do not hold it across a mutation, because the first write
        of a graph that shares its storage (:meth:`freeze`) moves the graph
        to a copy.  No :class:`Edge` is built.
        """
        return self._journal

    def successors(self, node: Node, lab: LabelName) -> frozenset[Node]:
        """Return ``{v | (node, lab, v) ∈ E}``."""
        return frozenset(self._fwd.get(lab, _EMPTY_INDEX).get(node, ()))

    def predecessors(self, node: Node, lab: LabelName) -> frozenset[Node]:
        """Return ``{u | (u, lab, node) ∈ E}``."""
        return frozenset(self.backward_index(lab).get(node, ()))

    def edges_with_label(self, lab: LabelName) -> frozenset[tuple[Node, Node]]:
        """Return all ``(u, v)`` pairs with an edge labeled ``lab``."""
        return frozenset(self.iter_label_pairs(lab))

    def forward_index(self, lab: LabelName) -> dict[Node, set[Node]]:
        """Return the live forward adjacency index for ``lab`` — READ ONLY.

        Unlike :meth:`successors` this copies nothing: the returned mapping
        is the graph's own index (``node → set of successors``), shared
        for the lifetime of the graph.  Callers must not mutate it and must
        not hold it across mutations: the first one of a graph that shares
        its storage with a twin (:meth:`freeze`) writes to fresh copies.

        >>> g = GraphDatabase(edges=[("u", "a", "v")])
        >>> g.forward_index("a")["u"]
        {'v'}
        >>> g.forward_index("zz")
        {}
        """
        return self._fwd.get(lab, _EMPTY_INDEX)

    def backward_index(self, lab: LabelName) -> dict[Node, set[Node]]:
        """Return the live backward adjacency index for ``lab`` — READ ONLY.

        The mirror of :meth:`forward_index` (``node → set of predecessors``);
        the same sharing caveats apply.  A bulk-loaded label's first call
        derives it from the forward index (O(label edges)), in a local
        published by one assignment, so a concurrent reader of a frozen
        graph never sees it half built; mutations keep it current.

        >>> g = GraphDatabase(edges=[("u", "a", "v")])
        >>> g.backward_index("a")["v"]
        {'u'}
        """
        index = self._bwd.get(lab)
        if index is None:
            by_source = self._fwd.get(lab)
            if by_source is None:
                return _EMPTY_INDEX
            index = {}
            for source, targets in by_source.items():
                for target in targets:
                    index.setdefault(target, set()).add(source)
            self._bwd[lab] = index
        return index

    def iter_label_pairs(self, lab: LabelName) -> Iterator[tuple[Node, Node]]:
        """Iterate the ``(u, v)`` pairs labeled ``lab`` without copying.

        Reads the live adjacency index: do not add or remove ``lab``
        edges while consuming it (use :meth:`edges_with_label` for a
        snapshot).

        >>> g = GraphDatabase(edges=[("u", "a", "v")])
        >>> list(g.iter_label_pairs("a"))
        [('u', 'v')]
        """
        for u, targets in self._fwd.get(lab, _EMPTY_INDEX).items():
            for v in targets:
                yield (u, v)

    def has_successor(self, node: Node, lab: LabelName) -> bool:
        """Return whether ``node`` has any outgoing ``lab`` edge (no copying).

        >>> g = GraphDatabase(edges=[("u", "a", "v")])
        >>> g.has_successor("u", "a"), g.has_successor("v", "a")
        (True, False)
        """
        return bool(self._fwd.get(lab, _EMPTY_INDEX).get(node))

    def has_predecessor(self, node: Node, lab: LabelName) -> bool:
        """Return whether ``node`` has any incoming ``lab`` edge (no copying).

        >>> g = GraphDatabase(edges=[("u", "a", "v")])
        >>> g.has_predecessor("v", "a"), g.has_predecessor("u", "a")
        (True, False)
        """
        return bool(self.backward_index(lab).get(node))

    def label_count(self, lab: LabelName) -> int:
        """Return the number of edges labeled ``lab``, from an O(1) counter.

        >>> g = GraphDatabase(edges=[("u", "a", "v"), ("v", "a", "w")])
        >>> g.label_count("a"), g.label_count("b")
        (2, 0)
        """
        return self._label_counts.get(lab, 0)

    def edges_from(self, node: Node) -> frozenset[Edge]:
        """Return every edge whose source is ``node`` (any label).

        >>> g = GraphDatabase(edges=[("u", "a", "v"), ("w", "b", "u")])
        >>> [str(e) for e in g.edges_from("u")]
        ['(u -a-> v)']
        """
        return frozenset(self._incidence()[1].get(node, ()))

    def edges_to(self, node: Node) -> frozenset[Edge]:
        """Return every edge whose target is ``node`` (any label).

        >>> g = GraphDatabase(edges=[("u", "a", "v"), ("w", "b", "u")])
        >>> [str(e) for e in g.edges_to("u")]
        ['(w -b-> u)']
        """
        return frozenset(self._incidence()[2].get(node, ()))

    def _incidence(
        self,
    ) -> tuple[set[Edge], dict[Node, set[Edge]], dict[Node, set[Edge]]]:
        """The derived edge set and incident-edge maps, built on first use.

        One pass over the forward index; from then on every mutation keeps
        the three up to date.
        """
        if self._edges is None:
            edges: set[Edge] = set()
            out_edges: dict[Node, set[Edge]] = {}
            in_edges: dict[Node, set[Edge]] = {}
            for lab, by_source in self._fwd.items():
                for source, targets in by_source.items():
                    if not targets:
                        continue
                    outgoing = out_edges.setdefault(source, set())
                    for target in targets:
                        edge = _edge(source, lab, target)
                        edges.add(edge)
                        outgoing.add(edge)
                        incoming = in_edges.get(target)
                        if incoming is None:
                            in_edges[target] = {edge}
                        else:
                            incoming.add(edge)
            self._edges, self._out_edges, self._in_edges = edges, out_edges, in_edges
        return self._edges, self._out_edges, self._in_edges

    # ------------------------------------------------------------------ #
    # Journal / fingerprint
    # ------------------------------------------------------------------ #

    @property
    def version(self) -> int:
        """A counter that increases with every edge insertion.

        ``edges_since(version)`` later returns exactly the edges inserted
        after the version was read — the delta the semi-naive chase rounds
        re-match against.  The journal ends at the first destructive
        mutation: from then on the version stays put.

        >>> g = GraphDatabase()
        >>> v = g.version
        >>> g.add_edge("u", "a", "v")
        >>> g.version == v + 1
        True
        """
        return len(self._journal)

    def edges_since(self, version: int) -> list[Edge]:
        """Return the edges inserted after ``version`` was read, in order.

        Only a graph that is not :attr:`destructive` journals its
        insertions, so on a destructive graph this lists none of the edges
        added since it became destructive (and may still list edges that
        were removed); delta readers run on graphs that only grow.

        >>> g = GraphDatabase(edges=[("u", "a", "v")])
        >>> v = g.version
        >>> g.add_edge("v", "a", "w")
        >>> [str(e) for e in g.edges_since(v)]
        ['(v -a-> w)']
        """
        return [_edge(*entry) for entry in self._journal[version:]]

    @property
    def destructive(self) -> bool:
        """Whether a destructive mutation ended the journal and its caching.

        Set by :meth:`remove_edge`, :meth:`rename_node`,
        :meth:`discard_node` and a ``destructive`` :meth:`from_edges` load.

        >>> g = GraphDatabase(edges=[("u", "a", "v")])
        >>> g.remove_edge("u", "a", "v")
        >>> g.destructive
        True
        """
        return self._destructive

    def fingerprint(self) -> Fingerprint | None:
        """Return a hashable content token, or ``None`` if uncacheable.

        The token is derived from the node set and the append-only edge
        journal: for graphs that only ever grew (no :meth:`remove_edge`, no
        :meth:`rename_node`), equal tokens imply equal content, so query
        engines may key evaluation caches on it — the *cross-candidate*
        cache of :class:`repro.engine.query.QueryEngine` does exactly that
        to let content-identical candidate solutions share work.  Graphs
        that underwent destructive mutation return ``None`` forever (their
        journal no longer determines their edges) and are simply evaluated
        without cross-graph caching.  A graph and its :meth:`freeze` copy
        carry equal tokens.

        >>> g = GraphDatabase(edges=[("u", "a", "v")])
        >>> g.fingerprint() == GraphDatabase(edges=[("u", "a", "v")]).fingerprint()
        True
        >>> g.remove_edge("u", "a", "v")
        >>> g.fingerprint() is None
        True
        """
        if self._destructive:
            return None
        key = (len(self._journal), len(self._nodes))
        if self._fingerprint is None or self._fingerprint_key != key:
            self._fingerprint = Fingerprint(
                frozenset(self._nodes), tuple(self._journal)
            )
            self._fingerprint_key = key
        return self._fingerprint

    # ------------------------------------------------------------------ #
    # Counting
    # ------------------------------------------------------------------ #

    def node_count(self) -> int:
        """Return the number of nodes."""
        return len(self._nodes)

    def edge_count(self) -> int:
        """Return the number of edges, summed from the per-label counters."""
        return sum(self._label_counts.values())

    # ------------------------------------------------------------------ #
    # Dunder protocol
    # ------------------------------------------------------------------ #

    def __contains__(self, node: object) -> bool:
        return node in self._nodes

    def __iter__(self) -> Iterator[Edge]:
        return iter(sorted(self.edges(), key=repr))

    def __len__(self) -> int:
        return self.edge_count()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GraphDatabase):
            return NotImplemented
        # Content equality: a graph equals its frozen copy.  Compared on
        # the triples, so neither side builds its derived Edge set.
        return self._nodes == other._nodes and set(self.live_triples()) == set(
            other.live_triples()
        )

    __hash__ = None  # type: ignore[assignment] - mutable container semantics

    def __repr__(self) -> str:
        return (
            f"GraphDatabase(|V|={self.node_count()}, |E|={self.edge_count()}, "
            f"Σ={sorted(map(str, self.alphabet))})"
        )


class FrozenGraphDatabase(GraphDatabase):
    """A read-only :class:`GraphDatabase`: every mutator raises.

    Built by :meth:`GraphDatabase.freeze` or a snapshot load
    (:func:`~repro.graph.snapshot.load_snapshot`); reads are the inherited
    ones.  The refusal lives in these overrides rather than in a flag the
    base class checks, so the chase's ``add_edge`` and bulk-load hot paths
    pay nothing for it.
    """

    __slots__ = ()

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


def _frozen_mutation(operation: str) -> FrozenGraphError:
    return FrozenGraphError(
        f"cannot {operation} on a frozen graph — call thaw() to get a "
        "mutable copy first"
    )
