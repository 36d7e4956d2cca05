"""Physical storage behind :class:`~repro.graph.database.GraphDatabase`.

The logical data model of the paper — a directed edge-labeled graph
``G = (V, E)``, ``E ⊆ V × Σ × V`` — has one physical form,
:class:`DictBackend`: per-label hash adjacency in both directions
(``label → node → set``), the node set, per-label edge counts and the
append-only journal of ``(source, label, target)`` triples that powers
semi-naive chase rounds and content fingerprinting.  The :class:`Edge`
set and the any-label incident-edge indexes are derived from the
adjacency the first time a reader asks for them.

:meth:`~repro.graph.database.GraphDatabase.freeze` copies a graph onto a
:class:`FrozenDictBackend`: the same indexes and journal, with every
mutation hook raising :class:`~repro.errors.FrozenGraphError`.
:meth:`~repro.graph.database.GraphDatabase.thaw` copies it back onto a
mutable :class:`DictBackend`.  Frozen graphs serialise to version-stamped
snapshot files via :mod:`repro.graph.snapshot`;
``tests/test_graph/test_backends.py`` drives random mutation scripts and
asserts that freezing, thawing, cloning and snapshot reloads change no
observable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator

from repro.errors import FrozenGraphError, SchemaError

Node = Hashable
LabelName = str
Triple = tuple[Node, LabelName, Node]

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


class DictBackend:
    """The hash-index graph storage.

    Its storage is what the chase writes and the NRE search reads:
    forward and backward adjacency per label (``label → node → set``, so
    evaluation traverses edges both ways in O(degree)), the node set,
    per-label edge counts, and an append-only *journal* of plain
    ``(source, label, target)`` triples (``version`` / ``edges_since``)
    recording the order in which edges were added — what makes semi-naive
    (delta) chase iteration and content fingerprints possible.

    The :class:`Edge` set and the any-label incident-edge maps
    (``edges_from`` / ``edges_to``, which a merge step reads to find every
    edge touching a node in O(degree)) are *derived*: built from the
    forward index the first time :meth:`edges`, :meth:`edges_from`,
    :meth:`edges_to` or :meth:`rename_node` asks for them, and kept up to
    date by every mutation from then on.  A graph that is chased, frozen,
    queried and snapshotted never builds them.
    """

    mutable = True

    def __init__(self, alphabet: Iterable[LabelName] | None = None):
        self._alphabet: frozenset[LabelName] | None = (
            frozenset(alphabet) if alphabet is not None else None
        )
        self._nodes: set[Node] = set()
        # label -> node -> set of neighbours
        self._fwd: dict[LabelName, dict[Node, set[Node]]] = {}
        self._bwd: dict[LabelName, dict[Node, set[Node]]] = {}
        # label -> number of edges, so join ordering reads sizes in O(1)
        self._label_counts: dict[LabelName, int] = {}
        # Append-only log of edge insertions; len() is the graph version.
        self._journal: list[Triple] = []
        # Destructive operations permanently disqualify the graph from
        # journal-keyed caching; the token is memoised per size key.
        self._destructive = False
        self._fingerprint: Fingerprint | None = None
        self._fingerprint_key: tuple[int, int] | None = None
        # Derived, ``None`` until first read: the edge set and node ->
        # incident edges, any label (for merges and delta matching).
        self._edges: set[Edge] | None = None
        self._out_edges: dict[Node, set[Edge]] | None = None
        self._in_edges: dict[Node, set[Edge]] | None = None

    # -- schema ---------------------------------------------------------- #

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

    # -- mutation hooks --------------------------------------------------- #

    def add_node(self, node: Node) -> None:
        """Add an isolated node (idempotent)."""
        self._nodes.add(node)

    def add_edge(self, source: Node, lab: LabelName, target: Node) -> None:
        """Add the edge ``(source, lab, target)``; endpoints are auto-added.

        Duplicates are detected on the forward index (which mirrors the
        edge set exactly) — the chase re-adds edges constantly, and the
        duplicate path costs two dict probes and one set probe, no
        allocation.  An :class:`Edge` is built only when the derived edge
        indexes exist and must follow.
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
        self._bwd.setdefault(lab, {}).setdefault(target, set()).add(source)
        self._label_counts[lab] = self._label_counts.get(lab, 0) + 1
        self._journal.append((source, lab, target))
        if self._edges is not None:
            edge = _edge(source, lab, target)
            self._edges.add(edge)
            self._out_edges.setdefault(source, set()).add(edge)
            self._in_edges.setdefault(target, set()).add(edge)

    @classmethod
    def from_edges(
        cls,
        alphabet: Iterable[LabelName] | None,
        edges: Iterable[Triple],
        destructive: bool = False,
        nodes: Iterable[Node] = (),
        journal: Iterable[Triple] | None = None,
    ) -> "DictBackend":
        """Bulk-load ``edges`` in one pass; they become the journal, in order.

        The same content, journal and indexes as ``add_edge`` per edge
        (a repeated edge keeps its first position), without the per-call
        overhead; ``nodes`` adds isolated nodes.  A label outside
        ``alphabet`` raises :class:`~repro.errors.SchemaError`.
        ``destructive`` marks a journal that is not the graph's history —
        a chase result loaded after its merges — so the backend carries no
        fingerprint.  ``journal`` replaces the journal with a recorded one
        (a destructive graph's, which still lists removed edges).

        >>> backend = DictBackend.from_edges(None, [("u", "a", "v"), ("u", "a", "v")])
        >>> backend.version, backend.edge_count(), sorted(backend.nodes())
        (1, 1, ['u', 'v'])
        """
        backend = cls(alphabet)
        fwd, bwd = backend._fwd, backend._bwd
        append = backend._journal.append
        for entry in edges:
            source, lab, target = entry
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
            # The caller's tuple becomes the journal entry, one allocation
            # (and one object for the collector to track) less per edge;
            # any other sequence is copied so entries stay immutable.
            append(entry if entry.__class__ is tuple else (source, lab, target))
        node_set = backend._nodes
        for lab, by_source in fwd.items():
            node_set.update(by_source)
            node_set.update(bwd[lab])
        node_set.update(nodes)
        if journal is not None:
            backend._journal = [(s, lab, t) for s, lab, t in journal]
        backend._label_counts = {
            lab: sum(map(len, by_source.values())) for lab, by_source in fwd.items()
        }
        backend._destructive = destructive
        return backend

    def clone(self, alphabet: "Iterable[LabelName] | None" = None) -> "DictBackend":
        """A structural copy — index surgery, not edge-by-edge replay.

        Copies the two-level adjacency indexes directly, so cloning costs
        container copies only — no per-edge alphabet check or re-hash.
        ``alphabet`` re-declares the clone's alphabet (``None`` keeps the
        source's); labels in use that the new alphabet lacks raise
        :class:`~repro.errors.SchemaError`, exactly like replaying the
        edges would.  The clone's journal is the live edge set (fresh
        graphs replayed edge-by-edge journal the same way), in journal
        order when the journal is exactly the edge set, so it starts
        non-destructive with ``version == edge_count()``.
        """
        declared = self._alphabet if alphabet is None else frozenset(alphabet)
        if declared is not None:
            for lab, count in self._label_counts.items():
                if count > 0 and lab not in declared:
                    raise SchemaError(
                        f"label {lab!r} is not in the alphabet {sorted(declared)}"
                    )
        twin = self._copy(DictBackend, list(self.live_triples()), destructive=False)
        twin._alphabet = declared
        return twin

    def copy_as(self, cls: "type[DictBackend]") -> "DictBackend":
        """A structural copy onto ``cls`` that keeps everything observable.

        Unlike :meth:`clone` the copy keeps the journal, the ``destructive``
        flag and the memoised fingerprint, so ``version``, ``edges_since``
        and :meth:`fingerprint` read the same on both sides.  Freezing
        copies onto :class:`FrozenDictBackend`, thawing back onto
        :class:`DictBackend`.
        """
        twin = self._copy(cls, list(self._journal), self._destructive)
        twin._alphabet = self._alphabet
        twin._fingerprint = self._fingerprint
        twin._fingerprint_key = self._fingerprint_key
        return twin

    def _copy(
        self, cls: "type[DictBackend]", journal: list[Triple], destructive: bool
    ) -> "DictBackend":
        """Copy the storage (emptied buckets dropped) into a new ``cls``.

        The derived edge indexes are not copied; the copy builds its own
        if one of their readers asks.
        """

        def copy_adjacency(
            index: dict[LabelName, dict[Node, set[Node]]],
        ) -> dict[LabelName, dict[Node, set[Node]]]:
            copied = {}
            for lab, bucket in index.items():
                live = {node: set(peers) for node, peers in bucket.items() if peers}
                if live:
                    copied[lab] = live
            return copied

        twin = cls.__new__(cls)
        twin._nodes = set(self._nodes)
        twin._fwd = copy_adjacency(self._fwd)
        twin._bwd = copy_adjacency(self._bwd)
        twin._label_counts = {
            lab: count for lab, count in self._label_counts.items() if count > 0
        }
        twin._journal = journal
        twin._destructive = destructive
        twin._fingerprint = None
        twin._fingerprint_key = None
        twin._edges = twin._out_edges = twin._in_edges = None
        return twin

    def remove_edge(self, source: Node, lab: LabelName, target: Node) -> None:
        """Remove an edge if present; endpoints stay in the node set."""
        self._destructive = True  # the journal no longer determines the content
        targets = self._fwd.get(lab, _EMPTY_INDEX).get(source)
        if targets is None or target not in targets:
            return
        targets.discard(target)
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
        incident-edge maps exist (the first rename builds them).
        """
        if old == new or old not in self._nodes:
            return frozenset()
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
        """Remove an isolated node; absent nodes are a no-op.

        Raises :class:`~repro.errors.SchemaError` when ``node`` still has
        incident edges — callers (the incremental chase's dead-node
        cleanup) must retract the edges first, so the node set can never
        silently disagree with the edge set.  Removing a node breaks the
        journal-determines-content law like any other destructive mutation.
        """
        if node not in self._nodes:
            return
        for lab, by_source in self._fwd.items():
            if by_source.get(node) or self._bwd[lab].get(node):
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
        """The node set."""
        return frozenset(self._nodes)

    def edges(self) -> frozenset[Edge]:
        """The edge set (builds the derived edge indexes on first call)."""
        return frozenset(self._incidence()[0])

    def live_triples(self) -> list[Triple]:
        """The live edges as ``(source, label, target)`` triples.

        Every live edge was journaled when it was added, so a journal as
        long as the edge set *is* the edge set, and is returned as it
        stands (the backend's own list — READ ONLY); only removals and
        renames, which leave their old edges in the journal, make this
        read the forward index instead.
        """
        if len(self._journal) == self.edge_count():
            return self._journal
        return [
            (source, lab, target)
            for lab, by_source in self._fwd.items()
            for source, targets in by_source.items()
            for target in targets
        ]

    def journal_triples(self) -> list[Triple]:
        """The journal as ``(source, label, target)`` triples — READ ONLY.

        The backend's own list, shared for the lifetime of the graph, as
        :meth:`forward_index` is: no :class:`Edge` is built.
        """
        return self._journal

    def node_count(self) -> int:
        """The number of nodes."""
        return len(self._nodes)

    def edge_count(self) -> int:
        """The number of edges, summed from the per-label counters."""
        return sum(self._label_counts.values())

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
        return frozenset(self._incidence()[1].get(node, ()))

    def edges_to(self, node: Node) -> frozenset[Edge]:
        """Every edge whose target is ``node`` (any label)."""
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

    # -- journal / fingerprint --------------------------------------------- #

    @property
    def version(self) -> int:
        """A counter that increases with every edge insertion."""
        return len(self._journal)

    def edges_since(self, version: int) -> list[Edge]:
        """The edges inserted after ``version`` was read, in order."""
        return [_edge(*entry) for entry in self._journal[version:]]

    def journal(self) -> tuple[Edge, ...]:
        """The full append-only insertion log as a tuple."""
        return tuple(_edge(*entry) for entry in self._journal)

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


class FrozenDictBackend(DictBackend):
    """A read-only :class:`DictBackend`: every mutation hook raises.

    Built by :meth:`DictBackend.copy_as` (``freeze()``) or
    :meth:`DictBackend.from_edges` (a snapshot load); reads are the
    inherited dict-index reads.  The refusal lives in these overrides
    rather than in a flag the base class checks, so the chase's
    ``add_edge`` and ``from_edges`` hot paths pay nothing for it.
    """

    mutable = False

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
