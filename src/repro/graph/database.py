"""Directed edge-labeled graph databases.

An instance over a target schema (finite alphabet) Σ is a directed,
edge-labeled graph ``G = (V, E)`` with ``V`` a finite set of node ids and
``E ⊆ V × Σ × V`` (paper, Section 2).  Nodes are arbitrary hashable values;
labels are strings.

:class:`GraphDatabase` is the *logical* graph — the single data model every
chase, query engine, and serialisation layer speaks.  The *physical*
representation lives behind the pluggable storage backends of
:mod:`repro.graph.backends`:

* the default :class:`~repro.graph.backends.DictBackend` keeps per-label
  hash adjacency in both directions, any-label incident-edge indexes
  (``edges_from`` / ``edges_to`` / ``incident_edges``) so the chase engine
  can find every edge touching a node in O(degree), and an append-only
  *edge journal* (``version`` / ``edges_since``) that makes semi-naive
  (delta) chase iteration possible;
* :meth:`GraphDatabase.freeze` compiles the graph into the read-optimized
  :class:`~repro.graph.backends.CsrBackend` — nodes and labels interned to
  dense integer ids, per-label adjacency as sorted CSR arrays — whose
  dict-shaped adjacency views the product-automaton search reads like any
  other graph's.  Frozen graphs refuse mutation (:class:`~repro.errors.FrozenGraphError`)
  and round-trip through the version-stamped snapshot files of
  :mod:`repro.graph.snapshot`; :meth:`GraphDatabase.thaw` goes back to a
  mutable dict-backed copy with the journal (hence the content
  fingerprint) preserved.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator

from repro.graph.backends import (
    CsrBackend,
    DictBackend,
    Edge,
    Fingerprint,
    StorageBackend,
)

Node = Hashable
LabelName = str

__all__ = [
    "Edge",
    "Fingerprint",
    "GraphDatabase",
    "LabelName",
    "Node",
]


class GraphDatabase:
    """A finite directed edge-labeled graph with fast per-label adjacency.

    ``alphabet`` optionally fixes the target schema Σ; when provided, adding
    an edge with a label outside Σ raises :class:`~repro.errors.SchemaError`.
    When omitted, the alphabet is open and grows with the edges.

    >>> g = GraphDatabase(alphabet={"f", "h"})
    >>> g.add_edge("c1", "f", "c2")
    >>> g.has_edge("c1", "f", "c2")
    True
    >>> sorted(g.successors("c1", "f"))
    ['c2']

    Storage is pluggable (see :mod:`repro.graph.backends`): every graph
    starts on the mutation-friendly dict backend; :meth:`freeze` compiles
    it into the read-optimized interned-CSR backend for query-heavy use:

    >>> frozen = g.freeze()
    >>> frozen.backend_name, frozen.is_frozen
    ('csr', True)
    >>> sorted(frozen.successors("c1", "f")) == sorted(g.successors("c1", "f"))
    True
    """

    __slots__ = ("_backend",)

    def __init__(
        self,
        alphabet: Iterable[LabelName] | None = None,
        nodes: Iterable[Node] = (),
        edges: Iterable[tuple[Node, LabelName, Node]] = (),
    ):
        self._backend: StorageBackend = DictBackend.from_edges(alphabet, edges)
        for node in nodes:
            self._backend.add_node(node)

    # ------------------------------------------------------------------ #
    # Storage backend surface
    # ------------------------------------------------------------------ #

    @classmethod
    def _from_backend(cls, backend: StorageBackend) -> "GraphDatabase":
        """Wrap an already-populated storage backend (internal)."""
        graph = cls.__new__(cls)
        graph._backend = backend
        return graph

    @property
    def backend(self) -> StorageBackend:
        """The live storage backend behind this graph (read its ``name``)."""
        return self._backend

    @property
    def backend_name(self) -> str:
        """The storage backend identifier: ``"dict"`` or ``"csr"``.

        >>> GraphDatabase().backend_name
        'dict'
        """
        return self._backend.name

    @property
    def is_frozen(self) -> bool:
        """Whether this graph is on a read-only (CSR) backend.

        >>> g = GraphDatabase(edges=[("u", "a", "v")])
        >>> g.is_frozen, g.freeze().is_frozen
        (False, True)
        """
        return not self._backend.mutable

    @property
    def csr(self) -> CsrBackend | None:
        """The CSR backend when frozen, else ``None``.

        :mod:`repro.graph.snapshot` reads the frozen buffers through it.
        """
        backend = self._backend
        return backend if isinstance(backend, CsrBackend) else None

    def freeze(self) -> "GraphDatabase":
        """Return a read-optimized (interned CSR) view of this graph.

        The frozen graph has identical content, journal, and fingerprint,
        so query-engine caches keyed on :meth:`fingerprint` treat the two
        interchangeably — compile the chased result once, query it many
        times.  Freezing a frozen graph returns it unchanged.

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
        return GraphDatabase._from_backend(CsrBackend.from_backend(self._backend))

    def thaw(self) -> "GraphDatabase":
        """Return a mutable dict-backed copy of this graph.

        For non-destructive sources the edge journal is replayed in order,
        so the thawed copy carries the same fingerprint as the frozen one
        (``freeze``/``thaw`` round-trips are content- *and* cache-exact).
        Graphs that had destructively mutated before freezing rebuild from
        the edge set and stay fingerprint-less.  Thawing a mutable graph
        returns an independent copy.

        >>> g = GraphDatabase(edges=[("u", "a", "v")])
        >>> thawed = g.freeze().thaw()
        >>> thawed.is_frozen
        False
        >>> thawed.fingerprint() == g.fingerprint()
        True
        """
        source = self._backend
        replay = (
            sorted(source.edges(), key=repr) if source.destructive else source.journal()
        )
        backend = DictBackend.from_edges(
            source.declared_alphabet(),
            ((edge.source, edge.label, edge.target) for edge in replay),
            destructive=source.destructive,
        )
        for node in source.nodes():
            backend.add_node(node)
        return GraphDatabase._from_backend(backend)

    # ------------------------------------------------------------------ #
    # Schema
    # ------------------------------------------------------------------ #

    @property
    def alphabet(self) -> frozenset[LabelName]:
        """The declared alphabet, or the set of labels in use if undeclared."""
        declared = self._backend.declared_alphabet()
        if declared is not None:
            return declared
        return self._backend.labels()

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #

    def add_node(self, node: Node) -> None:
        """Add an isolated node (idempotent).

        Raises :class:`~repro.errors.FrozenGraphError` on a frozen graph.
        """
        self._backend.add_node(node)

    def add_edge(self, source: Node, lab: LabelName, target: Node) -> None:
        """Add the edge ``(source, lab, target)``; endpoints are auto-added.

        Raises :class:`~repro.errors.FrozenGraphError` on a frozen graph.
        """
        self._backend.add_edge(source, lab, target)

    def remove_edge(self, source: Node, lab: LabelName, target: Node) -> None:
        """Remove an edge if present; endpoints stay in the node set.

        Raises :class:`~repro.errors.FrozenGraphError` on a frozen graph.
        """
        self._backend.remove_edge(source, lab, target)

    def rename_node(self, old: Node, new: Node) -> frozenset[Edge]:
        """Rename ``old`` to ``new`` in place, rewriting incident edges.

        Returns the rewritten edges (as they read *after* the rename) so
        that callers can re-match triggers against exactly the part of the
        graph that changed.  Unlike the copy-based approach this is
        O(degree(old)), not O(|E|).  Renaming a node onto itself or an
        unknown node is a no-op.  Raises
        :class:`~repro.errors.FrozenGraphError` on a frozen graph.

        >>> g = GraphDatabase(edges=[("u", "a", "x"), ("w", "b", "x")])
        >>> sorted(str(e) for e in g.rename_node("x", "y"))
        ['(u -a-> y)', '(w -b-> y)']
        >>> g.has_edge("u", "a", "x")
        False
        """
        return self._backend.rename_node(old, new)

    def discard_node(self, node: Node) -> None:
        """Remove an *isolated* node from the node set (absent: no-op).

        Raises :class:`~repro.errors.SchemaError` while ``node`` still has
        incident edges and :class:`~repro.errors.FrozenGraphError` on a
        frozen graph.  Like :meth:`remove_edge` this is a destructive
        mutation: the graph stops being fingerprintable.  The incremental
        chase uses it to drop merged nodes whose last supporting base edge
        was retracted.

        >>> g = GraphDatabase(nodes=["u"], edges=[("v", "a", "w")])
        >>> g.discard_node("u")
        >>> sorted(g.nodes())
        ['v', 'w']
        """
        self._backend.discard_node(node)

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #

    def has_edge(self, source: Node, lab: LabelName, target: Node) -> bool:
        """Return whether the edge ``(source, lab, target)`` is present."""
        return self._backend.has_edge(source, lab, target)

    def nodes(self) -> frozenset[Node]:
        """Return the node set."""
        return self._backend.nodes()

    def edges(self) -> frozenset[Edge]:
        """Return the edge set."""
        return self._backend.edges()

    def successors(self, node: Node, lab: LabelName) -> frozenset[Node]:
        """Return ``{v | (node, lab, v) ∈ E}``."""
        return self._backend.successors(node, lab)

    def predecessors(self, node: Node, lab: LabelName) -> frozenset[Node]:
        """Return ``{u | (u, lab, node) ∈ E}``."""
        return self._backend.predecessors(node, lab)

    def edges_with_label(self, lab: LabelName) -> frozenset[tuple[Node, Node]]:
        """Return all ``(u, v)`` pairs with an edge labeled ``lab``."""
        return frozenset(self._backend.iter_label_pairs(lab))

    def forward_index(self, lab: LabelName) -> dict[Node, set[Node]]:
        """Return the live forward adjacency index for ``lab`` — READ ONLY.

        Unlike :meth:`successors` this copies nothing: the returned mapping
        is the backend's own index (``node → set of successors``), shared
        for the lifetime of the graph.  Callers must not mutate it and must
        not hold it across edge insertions or removals.  On a frozen graph
        the view is materialised lazily from the CSR buffers, once per
        label, and the product-automaton search reads it like any other.

        >>> g = GraphDatabase(edges=[("u", "a", "v")])
        >>> g.forward_index("a")["u"]
        {'v'}
        >>> g.forward_index("zz")
        {}
        """
        return self._backend.forward_index(lab)

    def backward_index(self, lab: LabelName) -> dict[Node, set[Node]]:
        """Return the live backward adjacency index for ``lab`` — READ ONLY.

        The mirror of :meth:`forward_index` (``node → set of predecessors``);
        the same sharing caveats apply.

        >>> g = GraphDatabase(edges=[("u", "a", "v")])
        >>> g.backward_index("a")["v"]
        {'u'}
        """
        return self._backend.backward_index(lab)

    def iter_label_pairs(self, lab: LabelName) -> Iterator[tuple[Node, Node]]:
        """Iterate the ``(u, v)`` pairs labeled ``lab`` without copying.

        Reads the live adjacency index: do not add or remove ``lab``
        edges while consuming it (use :meth:`edges_with_label` for a
        snapshot).

        >>> g = GraphDatabase(edges=[("u", "a", "v")])
        >>> list(g.iter_label_pairs("a"))
        [('u', 'v')]
        """
        return self._backend.iter_label_pairs(lab)

    def has_successor(self, node: Node, lab: LabelName) -> bool:
        """Return whether ``node`` has any outgoing ``lab`` edge (no copying).

        >>> g = GraphDatabase(edges=[("u", "a", "v")])
        >>> g.has_successor("u", "a"), g.has_successor("v", "a")
        (True, False)
        """
        return self._backend.has_successor(node, lab)

    def has_predecessor(self, node: Node, lab: LabelName) -> bool:
        """Return whether ``node`` has any incoming ``lab`` edge (no copying).

        >>> g = GraphDatabase(edges=[("u", "a", "v")])
        >>> g.has_predecessor("v", "a"), g.has_predecessor("u", "a")
        (True, False)
        """
        return self._backend.has_predecessor(node, lab)

    def label_count(self, lab: LabelName) -> int:
        """Return the number of edges labeled ``lab``, from an O(1) counter.

        >>> g = GraphDatabase(edges=[("u", "a", "v"), ("v", "a", "w")])
        >>> g.label_count("a"), g.label_count("b")
        (2, 0)
        """
        return self._backend.label_count(lab)

    def edges_from(self, node: Node) -> frozenset[Edge]:
        """Return every edge whose source is ``node`` (any label).

        >>> g = GraphDatabase(edges=[("u", "a", "v"), ("w", "b", "u")])
        >>> [str(e) for e in g.edges_from("u")]
        ['(u -a-> v)']
        """
        return self._backend.edges_from(node)

    def edges_to(self, node: Node) -> frozenset[Edge]:
        """Return every edge whose target is ``node`` (any label).

        >>> g = GraphDatabase(edges=[("u", "a", "v"), ("w", "b", "u")])
        >>> [str(e) for e in g.edges_to("u")]
        ['(w -b-> u)']
        """
        return self._backend.edges_to(node)

    def incident_edges(self, node: Node) -> frozenset[Edge]:
        """Return every edge touching ``node`` as source or target.

        >>> g = GraphDatabase(edges=[("u", "a", "v"), ("w", "b", "u")])
        >>> len(g.incident_edges("u"))
        2
        """
        return self._backend.edges_from(node) | self._backend.edges_to(node)

    # ------------------------------------------------------------------ #
    # Journal / fingerprint
    # ------------------------------------------------------------------ #

    @property
    def version(self) -> int:
        """A counter that increases with every edge insertion.

        ``edges_since(version)`` later returns exactly the edges inserted
        after the version was read — the delta the semi-naive chase rounds
        re-match against.

        >>> g = GraphDatabase()
        >>> v = g.version
        >>> g.add_edge("u", "a", "v")
        >>> g.version == v + 1
        True
        """
        return self._backend.version

    def edges_since(self, version: int) -> list[Edge]:
        """Return the edges inserted after ``version`` was read, in order.

        Entries removed again via :meth:`remove_edge` are *not* expunged
        from the journal; consumers that only use the result to seed
        trigger matching are unaffected (a stale seed matches nothing).

        >>> g = GraphDatabase(edges=[("u", "a", "v")])
        >>> v = g.version
        >>> g.add_edge("v", "a", "w")
        >>> [str(e) for e in g.edges_since(v)]
        ['(v -a-> w)']
        """
        return self._backend.edges_since(version)

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
        without cross-graph caching.  Fingerprints are backend-independent:
        a graph and its :meth:`freeze` image carry equal tokens.

        >>> g = GraphDatabase(edges=[("u", "a", "v")])
        >>> g.fingerprint() == GraphDatabase(edges=[("u", "a", "v")]).fingerprint()
        True
        >>> g.remove_edge("u", "a", "v")
        >>> g.fingerprint() is None
        True
        """
        return self._backend.fingerprint()

    # ------------------------------------------------------------------ #
    # Counting / copies
    # ------------------------------------------------------------------ #

    def node_count(self) -> int:
        """Return the number of nodes."""
        return self._backend.node_count()

    def edge_count(self) -> int:
        """Return the number of edges."""
        return self._backend.edge_count()

    def copy(self) -> "GraphDatabase":
        """Return an independent *mutable* copy (same alphabet declaration).

        Copies are always dict-backed, whatever the source backend — the
        point of copying is to mutate the result.  Dict-backed sources
        take the backend's structural :meth:`~DictBackend.clone` (index
        surgery, shared edge objects) instead of edge-by-edge replay.
        """
        if isinstance(self._backend, DictBackend):
            return GraphDatabase._from_backend(self._backend.clone())
        clone = GraphDatabase(alphabet=self._backend.declared_alphabet())
        for node in self._backend.nodes():
            clone.add_node(node)
        for edge in self._backend.edges():
            clone.add_edge(edge.source, edge.label, edge.target)
        return clone

    def extended(
        self, edges: Iterable[tuple[Node, LabelName, Node]]
    ) -> "GraphDatabase":
        """Return a copy with ``edges`` added (the original is untouched)."""
        clone = self.copy()
        for source, lab, target in edges:
            clone.add_edge(source, lab, target)
        return clone

    def with_alphabet(self, alphabet: Iterable[LabelName]) -> "GraphDatabase":
        """Return a copy whose declared alphabet is ``alphabet``.

        Useful when a graph built over Σ must be re-read over Σ ∪ {sameAs}.
        """
        if isinstance(self._backend, DictBackend):
            return GraphDatabase._from_backend(
                self._backend.clone(alphabet=frozenset(alphabet))
            )
        clone = GraphDatabase(alphabet=alphabet)
        for node in self._backend.nodes():
            clone.add_node(node)
        for edge in self._backend.edges():
            clone.add_edge(edge.source, edge.label, edge.target)
        return clone

    # ------------------------------------------------------------------ #
    # Dunder protocol
    # ------------------------------------------------------------------ #

    def __contains__(self, node: object) -> bool:
        return self._backend.has_node(node)

    def __iter__(self) -> Iterator[Edge]:
        return iter(sorted(self._backend.edges(), key=repr))

    def __len__(self) -> int:
        return self._backend.edge_count()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GraphDatabase):
            return NotImplemented
        # Content equality is backend-independent: a graph equals its
        # frozen image.
        return (
            self._backend.nodes() == other._backend.nodes()
            and self._backend.edges() == other._backend.edges()
        )

    __hash__ = None  # type: ignore[assignment] - mutable container semantics

    def __repr__(self) -> str:
        return (
            f"GraphDatabase(|V|={self.node_count()}, |E|={self.edge_count()}, "
            f"Σ={sorted(map(str, self.alphabet))})"
        )

    def is_isomorphic_to(self, other: "GraphDatabase") -> bool:
        """Decide label-preserving graph isomorphism by backtracking.

        Exponential in the worst case; intended for the small graphs of the
        paper's figures (≤ ~10 nodes), where it is instantaneous.
        """
        if self.node_count() != other.node_count() or self.edge_count() != other.edge_count():
            return False

        def signature(g: GraphDatabase, node: Node) -> tuple:
            out = tuple(sorted((e.label) for e in g.edges() if e.source == node))
            inc = tuple(sorted((e.label) for e in g.edges() if e.target == node))
            return (out, inc)

        mine = sorted(self.nodes(), key=repr)
        sig_self = {n: signature(self, n) for n in mine}
        sig_other: dict[Node, tuple] = {n: signature(other, n) for n in other.nodes()}

        def backtrack(index: int, mapping: dict[Node, Node], used: set[Node]) -> bool:
            if index == len(mine):
                return True
            node = mine[index]
            for candidate in other.nodes():
                if candidate in used or sig_other[candidate] != sig_self[node]:
                    continue
                mapping[node] = candidate
                used.add(candidate)
                if _edges_consistent(self, other, mapping) and backtrack(
                    index + 1, mapping, used
                ):
                    return True
                del mapping[node]
                used.remove(candidate)
            return False

        return backtrack(0, {}, set())


def _edges_consistent(
    g1: GraphDatabase, g2: GraphDatabase, mapping: dict[Node, Node]
) -> bool:
    """Check that the partial ``mapping`` preserves edges in both directions."""
    for edge in g1.edges():
        if edge.source in mapping and edge.target in mapping:
            if not g2.has_edge(mapping[edge.source], edge.label, mapping[edge.target]):
                return False
    inverse = {v: k for k, v in mapping.items()}
    for edge in g2.edges():
        if edge.source in inverse and edge.target in inverse:
            if not g1.has_edge(inverse[edge.source], edge.label, inverse[edge.target]):
                return False
    return True
