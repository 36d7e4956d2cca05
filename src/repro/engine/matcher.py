"""Trigger matching over graph databases.

Every chase variant repeats one operation: find the homomorphisms of a
dependency body into the current target graph (the *triggers*).
:class:`TriggerMatcher` is the graph-side entry point to the join
executor (:mod:`repro.join`):

* bound positions are answered from the graph's hash indexes
  (``forward_index`` / ``backward_index`` / ``has_edge``) instead of
  filtering a materialised pair set — *index hits*, counted into
  :class:`~repro.chase.result.ChaseStats`;
* **semi-naive (delta) iteration**: :meth:`TriggerMatcher.delta_matches`
  enumerates only the homomorphisms that use at least one edge added
  since a recorded graph version — exactly the part of the trigger space
  a chase round can have changed.

Composite NREs (stars, unions, nesting) join through their relation from a
query engine (the shared :class:`~repro.engine.query.QueryEngine` unless
the matcher was handed a specific one).  A body with an atom that needs a
label the graph has no edge of
(:meth:`~repro.graph.cnre.CNREQuery.required_labels`) has no match: every
enumeration returns nothing at once, before it builds an access, compiles
a plan or asks the engine for a relation.  Delta enumeration pins *simple*
atoms only — a bare forward or backward label, which covers every
dependency body of the paper's figures and benchmarks — and falls back to
full enumeration for composite queries, a sound superset.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable, Iterable, Iterator, Mapping

from repro.graph.cnre import CNREQuery, graph_atoms
from repro.graph.database import Edge, GraphDatabase
from repro.join import Body, Plan
from repro.relational.query import Variable

if TYPE_CHECKING:  # import only for annotations: chase.result imports graph
    from repro.chase.result import ChaseStats

Node = Hashable
Assignment = dict[Variable, Node]


def is_simple_query(query: CNREQuery) -> bool:
    """Return whether every atom of ``query`` is a bare (backward) label.

    Simple queries are eligible for delta enumeration; all others are
    re-enumerated in full.

    >>> from repro.graph.cnre import CNREAtom
    >>> from repro.graph.parser import parse_nre
    >>> x, y = Variable("x"), Variable("y")
    >>> is_simple_query(CNREQuery([CNREAtom(x, parse_nre("h"), y)]))
    True
    >>> is_simple_query(CNREQuery([CNREAtom(x, parse_nre("a . b*"), y)]))
    False
    """
    return all(atom.edge_view() is not None for atom in query.atoms)


class TriggerMatcher:
    """The join executor on one graph, for the chase engines.

    Construct one per (mutable) graph; the matcher compiles every call
    afresh, so every call sees the graph's current state.  An optional
    :class:`~repro.chase.result.ChaseStats` accumulates ``index_hits``.

    >>> from repro.graph.cnre import CNREAtom
    >>> from repro.graph.nre import Label
    >>> g = GraphDatabase(edges=[("c1", "h", "hx"), ("c2", "h", "hx")])
    >>> x1, x2, x3 = Variable("x1"), Variable("x2"), Variable("x3")
    >>> body = CNREQuery([
    ...     CNREAtom(x1, Label("h"), x3), CNREAtom(x2, Label("h"), x3)])
    >>> matcher = TriggerMatcher(g)
    >>> sorted((h[x1], h[x2]) for h in matcher.matches(body))
    [('c1', 'c1'), ('c1', 'c2'), ('c2', 'c1'), ('c2', 'c2')]
    """

    def __init__(
        self,
        graph: GraphDatabase,
        stats: "ChaseStats | None" = None,
        engine=None,
    ):
        self.graph = graph
        self.stats = stats
        self.engine = engine  # query engine for composite-NRE relations

    def _body(self, query: CNREQuery) -> Body:
        atoms = graph_atoms(query.atoms, self.graph, self.engine)
        return Body(atoms, query.variables())

    def _lacks_label(self, query: CNREQuery) -> bool:
        """Whether some atom of ``query`` needs a label with no edge."""
        count = self.graph.label_count
        return any(not count(name) for name in query.required_labels())

    # ------------------------------------------------------------------ #
    # Full enumeration
    # ------------------------------------------------------------------ #

    def matches(
        self,
        query: CNREQuery,
        seed: Mapping[Variable, Node] | None = None,
    ) -> Iterator[Assignment]:
        """Yield every homomorphism of ``query`` into the graph.

        ``seed`` pre-binds variables (dependency bodies seeding head
        checks); its bindings are part of every yielded dictionary.

        >>> from repro.graph.cnre import CNREAtom
        >>> from repro.graph.nre import Label
        >>> g = GraphDatabase(edges=[("u", "a", "v")])
        >>> x, y = Variable("x"), Variable("y")
        >>> q = CNREQuery([CNREAtom(x, Label("a"), y)])
        >>> [h[y] for h in TriggerMatcher(g).matches(q, seed={x: "u"})]
        ['v']
        """
        if not self._lacks_label(query):
            yield from self._body(query).matches(seed, self.stats)

    def join_plan(self, query: CNREQuery, bound: Iterable[Variable]) -> Plan:
        """The compiled search :meth:`matches` runs for seeds binding ``bound``.

        The greedy order depends only on which variables the seed binds
        and on the graph's label counts, so a caller probing many seeds
        over the same variables (an s-t tgd head checked once per body
        match) compiles it once and probes it through
        :meth:`~repro.join.Plan.exists` with the values of ``bound`` in
        order.  The graph must not change while the plan is in use.
        """
        body = self._body(query)
        return body.plan([body.index[var] for var in bound])

    # ------------------------------------------------------------------ #
    # Delta enumeration (semi-naive iteration)
    # ------------------------------------------------------------------ #

    def delta_matches(self, query: CNREQuery, since: int) -> Iterator[Assignment]:
        """Yield the homomorphisms using at least one edge added after ``since``.

        ``since`` is a graph :attr:`~repro.graph.database.GraphDatabase.version`
        read earlier.  For simple queries the result is *exactly* the set of
        homomorphisms that did not exist at that version (each simple atom's
        edge is determined by the assignment, so a match through a new edge
        cannot have existed before).  Composite queries fall back to full
        enumeration, which is a sound superset.

        >>> from repro.graph.cnre import CNREAtom
        >>> from repro.graph.nre import Label
        >>> g = GraphDatabase(edges=[("u", "a", "v")])
        >>> v0 = g.version
        >>> g.add_edge("v", "a", "w")
        >>> x, y = Variable("x"), Variable("y")
        >>> q = CNREQuery([CNREAtom(x, Label("a"), y)])
        >>> [(h[x], h[y]) for h in TriggerMatcher(g).delta_matches(q, v0)]
        [('v', 'w')]
        """
        if not is_simple_query(query):
            yield from self.matches(query)
            return
        variables = query.variables()
        for row in self._seeded_rows(query, self.graph.edges_since(since)):
            yield dict(zip(variables, row))

    # ------------------------------------------------------------------ #
    # Pair projections (egd violation maintenance)
    # ------------------------------------------------------------------ #

    def pair_matches(
        self, query: CNREQuery, left: Variable, right: Variable
    ) -> set[tuple[Node, Node]]:
        """Return ``{(hom[left], hom[right]) | hom ⊨ query}`` as a set.

        The egd violation queue orders violations through a heap, so it
        only needs the *projected pair set* of a body — never the
        homomorphisms themselves or their enumeration order — and the
        search projects each match in place.
        """
        if self._lacks_label(query):
            return set()
        body = self._body(query)
        project = (body.index[left], body.index[right])
        return set(body.rows(project=project, stats=self.stats))

    def pair_matches_seeded(
        self,
        query: CNREQuery,
        left: Variable,
        right: Variable,
        edges: Iterable[Edge],
    ) -> set[tuple[Node, Node]]:
        """The ``(left, right)`` pairs of every homomorphism routed through
        one of ``edges``.

        Same contract as :meth:`pair_matches` (a set, no order), for the
        delta cases — the violation queue's journal rescan and its
        post-merge re-match, whose edge seeds are small.  Composite
        queries fall back to the full :meth:`pair_matches`.
        """
        if not is_simple_query(query):
            return self.pair_matches(query, left, right)
        variables = query.variables()
        i, j = variables.index(left), variables.index(right)
        return {(row[i], row[j]) for row in self._seeded_rows(query, edges)}

    def _seeded_rows(self, query: CNREQuery, edges: Iterable[Edge]) -> Iterator[tuple]:
        """Rows of the matches with some atom on one of ``edges`` (delta mode)."""
        has_edge = self.graph.has_edge
        by_label: dict[str, list[tuple[Node, Node]]] = {}
        for e in edges:
            if has_edge(e.source, e.label, e.target):
                by_label.setdefault(e.label, []).append((e.source, e.target))
        if not by_label or self._lacks_label(query):
            return iter(())
        body = self._body(query)
        return body.delta_rows(
            lambda i: by_label.get(body.atoms[i][0].label), self.stats
        )
