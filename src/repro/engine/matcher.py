"""Indexed trigger matching over graph databases.

Every chase variant repeats one operation: find the homomorphisms of a
dependency body into the current target graph (the *triggers*).  The seed
implementation re-evaluated each body NRE into an explicit pair set and
scanned it per backtracking step — correct, but it re-scans the whole
graph on every fixpoint round.  :class:`TriggerMatcher` replaces those
nested-loop scans with one shared core that

* answers bound positions from the graph's hash indexes
  (``successors`` / ``predecessors`` / ``has_edge``) instead of filtering a
  materialised pair set — *index hits*, counted into
  :class:`~repro.chase.result.ChaseStats`;
* supports **semi-naive (delta) iteration**: :meth:`TriggerMatcher.delta_matches`
  enumerates only the homomorphisms that use at least one edge added since a
  recorded graph version, and :meth:`TriggerMatcher.matches_touching` only
  those through a given node — which is exactly the part of the trigger
  space a chase round or a merge step can have changed.

The fast paths apply to *simple* queries — every atom a bare forward or
backward label, which covers all dependency bodies of the paper's figures
and benchmarks.  Composite NREs (stars, unions, nesting) fall back to the
CNRE evaluator :func:`repro.graph.cnre.cnre_homomorphisms`, whose per-NRE
relations come from a query engine (the shared compiled
:class:`~repro.engine.query.QueryEngine` unless the matcher was handed a
specific one), so the matcher is always sound and complete, never just fast.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable, Iterable, Iterator, Mapping, Sequence

from repro.graph.cnre import CNREAtom, CNREQuery, cnre_homomorphisms
from repro.graph.database import Edge, GraphDatabase
from repro.graph.nre import Backward, Label
from repro.relational.query import Variable, is_variable

if TYPE_CHECKING:  # import only for annotations: chase.result imports graph
    from repro.chase.result import ChaseStats

Node = Hashable
Assignment = dict[Variable, Node]

_UNSET = object()


def is_simple_query(query: CNREQuery) -> bool:
    """Return whether every atom of ``query`` is a bare (backward) label.

    Simple queries are eligible for the indexed and delta fast paths; all
    others take the reference CNRE evaluator.

    >>> from repro.graph.parser import parse_nre
    >>> x, y = Variable("x"), Variable("y")
    >>> is_simple_query(CNREQuery([CNREAtom(x, parse_nre("h"), y)]))
    True
    >>> is_simple_query(CNREQuery([CNREAtom(x, parse_nre("a . b*"), y)]))
    False
    """
    return all(isinstance(atom.nre, (Label, Backward)) for atom in query.atoms)


def _edge_view(atom: CNREAtom) -> tuple[object, str, object]:
    """Return ``(source_term, label, target_term)`` in *edge orientation*.

    A backward atom ``(x, a⁻, y)`` matches the edge ``(h(y), a, h(x))``, so
    its terms swap sides.
    """
    if isinstance(atom.nre, Label):
        return atom.subject, atom.nre.name, atom.object
    if isinstance(atom.nre, Backward):
        return atom.object, atom.nre.name, atom.subject
    raise TypeError(f"not a simple atom: {atom}")


class TriggerMatcher:
    """Shared indexed trigger-matching core for the chase engines.

    Construct one per (mutable) graph; the matcher holds no copies, so
    every call sees the graph's current state.  An optional
    :class:`~repro.chase.result.ChaseStats` accumulates ``index_hits``.

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
        self.engine = engine  # query engine for composite-NRE fallbacks

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
        checks).  Simple queries run on the indexed join; composite ones
        delegate to the reference evaluator.

        >>> g = GraphDatabase(edges=[("u", "a", "v")])
        >>> x, y = Variable("x"), Variable("y")
        >>> q = CNREQuery([CNREAtom(x, Label("a"), y)])
        >>> [h[y] for h in TriggerMatcher(g).matches(q, seed={x: "u"})]
        ['v']
        """
        if not is_simple_query(query):
            yield from cnre_homomorphisms(
                query, self.graph, seed=seed, engine=self.engine
            )
            return
        initial: Assignment = dict(seed) if seed else {}
        yield from self._join(list(query.atoms), initial)

    def join_plan(
        self, query: CNREQuery, bound: Iterable[Variable]
    ) -> list[CNREAtom]:
        """The join order :meth:`matches` picks for seeds binding ``bound``.

        The greedy order depends only on which variables the seed binds
        and on the graph's label counts, so a caller probing many seeds
        over the same variables (an s-t tgd head checked once per body
        match) computes it once and passes it to :meth:`has_match`.
        Simple queries only.
        """
        return self._order(list(query.atoms), set(bound))

    def has_match(
        self, plan: Sequence[CNREAtom], seed: Mapping[Variable, Node]
    ) -> bool:
        """Whether some homomorphism extends ``seed`` along ``plan``.

        ``plan`` comes from :meth:`join_plan` for the seed's variables;
        the verdict equals ``any(self.matches(query, seed))``.
        """
        for _ in self._run_join(plan, dict(seed)):
            return True
        return False

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
        yield from self._seeded_by_edges(query, self.graph.edges_since(since))

    def matches_touching(self, query: CNREQuery, node: Node) -> Iterator[Assignment]:
        """Yield the homomorphisms using at least one edge incident to ``node``.

        After a merge step renames a node, every *newly created* trigger
        must route through one of the merged node's rewritten edges — so
        this is the complete re-match set for an egd engine.  Composite
        queries fall back to full enumeration.

        >>> g = GraphDatabase(edges=[("c1", "h", "hx"), ("c2", "h", "hy")])
        >>> x1, x2, x3 = Variable("x1"), Variable("x2"), Variable("x3")
        >>> body = CNREQuery([
        ...     CNREAtom(x1, Label("h"), x3), CNREAtom(x2, Label("h"), x3)])
        >>> homs = TriggerMatcher(g).matches_touching(body, "hy")
        >>> sorted((h[x1], h[x3]) for h in homs)
        [('c2', 'hy')]
        """
        if not is_simple_query(query):
            yield from self.matches(query)
            return
        yield from self._seeded_by_edges(query, self.graph.incident_edges(node))

    # ------------------------------------------------------------------ #
    # Pair projections (egd violation maintenance)
    # ------------------------------------------------------------------ #

    def pair_matches(
        self, query: CNREQuery, left: Variable, right: Variable
    ) -> set[tuple[Node, Node]]:
        """Return ``{(hom[left], hom[right]) | hom ⊨ query}`` as a set.

        The egd violation queue orders violations through a heap, so it
        only needs the *projected pair set* of a body — never the
        homomorphisms themselves or their enumeration order.  That
        freedom buys two fast paths over :meth:`matches`:

        * two-atom bodies sharing one variable (the paper's
          functionality egds) run a hash join straight over the per-label
          index buckets;
        * every other simple body runs the backtracking join with the
          projection applied in place (no per-hom dict copies) and
          dedupes directly on the pair.
        """
        if not is_simple_query(query):
            return {(hom[left], hom[right]) for hom in self.matches(query)}
        atoms = list(query.atoms)
        if len(atoms) == 2:
            pairs = self._pair_join_two(atoms, left, right)
            if pairs is not None:
                return pairs
        out: set[tuple[Node, Node]] = set()
        self._project_join(self._order(atoms, set()), {}, left, right, out)
        return out

    def pair_matches_seeded(
        self,
        query: CNREQuery,
        left: Variable,
        right: Variable,
        edges: Iterable[Edge],
    ) -> set[tuple[Node, Node]]:
        """Projected :meth:`_seeded_by_edges`: the ``(left, right)`` pairs
        of every homomorphism routed through one of ``edges``.

        Same contract as :meth:`pair_matches` (a set, no order), for the
        delta cases — the violation queue's journal rescan and its
        post-merge re-match, whose edge seeds are small.  Composite
        queries fall back to full enumeration, matching
        :meth:`matches_touching`.
        """
        out: set[tuple[Node, Node]] = set()
        if not is_simple_query(query):
            for hom in self.matches(query):
                out.add((hom[left], hom[right]))
            return out
        graph = self.graph
        edge_list = [
            e for e in edges if graph.has_edge(e.source, e.label, e.target)
        ]
        if not edge_list:
            return out
        atoms = list(query.atoms)
        if len(atoms) == 2:
            pairs = self._pair_join_two_seeded(atoms, left, right, edge_list)
            if pairs is not None:
                return pairs
        for pinned_index, atom in enumerate(atoms):
            source_term, lab, target_term = _edge_view(atom)
            rest = atoms[:pinned_index] + atoms[pinned_index + 1 :]
            ordered_rest = self._order(rest, set(atom.variables()))
            for edge in edge_list:
                if edge.label != lab:
                    continue
                assignment: Assignment = {}
                if not _bind(assignment, source_term, edge.source):
                    continue
                if not _bind(assignment, target_term, edge.target):
                    continue
                self._project_join(ordered_rest, assignment, left, right, out)
        return out

    def _project_join(
        self,
        ordered: Sequence[CNREAtom],
        assignment: Assignment,
        left: Variable,
        right: Variable,
        out: set,
    ) -> None:
        """The backtracking join of :meth:`_run_join`, projected in place.

        Instead of copying the assignment per result, full-depth leaves
        add ``(assignment[left], assignment[right])`` to ``out`` — the
        set absorbs the duplicates distinct homomorphisms project onto.
        """

        def extend(index: int) -> None:
            if index == len(ordered):
                out.add((assignment[left], assignment[right]))
                return
            atom = ordered[index]
            source_term, lab, target_term = _edge_view(atom)
            for u, v in self._candidates(source_term, lab, target_term, assignment):
                added: list[Variable] = []
                if _bind(assignment, source_term, u, added) and _bind(
                    assignment, target_term, v, added
                ):
                    extend(index + 1)
                for var in added:
                    del assignment[var]

        extend(0)

    def _pair_join_two_seeded(
        self,
        atoms: Sequence[CNREAtom],
        left: Variable,
        right: Variable,
        edges: Sequence[Edge],
    ) -> set[tuple[Node, Node]] | None:
        """Seeded counterpart of :meth:`_pair_join_two`.

        Covers the same two-atom one-shared-variable shape (any
        orientation, ``{left, right}`` the two free variables).  A
        homomorphism routed through a seed edge pins that edge onto one
        of the atoms; the other atom's matches are then exactly one
        adjacency bucket of the join value — so each (seed, atom)
        combination costs one index probe plus a bulk pair expansion,
        never a backtracking join.  This is the egd engine's per-merge
        re-match running at O(degree) per rewritten edge.  Returns
        ``None`` for uncovered shapes (caller falls back to the pinned
        backtracking join).
        """
        views = (_edge_view(atoms[0]), _edge_view(atoms[1]))
        terms0 = (views[0][0], views[0][2])
        terms1 = (views[1][0], views[1][2])
        if not all(is_variable(t) for t in terms0 + terms1):
            return None
        if terms0[0] == terms0[1] or terms1[0] == terms1[1]:
            return None
        vars0, vars1 = set(terms0), set(terms1)
        shared = vars0 & vars1
        if len(shared) != 1:
            return None
        join_var = next(iter(shared))
        free0 = (vars0 - shared).pop()
        free1 = (vars1 - shared).pop()
        if (left, right) == (free0, free1):
            swap = False
        elif (left, right) == (free1, free0):
            swap = True
        else:
            return None
        graph = self.graph
        if self.stats is not None:
            self.stats.index_hits += 1
        out: set[tuple[Node, Node]] = set()
        for pinned, other in ((0, 1), (1, 0)):
            _, lab, _ = views[pinned]
            join_at_source = join_var == views[pinned][0]
            other_source, other_lab, _ = views[other]
            bucket = (
                graph.forward_index(other_lab)
                if join_var == other_source
                else graph.backward_index(other_lab)
            )
            # ``(pinned, swap)`` decides which side of the output pair the
            # pinned atom's free value lands on.
            pinned_first = (pinned == 0) != swap
            for edge in edges:
                if edge.label != lab:
                    continue
                if join_at_source:
                    join_val, free_val = edge.source, edge.target
                else:
                    join_val, free_val = edge.target, edge.source
                partners = bucket.get(join_val)
                if not partners:
                    continue
                if pinned_first:
                    out.update((free_val, partner) for partner in partners)
                else:
                    out.update((partner, free_val) for partner in partners)
        return out

    def _pair_join_two(
        self, atoms: Sequence[CNREAtom], left: Variable, right: Variable
    ) -> set[tuple[Node, Node]] | None:
        """Hash join for two-atom bodies sharing exactly one variable.

        Handles the shape ``(a, lab0, j), (b, lab1, j)`` in any
        orientation, with ``{left, right} == {a, b}`` — each atom's index
        bucket map (``j → endpoints``) comes straight from the graph's
        per-label hash indexes, so the join never touches individual
        edges.  Returns ``None`` for shapes it does not cover (constants,
        repeated variables, projections involving the join variable);
        the caller falls back to the projected backtracking join.
        """
        view0, view1 = _edge_view(atoms[0]), _edge_view(atoms[1])
        terms0 = (view0[0], view0[2])
        terms1 = (view1[0], view1[2])
        if not all(is_variable(t) for t in terms0 + terms1):
            return None
        if terms0[0] == terms0[1] or terms1[0] == terms1[1]:
            return None
        vars0, vars1 = set(terms0), set(terms1)
        shared = vars0 & vars1
        if len(shared) != 1:
            return None
        join_var = next(iter(shared))
        free0 = (vars0 - shared).pop()
        free1 = (vars1 - shared).pop()
        if (left, right) == (free0, free1):
            swap = False
        elif (left, right) == (free1, free0):
            swap = True
        else:
            return None
        graph = self.graph
        join_at_source0 = join_var == terms0[0]
        join_at_source1 = join_var == terms1[0]
        if self.stats is not None:
            self.stats.index_hits += 1
        # Bucket maps keyed by the join variable: when it sits in edge-
        # source position the forward index (source → targets) already is
        # the multimap; in target position, the backward index.
        index0 = (
            graph.forward_index(view0[1])
            if join_at_source0
            else graph.backward_index(view0[1])
        )
        index1 = (
            graph.forward_index(view1[1])
            if join_at_source1
            else graph.backward_index(view1[1])
        )
        if len(index1) < len(index0):
            index0, index1 = index1, index0
            swap = not swap
        out: set[tuple[Node, Node]] = set()
        for key, lefts in index0.items():
            rights = index1.get(key)
            if rights:
                for a in lefts:
                    for b in rights:
                        out.add((b, a) if swap else (a, b))
        return out

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _seeded_by_edges(
        self, query: CNREQuery, edges: Iterable[Edge]
    ) -> Iterator[Assignment]:
        """Enumerate homomorphisms with some atom pinned to one of ``edges``."""
        edge_list = [e for e in edges if self.graph.has_edge(e.source, e.label, e.target)]
        if not edge_list:
            return
        variables = query.variables()
        seen: set[tuple] = set()
        atoms = list(query.atoms)
        for pinned_index, atom in enumerate(atoms):
            source_term, lab, target_term = _edge_view(atom)
            rest = atoms[:pinned_index] + atoms[pinned_index + 1 :]
            # The join order depends only on which atom is pinned, not on
            # the concrete edge — compute it once per pinned atom.
            ordered_rest = self._order(rest, set(atom.variables()))
            for edge in edge_list:
                if edge.label != lab:
                    continue
                assignment: Assignment = {}
                if not _bind(assignment, source_term, edge.source):
                    continue
                if not _bind(assignment, target_term, edge.target):
                    continue
                for hom in self._run_join(ordered_rest, assignment):
                    key = tuple(hom[v] for v in variables)
                    if key not in seen:
                        seen.add(key)
                        yield hom

    def _join(self, atoms: Sequence[CNREAtom], assignment: Assignment) -> Iterator[Assignment]:
        """Backtracking join over simple atoms, bound positions via indexes."""
        yield from self._run_join(self._order(atoms, set(assignment)), assignment)

    def _run_join(
        self, ordered: Sequence[CNREAtom], assignment: Assignment
    ) -> Iterator[Assignment]:
        """The join proper, over an already-ordered atom sequence."""

        def extend(index: int, current: Assignment) -> Iterator[Assignment]:
            if index == len(ordered):
                yield dict(current)
                return
            atom = ordered[index]
            source_term, lab, target_term = _edge_view(atom)
            for u, v in self._candidates(source_term, lab, target_term, current):
                added: list[Variable] = []
                if _bind(current, source_term, u, added) and _bind(
                    current, target_term, v, added
                ):
                    yield from extend(index + 1, current)
                for var in added:
                    del current[var]

        yield from extend(0, assignment)

    def _order(
        self, atoms: Sequence[CNREAtom], bound: set[Variable]
    ) -> list[CNREAtom]:
        """Greedy join order: most-bound atoms first, then smallest label."""
        remaining = list(atoms)
        ordered: list[CNREAtom] = []
        bound = set(bound)
        while remaining:

            def score(atom: CNREAtom) -> tuple[int, int]:
                unbound = sum(
                    1
                    for term in (atom.subject, atom.object)
                    if is_variable(term) and term not in bound
                )
                return (unbound, self.graph.label_count(_edge_view(atom)[1]))

            best = min(remaining, key=score)
            remaining.remove(best)
            ordered.append(best)
            bound.update(best.variables())
        return ordered

    def _candidates(
        self,
        source_term: object,
        lab: str,
        target_term: object,
        assignment: Assignment,
    ) -> Iterator[tuple[Node, Node]]:
        """Candidate ``(source, target)`` edge endpoints for one atom."""
        graph, stats = self.graph, self.stats
        source = _value(source_term, assignment)
        target = _value(target_term, assignment)
        if source is not _UNSET and target is not _UNSET:
            if stats is not None:
                stats.index_hits += 1
            if graph.has_edge(source, lab, target):
                yield (source, target)
        elif source is not _UNSET:
            if stats is not None:
                stats.index_hits += 1
            for v in graph.successors(source, lab):
                yield (source, v)
        elif target is not _UNSET:
            if stats is not None:
                stats.index_hits += 1
            for u in graph.predecessors(target, lab):
                yield (u, target)
        else:
            yield from graph.iter_label_pairs(lab)


def _value(term: object, assignment: Assignment) -> object:
    if is_variable(term):
        return assignment.get(term, _UNSET)
    return term


def _bind(
    assignment: Assignment,
    term: object,
    value: Node,
    added: list[Variable] | None = None,
) -> bool:
    """Bind ``term`` to ``value`` in ``assignment``; False on a clash."""
    if not is_variable(term):
        return term == value
    current = assignment.get(term, _UNSET)
    if current is _UNSET:
        assignment[term] = value
        if added is not None:
            added.append(term)
        return True
    return current == value
