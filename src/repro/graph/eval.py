"""Relation-at-a-time evaluation of NREs over successor maps.

``⟦r⟧_G`` is computed bottom-up over the syntax tree, following the
semantics of [5] (see :mod:`repro.graph.nre`).  A :class:`Relation` is a
successor map ``node → set of nodes`` plus a flag for the identity on
``V``; it becomes a set of pairs only when decoded.  ``a`` and ``a⁻`` are
the graph's own per-label indexes, read without a copy; ``r · s`` is one
set union per source over the map of ``s``, which for ``r · s*`` skips
the middles the row already holds (``⟦s*⟧`` is transitive); ``[r]`` is a
semi-join with the domain of ``⟦r⟧``.  One Tarjan walk over the nodes of
``⟦r⟧`` serves both ``r*`` and ``r* · s``: it carries a set up the
condensation, seeded per component by its members for ``r*`` (the
reflexive part left to the flag) and by their rows of ``⟦s⟧`` for
``r* · s`` when ``⟦s⟧`` is not reflexive, so that read builds no reach
set.  The other right sides keep the closure: ``r* · s*`` and ``r* · ()``
compose it, ``r* · [t]`` semi-joins it.  An optional source set is pushed
into the leftmost operand, so a read of some sources restricts early.

This is the one NRE evaluator: it serves whole-relation reads
(:meth:`~repro.engine.query.QueryEngine.pairs` and ``answers_over``) and,
with one source pushed in, single sources and pairs (``reachable`` and
``holds``), whose shared ``cache`` keeps the unrestricted subexpression
relations across probes.

Beside it, :func:`touched_sources` finds the sources whose row may
differ after given edges and nodes changed, for
:class:`~repro.engine.incremental.IncrementalChase`'s answer patches,
by demand-driven pre-image walks (the sources whose row meets a node
set) that never close over the whole graph.
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import AbstractSet, Hashable, Iterable, Mapping, NamedTuple

from repro.graph.database import GraphDatabase
from repro.graph.nre import NRE, Backward, Concat, Epsilon, Label, Nest, Star, Union

Node = Hashable
PairSet = frozenset[tuple[Node, Node]]
Successors = Mapping[Node, set[Node]]
Changes = dict[Node, set[Node]]  # one end of changed edges -> their other ends
Rows = Iterable[tuple[Node, set[Node]]]
Sources = set[Node] | None  # None: every node

_FINISHED = float("inf")  # Tarjan index of a node whose component is complete


class Relation(NamedTuple):
    """A binary relation over the nodes of one graph.

    ``⟦self⟧ = {(u, v) | v ∈ succ[u]}``, plus ``(n, n)`` for every node
    ``n`` of the graph when ``reflexive``.  The sets in ``succ`` are shared
    with the graph's indexes and with other relations, so nothing may
    mutate them.

    >>> rel = Relation({"u": {"v"}}, reflexive=True)
    >>> {s: sorted(targets) for s, targets in rel.targets(["u", "w"]).items()}
    {'u': ['u', 'v'], 'w': ['w']}
    """

    succ: Successors
    reflexive: bool = False

    def targets(self, sources: Iterable[Node]) -> dict[Node, frozenset[Node]]:
        """``{v | (s, v) ∈ self}`` for each node ``s`` of the graph in ``sources``."""
        step = self.succ.get
        if self.reflexive:
            return {s: frozenset(chain(step(s, ()), (s,))) for s in sources}
        return {s: frozenset(step(s, ())) for s in sources}

    def pairs(
        self, graph: GraphDatabase, domain: AbstractSet[Node] | None = None
    ) -> PairSet:
        """Decode the relation into a frozenset of pairs.

        With ``domain`` only the pairs in ``domain × domain`` are decoded,
        straight from the rows of the sources in ``domain``; nodes of
        ``domain`` outside the graph have no pairs.

        >>> g = GraphDatabase(edges=[("u", "a", "v"), ("v", "a", "w")])
        >>> rel = Relation(g.forward_index("a"), reflexive=True)
        >>> sorted(rel.pairs(g, {"u", "w", "x"}))
        [('u', 'u'), ('w', 'w')]
        """
        if domain is None:
            rows = chain.from_iterable(
                zip(repeat(u), vs) for u, vs in self.succ.items()
            )
        else:
            rows = (
                (u, v) for u, vs in _rows(self.succ, domain) for v in vs if v in domain
            )
        if self.reflexive:
            nodes = (
                graph.nodes() if domain is None else [u for u in domain if u in graph]
            )
            rows = chain(rows, zip(nodes, nodes))
        return frozenset(rows)


_IDENTITY = Relation({}, reflexive=True)


def evaluate_relation(
    graph: GraphDatabase,
    expr: NRE,
    sources: Sources = None,
    cache: dict[NRE, Relation] | None = None,
) -> Relation:
    """Evaluate ``expr`` on ``graph`` into a :class:`Relation`.

    With ``sources`` (nodes of the graph) only the rows of those sources
    are guaranteed complete; other rows may be missing or partial, never
    wrong.  ``cache`` maps subexpressions to their unrestricted relations
    and is valid only while the graph is not mutated.

    >>> g = GraphDatabase(edges=[("u", "a", "v"), ("v", "a", "w")])
    >>> rel = evaluate_relation(g, Star(Label("a")), sources={"v"})
    >>> sorted(rel.targets(["v"])["v"])
    ['v', 'w']
    """
    cache = {} if cache is None else cache
    if sources is None and (cached := cache.get(expr)) is not None:
        return cached
    if isinstance(expr, Epsilon):
        result = _IDENTITY
    elif isinstance(expr, Label):
        result = Relation(graph.forward_index(expr.name))
    elif isinstance(expr, Backward):
        result = Relation(graph.backward_index(expr.name))
    elif isinstance(expr, Union):
        result = _union(
            evaluate_relation(graph, expr.left, sources, cache),
            evaluate_relation(graph, expr.right, sources, cache),
        )
    elif isinstance(expr, Concat):
        if isinstance(expr.right, Nest):  # r · [s]: a semi-join with dom(⟦s⟧)
            left = evaluate_relation(graph, expr.left, sources, cache)
            inner = evaluate_relation(graph, expr.right.inner, None, cache)
            result = _semijoin(left, _domain(inner, None), sources)
        else:
            right = evaluate_relation(graph, expr.right, None, cache)
            if isinstance(expr.left, Star) and not right.reflexive:
                # r* · s: carry ⟦s⟧'s rows up the condensation of ⟦r⟧
                inner = evaluate_relation(graph, expr.left.inner, None, cache)
                succ = _closure(inner.succ, sources, right.succ)
                for source, targets in _rows(right.succ, sources):
                    if targets:  # a node the walk skipped carries its own row
                        succ.setdefault(source, targets)
                result = Relation(succ)
            else:
                left = evaluate_relation(graph, expr.left, sources, cache)
                result = _compose(left, right, sources, isinstance(expr.right, Star))
    elif isinstance(expr, Star):
        inner = evaluate_relation(graph, expr.inner, None, cache)
        result = Relation(_closure(inner.succ, sources), reflexive=True)
    elif isinstance(expr, Nest):
        domain = _domain(evaluate_relation(graph, expr.inner, sources, cache), sources)
        result = _IDENTITY if domain is None else Relation({u: {u} for u in domain})
    else:  # pragma: no cover - exhaustive over the AST
        raise TypeError(f"unknown NRE node {expr!r}")
    if sources is None:
        cache[expr] = result
    return result


def _rows(succ: Successors, sources: Sources) -> Rows:
    """The rows of ``succ`` whose source is in ``sources`` (all when ``None``)."""
    if sources is None:
        return succ.items()
    if len(sources) < len(succ):
        return [(source, succ[source]) for source in sources if source in succ]
    return [(source, targets) for source, targets in succ.items() if source in sources]


def _domain(relation: Relation, sources: Sources) -> Sources:
    """The sources with a target (within ``sources``); ``None`` for all of ``V``."""
    if relation.reflexive:
        return None
    return {source for source, targets in _rows(relation.succ, sources) if targets}


def _union(left: Relation, right: Relation) -> Relation:
    reflexive = left.reflexive or right.reflexive
    if not right.succ:
        return Relation(left.succ, reflexive)
    return Relation(_merge(dict(left.succ), right.succ.items()), reflexive)


def _merge(succ: dict[Node, set[Node]], rows: Rows) -> dict[Node, set[Node]]:
    """Add ``rows`` to ``succ`` without mutating any set either holds."""
    for source, targets in rows:
        if targets:
            mine = succ.get(source)
            succ[source] = mine | targets if mine else targets
    return succ


def _compose(
    left: Relation, right: Relation, sources: Sources, closed: bool = False
) -> Relation:
    """``left ; right`` over the rows of ``sources`` (``right`` unrestricted).

    ``closed`` marks ``right`` as a closure ``⟦s*⟧``, reflexive and
    transitive: a middle already in the row brings nothing new, so its
    set is not unioned again.
    """
    succ: dict[Node, set[Node]] = {}
    step = right.succ.get
    for source, middles in _rows(left.succ, sources):
        if closed:
            row: set[Node] = set()
            for middle in middles:
                if middle not in row:
                    row.add(middle)
                    row.update(step(middle, ()))
            if row:
                succ[source] = row
            continue
        parts = [targets for middle in middles if (targets := step(middle))]
        if right.reflexive and middles:
            parts.append(middles)
        if len(parts) == 1:
            succ[source] = parts[0]
        elif parts:
            succ[source] = set().union(*parts)
    if left.reflexive:  # the identity part of left hands sources straight on
        _merge(succ, _rows(right.succ, sources))
    return Relation(succ, left.reflexive and right.reflexive)


def _semijoin(left: Relation, domain: Sources, sources: Sources) -> Relation:
    """``left`` with its targets kept to ``domain`` (``None``: all of ``V``)."""
    if domain is None:
        return left
    succ = {}
    for source, middles in _rows(left.succ, sources):
        hits = middles & domain
        if hits:
            succ[source] = hits
    if left.reflexive:
        _merge(succ, ((u, {u}) for u in domain if sources is None or u in sources))
    return Relation(succ)


def _closure(
    succ: Successors, roots: Iterable[Node] | None, seeds: Successors | None = None
) -> dict[Node, set[Node]]:
    """Carry sets up the condensation of ``succ`` from ``roots`` (all rows if ``None``).

    Iterative Tarjan: components complete in reverse topological order,
    so a component's set is its members' seeds plus the (complete) sets
    its edges lead to, shared by every member.  With ``seeds`` ``None``
    each member seeds itself, so the sets are reach sets: the rows of
    ``succ*`` but for its identity part, which is left to the flag.  With
    the rows of ``⟦s⟧`` as seeds they are the rows of ``succ* · s``, and
    no reach set is built.  Only nodes reachable from ``roots`` are
    visited, and each gets a row; a node the walk does not visit (a sink)
    carries its own seed.
    """
    step = succ.get
    carried: dict[Node, set[Node]] = {}
    index: dict[Node, float] = {}  # preorder number; len(index) counts
    low: dict[Node, float] = {}
    component: list[Node] = []
    for root in (succ if roots is None else roots):
        if root in index or not step(root):
            continue
        index[root] = low[root] = len(index)
        component.append(root)
        work = [(root, iter(step(root)))]
        while work:
            node, children = work[-1]
            for child in children:
                seen = index.get(child)
                if seen is None:
                    successors = step(child)
                    if not successors:  # a sink is a finished component
                        index[child] = _FINISHED
                        continue
                    index[child] = low[child] = len(index)
                    component.append(child)
                    work.append((child, iter(successors)))
                    break
                if seen < low[node]:  # on the stack: finished nodes read inf
                    low[node] = seen
            else:
                work.pop()
                node_low = low[node]
                if work:
                    parent = work[-1][0]
                    if node_low < low[parent]:
                        low[parent] = node_low
                if node_low != index[node]:
                    continue
                members = []
                while True:
                    member = component.pop()
                    index[member] = _FINISHED
                    members.append(member)
                    if member == node:
                        break
                acc: set[Node] = set()
                for member in members:
                    carried[member] = acc
                if seeds is None:  # succ*: each member seeds itself
                    acc.update(members)
                    for member in members:
                        for target in step(member, ()):
                            if target not in acc:  # a reach set holds its nodes' sets
                                acc.update(carried.get(target) or (target,))
                else:
                    for member in members:
                        acc.update(seeds.get(member, ()))
                        for target in step(member, ()):
                            closed = carried.get(target)
                            if closed is None:  # a sink the walk did not enter
                                acc.update(seeds.get(target, ()))
                            elif closed is not acc:
                                acc |= closed
    return carried


def _preimage(graph: GraphDatabase, expr: NRE, targets: Iterable[Node]) -> set[Node]:
    """``pre(expr, X)``: the sources whose ``⟦expr⟧`` row meets ``targets``.

    Demand-driven and compositional on the current graph: ``a`` steps
    back through the ``a`` predecessor index and ``a⁻`` through the
    forward one, ``pre(r · s, X) = pre(r, pre(s, X))``, a union unions,
    ``r*`` grows a frontier until it stops, and ``pre([r], X)`` keeps the
    nodes of ``X`` whose ``⟦r⟧`` row is not empty.  Nothing is closed over
    the whole graph: only nodes that reach ``X`` are visited, and those a
    nest's test reads from them.

    >>> from repro.graph.parser import parse_nre
    >>> g = GraphDatabase(edges=[("u", "a", "v"), ("v", "a", "w"), ("x", "b", "v")])
    >>> sorted(_preimage(g, parse_nre("a*"), {"w"}))
    ['u', 'v', 'w']
    >>> sorted(_preimage(g, parse_nre("b . a"), {"w"}))
    ['x']
    """
    return _walk(graph, expr, set(targets), forward=False)


def touched_sources(
    graph: GraphDatabase,
    expr: NRE,
    edges: Iterable[tuple[Node, str, Node]],
    nodes: AbstractSet[Node],
) -> set[Node]:
    """The sources whose ``⟦expr⟧`` row may differ from before a change.

    ``edges`` are exactly the edges the change added or removed, and
    ``nodes`` exactly the nodes it added or removed (an edge or node
    present both before and after must not be listed); ``graph`` is the
    graph after it.  A source outside the returned set has the same row
    before and after, so the set is computed on the new graph alone:
    ``T(a)`` is the sources of changed ``a`` edges, ``T(r · s) = T(r) ∪
    pre(r, T(s))`` (a source whose ``r`` row stayed reaches a changed ``s``
    row through it), ``T(r*) = ΔV ∪ pre(r*, T(r) ∪ ΔV)``, ``T(ε) = ΔV``, so
    every reflexive part covers the node-set change, and ``T([r]) =
    T(r)``, but for ``[a]`` and ``[a⁻]``: there ``T`` is exact, the ends of
    changed ``a`` edges whose row switched between empty and not (the
    row before is the row after, symmetric-differenced with that end's
    changed edges, which is why the change must be exact).

    >>> from repro.graph.parser import parse_nre
    >>> g = GraphDatabase(edges=[("u", "a", "v"), ("v", "a", "w"), ("w", "b", "x")])
    >>> sorted(touched_sources(g, parse_nre("a . b"), [("w", "b", "x")], {"x"}))
    ['v']
    >>> g.add_edge("u", "a", "w")  # u had an a edge already
    >>> touched_sources(g, parse_nre("[a]"), [("u", "a", "w")], set())
    set()
    """
    changed: dict[str, tuple[Changes, Changes]] = {}
    for source, lab, target in edges:
        forward, backward = changed.setdefault(lab, ({}, {}))
        forward.setdefault(source, set()).add(target)
        backward.setdefault(target, set()).add(source)
    return _touched(graph, expr, changed, set(nodes))


def _touched(
    graph: GraphDatabase,
    expr: NRE,
    changed: Mapping[str, tuple[Changes, Changes]],
    nodes: set[Node],
) -> set[Node]:
    if isinstance(expr, Epsilon):
        return set(nodes)
    if isinstance(expr, (Label, Backward)):
        ends = changed.get(expr.name)
        return set() if ends is None else set(ends[isinstance(expr, Backward)])
    if isinstance(expr, Nest) and isinstance(expr.inner, (Label, Backward)):
        ends = changed.get(expr.inner.name)
        if ends is None:
            return set()
        backward = isinstance(expr.inner, Backward)
        index = (graph.backward_index if backward else graph.forward_index)(
            expr.inner.name
        )
        # Empty before iff the row after is exactly the changed edges.
        return {
            end for end, flipped in ends[backward].items()
            if not (row := index.get(end)) or row == flipped
        }
    if isinstance(expr, Union):
        return _touched(graph, expr.left, changed, nodes) | _touched(
            graph, expr.right, changed, nodes
        )
    if isinstance(expr, Concat):
        left = _touched(graph, expr.left, changed, nodes)
        right = _touched(graph, expr.right, changed, nodes)
        return left | _preimage(graph, expr.left, right)
    if isinstance(expr, Star):
        seeds = _touched(graph, expr.inner, changed, nodes) | nodes
        return nodes | _preimage(graph, expr, seeds)
    if isinstance(expr, Nest):
        return _touched(graph, expr.inner, changed, nodes)
    raise TypeError(f"unknown NRE node {expr!r}")  # pragma: no cover


def _walk(
    graph: GraphDatabase, expr: NRE, nodes: set[Node], forward: bool
) -> set[Node]:
    """The image of ``nodes`` under ``⟦expr⟧`` (``forward``), else its pre-image."""
    if not nodes:
        return set()
    if isinstance(expr, Epsilon):
        return {node for node in nodes if node in graph}
    if isinstance(expr, (Label, Backward)):
        along = isinstance(expr, Label) == forward
        index = (graph.forward_index if along else graph.backward_index)(expr.name)
        return set().union(*[row for node in nodes if (row := index.get(node))])
    if isinstance(expr, Union):
        return _walk(graph, expr.left, nodes, forward) | _walk(
            graph, expr.right, nodes, forward
        )
    if isinstance(expr, Concat):
        first, second = (expr.left, expr.right) if forward else (expr.right, expr.left)
        return _walk(graph, second, _walk(graph, first, nodes, forward), forward)
    if isinstance(expr, Star):
        reached = {node for node in nodes if node in graph}
        frontier = reached
        while frontier:
            frontier = _walk(graph, expr.inner, frontier, forward) - reached
            reached |= frontier
        return reached
    if isinstance(expr, Nest):
        return _tested(graph, expr.inner, nodes)
    raise TypeError(f"unknown NRE node {expr!r}")  # pragma: no cover


def _tested(graph: GraphDatabase, expr: NRE, nodes: set[Node]) -> set[Node]:
    """The nodes of ``nodes`` whose ``⟦expr⟧`` row is not empty."""
    if isinstance(expr, (Epsilon, Star)):
        return {node for node in nodes if node in graph}
    if isinstance(expr, (Label, Backward)):
        index = (
            graph.forward_index if isinstance(expr, Label) else graph.backward_index
        )(expr.name)
        return {node for node in nodes if index.get(node)}
    if isinstance(expr, Union):
        return _tested(graph, expr.left, nodes) | _tested(graph, expr.right, nodes)
    if isinstance(expr, Nest):
        return _tested(graph, expr.inner, nodes)
    if isinstance(expr, Concat):  # a row of r · s meets dom(s) inside r's image
        middles = _tested(graph, expr.right, _walk(graph, expr.left, nodes, True))
        return nodes & _walk(graph, expr.left, middles, forward=False)
    raise TypeError(f"unknown NRE node {expr!r}")  # pragma: no cover


def evaluate_nre(
    graph: GraphDatabase,
    expr: NRE,
    _cache: dict[NRE, Relation] | None = None,
) -> PairSet:
    """Return ``⟦expr⟧_G`` as a frozenset of node pairs.

    Repeated subexpressions are evaluated once; ``_cache`` shares that
    memo across calls on one unmutated graph.

    >>> from repro.graph.parser import parse_nre
    >>> g = GraphDatabase(edges=[("u", "a", "v"), ("v", "a", "w")])
    >>> sorted(evaluate_nre(g, parse_nre("a . a")))
    [('u', 'w')]
    """
    return evaluate_relation(graph, expr, cache=_cache).pairs(graph)


def nre_pairs(graph: GraphDatabase, expr: NRE) -> PairSet:
    """Alias of :func:`evaluate_nre` (the name used throughout the docs)."""
    return evaluate_nre(graph, expr)


def nre_reachable(graph: GraphDatabase, expr: NRE, source: Node) -> frozenset[Node]:
    """Return ``{v | (source, v) ∈ ⟦expr⟧_G}``.

    >>> from repro.graph.parser import parse_nre
    >>> g = GraphDatabase(edges=[("u", "a", "v"), ("v", "a", "w")])
    >>> sorted(nre_reachable(g, parse_nre("a*"), "u"))
    ['u', 'v', 'w']
    """
    if source not in graph:
        return frozenset()
    return evaluate_relation(graph, expr, {source}).targets((source,))[source]


def nre_holds(graph: GraphDatabase, expr: NRE, source: Node, target: Node) -> bool:
    """Return whether ``(source, target) ∈ ⟦expr⟧_G``."""
    return target in nre_reachable(graph, expr, source)


__all__ = [
    "Relation", "evaluate_relation", "evaluate_nre", "nre_pairs", "nre_reachable",
    "nre_holds", "touched_sources",
]
