"""Homomorphisms from graph patterns into graph databases.

Following the paper (Section 3.2), a homomorphism from π = (N, D) into
``G = (V, E)`` is a total function ``h : N → V`` such that

1. ``h`` is the identity on ``N ∩ V`` (constants are pinned), and
2. for every edge ``(u, r, v) ∈ D``, ``(h(u), h(v)) ∈ ⟦r⟧_G``.

The search backtracks over null assignments.  For each null we precompute a
candidate set by intersecting, over every incident pattern edge, the
projections of the edge's NRE relation; most-constrained nulls are assigned
first.
"""

from __future__ import annotations

from typing import Hashable, Iterator

from repro.graph.database import GraphDatabase
from repro.graph.eval import Relation, evaluate_nre
from repro.graph.nre import NRE
from repro.patterns.pattern import GraphPattern, Null, is_null

Node = Hashable
Homomorphism = dict[Node, Node]


def _nre_relations(
    pattern: GraphPattern, graph: GraphDatabase
) -> dict[NRE, frozenset[tuple[Node, Node]]]:
    shared: dict[NRE, Relation] = {}
    return {expr: evaluate_nre(graph, expr, _cache=shared) for expr in pattern.expressions()}


def _candidates(
    pattern: GraphPattern,
    graph: GraphDatabase,
    relations: dict[NRE, frozenset[tuple[Node, Node]]],
) -> dict[Null, set[Node]]:
    """Per-null candidate sets from unary projections of incident edges."""
    candidates: dict[Null, set[Node]] = {
        null: set(graph.nodes()) for null in pattern.nulls()
    }
    for edge in pattern.edges():
        relation = relations[edge.nre]
        if is_null(edge.source):
            sources = {u for u, _ in relation}
            if not is_null(edge.target) and edge.target in graph.nodes():
                sources = {u for u, v in relation if v == edge.target}
            candidates[edge.source] &= sources
        if is_null(edge.target):
            targets = {v for _, v in relation}
            if not is_null(edge.source) and edge.source in graph.nodes():
                targets = {v for u, v in relation if u == edge.source}
            candidates[edge.target] &= targets
    return candidates


def all_homomorphisms(
    pattern: GraphPattern, graph: GraphDatabase
) -> Iterator[Homomorphism]:
    """Yield every homomorphism from ``pattern`` into ``graph``.

    Each yielded mapping is total over the pattern's nodes (constants map to
    themselves).  Yields nothing when some pattern constant is absent from
    the graph — condition 1 is then unsatisfiable.
    """
    graph_nodes = graph.nodes()
    for constant in pattern.constants():
        if constant not in graph_nodes:
            return

    relations = _nre_relations(pattern, graph)
    candidates = _candidates(pattern, graph, relations)
    if any(not domain for domain in candidates.values()):
        return

    nulls = sorted(candidates, key=lambda n: len(candidates[n]))
    edges = list(pattern.edges())

    def consistent(assignment: Homomorphism) -> bool:
        for edge in edges:
            source = assignment.get(edge.source, edge.source)
            target = assignment.get(edge.target, edge.target)
            source_known = not is_null(source)
            target_known = not is_null(target)
            if source_known and target_known:
                if (source, target) not in relations[edge.nre]:
                    return False
        return True

    def assign(index: int, assignment: Homomorphism) -> Iterator[Homomorphism]:
        if index == len(nulls):
            total = {c: c for c in pattern.constants()}
            total.update(assignment)
            yield total
            return
        null = nulls[index]
        for candidate in sorted(candidates[null], key=repr):
            assignment[null] = candidate
            if consistent(assignment):
                yield from assign(index + 1, assignment)
            del assignment[null]

    if consistent({}):
        yield from assign(0, {})


def find_homomorphism(
    pattern: GraphPattern, graph: GraphDatabase
) -> Homomorphism | None:
    """Return one homomorphism π → G, or ``None`` when none exists."""
    for hom in all_homomorphisms(pattern, graph):
        return hom
    return None


def has_homomorphism(pattern: GraphPattern, graph: GraphDatabase) -> bool:
    """Return whether π → G (i.e. whether ``G ∈ Rep_Σ(π)``)."""
    return find_homomorphism(pattern, graph) is not None
