"""The candidate/assign pattern search: one null at a time.

The seed's pattern homomorphism search, kept as the brute force
:func:`repro.patterns.homomorphism.all_homomorphisms` is pinned against.
Each null gets a candidate set, the intersection over its incident
pattern edges of the projections of the edge's relation (materialised by
the set-algebraic :func:`oracles.reference_eval.evaluate_nre`).  Nulls
are assigned most-constrained first, candidates in ``repr`` order, and
every partial assignment is checked against all edges whose two ends are
known.
"""

from __future__ import annotations

from typing import Hashable, Iterator

from oracles.reference_eval import evaluate_nre
from repro.graph.database import GraphDatabase
from repro.patterns.pattern import GraphPattern, Null, is_null

Node = Hashable
Homomorphism = dict[Node, Node]


def _candidates(pattern, graph, relations) -> dict[Null, set[Node]]:
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

    Each yielded mapping is total over the pattern's nodes (constants map
    to themselves); nothing is yielded when a pattern constant is absent
    from the graph.
    """
    graph_nodes = graph.nodes()
    for constant in pattern.constants():
        if constant not in graph_nodes:
            return
    cache: dict = {}
    relations = {
        expr: evaluate_nre(graph, expr, cache) for expr in pattern.expressions()
    }
    candidates = _candidates(pattern, graph, relations)
    if any(not domain for domain in candidates.values()):
        return
    nulls = sorted(candidates, key=lambda n: len(candidates[n]))
    edges = list(pattern.edges())

    def consistent(assignment: Homomorphism) -> bool:
        for edge in edges:
            source = assignment.get(edge.source, edge.source)
            target = assignment.get(edge.target, edge.target)
            if not is_null(source) and not is_null(target):
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
