"""The set-algebraic NRE evaluator, kept as the query oracle.

``⟦r⟧_G`` is computed bottom-up as an explicit set of node pairs, as close
to the semantics of [5] (see :mod:`repro.graph.nre`) as the definitions
read: unions and compositions of pair sets, and a BFS-per-node
reflexive-transitive closure for Kleene stars.

It shares no code with the library's evaluator, the successor-map
algebra (:mod:`repro.graph.eval`), so that can be checked against it.
:class:`oracles.reference_engine.ReferenceEngine` puts it behind the
:class:`~repro.engine.query.QueryEngine` interface.
"""

from __future__ import annotations

from typing import Hashable

from repro.graph.database import GraphDatabase
from repro.graph.nre import (
    NRE,
    Backward,
    Concat,
    Epsilon,
    Label,
    Nest,
    Star,
    Union,
)

Node = Hashable
PairSet = frozenset[tuple[Node, Node]]


def _compose(left: PairSet, right: PairSet) -> PairSet:
    """Relational composition ``left ; right``."""
    by_source: dict[Node, set[Node]] = {}
    for u, v in right:
        by_source.setdefault(u, set()).add(v)
    result: set[tuple[Node, Node]] = set()
    for u, mid in left:
        for v in by_source.get(mid, ()):
            result.add((u, v))
    return frozenset(result)


def _closure(pairs: PairSet, nodes: frozenset[Node]) -> PairSet:
    """Reflexive-transitive closure of ``pairs`` over ``nodes`` (BFS per node)."""
    adjacency: dict[Node, set[Node]] = {}
    for u, v in pairs:
        adjacency.setdefault(u, set()).add(v)
    result: set[tuple[Node, Node]] = {(n, n) for n in nodes}
    for start in nodes:
        frontier = [start]
        seen = {start}
        while frontier:
            current = frontier.pop()
            for nxt in adjacency.get(current, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
                    result.add((start, nxt))
    return frozenset(result)


def evaluate_nre(
    graph: GraphDatabase,
    expr: NRE,
    _cache: dict[NRE, PairSet] | None = None,
) -> PairSet:
    """Return ``⟦expr⟧_G`` as a frozenset of node pairs.

    Repeated subexpressions are evaluated once thanks to an internal cache
    (NRE nodes are hashable values).

    """
    cache: dict[NRE, PairSet] = _cache if _cache is not None else {}

    def go(node: NRE) -> PairSet:
        cached = cache.get(node)
        if cached is not None:
            return cached
        if isinstance(node, Epsilon):
            result: PairSet = frozenset((n, n) for n in graph.nodes())
        elif isinstance(node, Label):
            result = graph.edges_with_label(node.name)
        elif isinstance(node, Backward):
            result = frozenset((v, u) for u, v in graph.edges_with_label(node.name))
        elif isinstance(node, Union):
            result = go(node.left) | go(node.right)
        elif isinstance(node, Concat):
            result = _compose(go(node.left), go(node.right))
        elif isinstance(node, Star):
            result = _closure(go(node.inner), graph.nodes())
        elif isinstance(node, Nest):
            sources = {u for u, _ in go(node.inner)}
            result = frozenset((u, u) for u in sources)
        else:  # pragma: no cover - exhaustive over the AST
            raise TypeError(f"unknown NRE node {node!r}")
        cache[node] = result
        return result

    return go(expr)
