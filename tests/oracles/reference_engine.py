"""The set-algebraic query oracle behind the query engine's interface.

:class:`ReferenceEngine` answers every :class:`~repro.engine.query.QueryEngine`
entry point by materialising the whole relation with
:func:`repro.graph.eval.evaluate_nre`, so the compiled engine's answers —
on dict graphs and on frozen or snapshot-loaded ones — can be checked
against an evaluator that shares none of its code.  Passed to the
certain-answer enumeration tails in :mod:`repro.core.certain`, it runs
the minimal-solution pipeline with no compiled evaluation at all.
"""

from __future__ import annotations

from typing import Hashable, Iterable

from repro.engine.query import EvalStats
from repro.graph.database import GraphDatabase
from repro.graph.eval import evaluate_nre
from repro.graph.nre import NRE

Node = Hashable
PairSet = frozenset[tuple[Node, Node]]


class ReferenceEngine:
    """The set-algebraic oracle behind the same interface as the engine.

    No compilation, no cross-candidate caching, no early exit — every call
    materialises the full relation with :func:`repro.graph.eval.evaluate_nre`
    exactly as the seed code did — the oracle half of the differential
    tests for :class:`~repro.engine.query.QueryEngine`.
    """

    def __init__(self, stats: EvalStats | None = None):
        self.stats = stats if stats is not None else EvalStats()

    def pairs(self, graph: GraphDatabase, expr: NRE) -> PairSet:
        """Return ``⟦expr⟧_graph`` via the reference evaluator."""
        self.stats.all_pairs_queries += 1
        return evaluate_nre(graph, expr)

    def reachable(
        self, graph: GraphDatabase, expr: NRE, source: Node
    ) -> frozenset[Node]:
        """Single-source answers, filtered from the full relation."""
        self.stats.single_source_queries += 1
        return frozenset(v for u, v in evaluate_nre(graph, expr) if u == source)

    def reachable_many(
        self, graph: GraphDatabase, expr: NRE, sources: Iterable[Node]
    ) -> dict[Node, frozenset[Node]]:
        """Per-source answers, all filtered from one full relation."""
        sources = list(sources)
        self.stats.batched_source_queries += len(sources)
        relation = evaluate_nre(graph, expr)
        answers: dict[Node, set[Node]] = {source: set() for source in sources}
        for u, v in relation:
            if u in answers:
                answers[u].add(v)
        return {source: frozenset(targets) for source, targets in answers.items()}

    def holds(
        self, graph: GraphDatabase, expr: NRE, source: Node, target: Node
    ) -> bool:
        """Single-pair membership, decided on the full relation."""
        self.stats.single_pair_queries += 1
        return (source, target) in evaluate_nre(graph, expr)

    def answers_over(
        self, graph: GraphDatabase, expr: NRE, domain: Iterable[Node]
    ) -> PairSet:
        """The full relation restricted to ``domain × domain``."""
        self.stats.all_pairs_queries += 1
        members = set(domain)
        return frozenset(
            (u, v)
            for u, v in evaluate_nre(graph, expr)
            if u in members and v in members
        )
