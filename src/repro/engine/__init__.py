"""The delta-chase engine, the incremental chase and the query engine.

This package holds the shared evaluation cores:

* :class:`TriggerMatcher` — homomorphism enumeration over a
  :class:`~repro.graph.database.GraphDatabase`, the graph-side entry
  point to the join executor (:mod:`repro.join`): full, seeded, projected
  (pair sets for egd and sameAs violations) and semi-naive *delta*
  enumeration (only triggers through recently added edges);
* :class:`EgdViolationQueue` — an egd violation set maintained
  incrementally across merge steps instead of recomputed per round;
* :func:`is_simple_query` — whether every atom is a bare label, the
  shape delta enumeration pins (composite bodies are re-enumerated in
  full, a sound superset);
* :class:`QueryEngine` (:mod:`repro.engine.query`) — memoising NRE
  evaluation with single-pair/single-source modes and a
  cross-candidate cache keyed on graph fingerprints;
* :class:`EvalStats` — the query-side observability counters (the
  ``ChaseStats`` analogue).

A chase request flows as::

    dependencies ──▶ TriggerMatcher.matches / .pair_matches   (initial triggers)
    round N adds Δ ─▶ TriggerMatcher.delta_matches            (semi-naive round N+1)
    merge old↦new ──▶ EgdViolationQueue.merge                 (rename, then
                       └▶ TriggerMatcher.pair_matches_seeded    re-match through
                                                                the rewritten edges)
                 all ─▶ repro.join: Body.plan → Plan.rows / .exists / Body.delta_rows

>>> from repro.engine import TriggerMatcher, is_simple_query
>>> from repro.graph.database import GraphDatabase
>>> from repro.graph.cnre import CNREAtom, CNREQuery
>>> from repro.graph.nre import Label
>>> from repro.relational.query import Variable
>>> g = GraphDatabase(edges=[("u", "a", "v")])
>>> x, y = Variable("x"), Variable("y")
>>> q = CNREQuery([CNREAtom(x, Label("a"), y)])
>>> [(h[x], h[y]) for h in TriggerMatcher(g).matches(q)]
[('u', 'v')]
"""

from repro.engine.delta import EgdViolationQueue
from repro.engine.matcher import TriggerMatcher, is_simple_query
from repro.engine.query import (
    EvalStats,
    QueryEngine,
    default_engine,
)

__all__ = [
    "TriggerMatcher",
    "EgdViolationQueue",
    "is_simple_query",
    "QueryEngine",
    "EvalStats",
    "default_engine",
]
