"""The indexed delta-chase engine and the compiled query engine.

This package holds the two shared evaluation cores:

* :class:`TriggerMatcher` — indexed homomorphism enumeration over a
  :class:`~repro.graph.database.GraphDatabase`, with semi-naive *delta*
  enumeration (only triggers through recently added edges) and per-node
  enumeration (only triggers through a merged node);
* :class:`EgdViolationQueue` — an egd violation set maintained
  incrementally across merge steps instead of recomputed per round;
* :func:`is_simple_query` — the eligibility test for the fast paths
  (composite NREs fall back to the CNRE evaluator, so results never
  depend on which path ran);
* :class:`QueryEngine` (:mod:`repro.engine.query`) — compiled, memoising
  NRE evaluation with single-pair/single-source modes and a
  cross-candidate cache keyed on graph fingerprints;
* :class:`EvalStats` — the query-side observability counters (the
  ``ChaseStats`` analogue).

A chase request flows as::

    dependencies ──▶ TriggerMatcher.matches          (initial trigger set)
    round N adds Δ ─▶ TriggerMatcher.delta_matches   (semi-naive round N+1)
    merge old↦new ──▶ EgdViolationQueue.merge        (rename + re-match at new)

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
