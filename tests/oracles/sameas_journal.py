"""The journal-order sameAs saturation — the oracle for union-find.

:func:`saturate_journal` is the original edge-at-a-time loop of the
Section 4.2 saturation step: every body match found in one round is
repaired immediately in journal enumeration order, and each constraint
re-matches only through the journal delta
(:meth:`~repro.engine.matcher.TriggerMatcher.delta_matches`).  The
production :func:`repro.chase.sameas_chase.saturate_sameas` batches the
same fixpoint through pair projections and a union-find; the property
suite pins the two byte-identical, which needs this fixed reference.
Tests swap it into :func:`~repro.chase.sameas_chase.solve_with_sameas` by
patching ``sameas_chase.saturate_sameas``.
"""

from __future__ import annotations

from typing import Sequence

from repro.chase.result import ChaseStats
from repro.engine.matcher import TriggerMatcher
from repro.graph.database import GraphDatabase
from repro.mappings.sameas import SAME_AS_LABEL, SameAsConstraint


def saturate_journal(
    graph: GraphDatabase,
    constraints: Sequence[SameAsConstraint],
    stats: ChaseStats | None = None,
) -> GraphDatabase:
    """The edge-at-a-time saturation in journal order — the oracle.

    Same signature and contract as
    :func:`~repro.chase.sameas_chase.saturate_sameas`: returns a new graph
    with the alphabet widened by ``sameAs``; the input is not mutated.
    """
    sigma = set(graph.alphabet) | {SAME_AS_LABEL}
    result = graph.with_alphabet(sigma)
    counters = stats if stats is not None else ChaseStats()
    matcher = TriggerMatcher(result, counters)
    last_seen = [None] * len(constraints)  # graph version at last evaluation
    changed = True
    while changed:
        changed = False
        counters.rounds += 1
        for index, constraint in enumerate(constraints):
            since, last_seen[index] = last_seen[index], result.version
            if since is None:
                homs = matcher.matches(constraint.body)
            else:
                homs = matcher.delta_matches(constraint.body, since)
            pending = list(constraint.violations_among(result, homs))
            for left, right in pending:
                result.add_edge(left, SAME_AS_LABEL, right)
                counters.sameas_edges_added += 1
                changed = True
    return result
