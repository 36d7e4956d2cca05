"""The per-match solution check — the oracle for one-pass verification.

:func:`solution_violations` is the original scan of
:func:`repro.core.solution.solution_violations`: every s-t tgd body match
runs its own brute-force head search (the nested-loop
:func:`oracles.cnre_search.cnre_homomorphisms`, seeded with the match,
which shares no code with the join executor) and every egd enumerates
its violations through the matcher, for their order.
:func:`egd_violation_set` gives each egd's violations from that
nested-loop search alone, so the early exits of
:meth:`repro.mappings.egd.TargetEgd.violations` (the functional read,
the missing-label filter) are pinned against code they do not share.
The production check joins each body once, tests each distinct head row
one independent component at a time (:meth:`repro.join.Plan.exists`),
and reads functional egds off the adjacency sets; the differential suite
pins its verdicts and itemised reports equal to this one.
"""

from __future__ import annotations

from oracles.cnre_search import cnre_homomorphisms
from repro.core.setting import DataExchangeSetting
from repro.core.solution import SolutionReport
from repro.graph.database import GraphDatabase
from repro.relational.instance import RelationalInstance


def solution_violations(
    instance: RelationalInstance,
    graph: GraphDatabase,
    setting: DataExchangeSetting,
    first_only: bool = False,
) -> SolutionReport:
    """Collect every dependency violation of ``graph`` w.r.t. the setting.

    With ``first_only=True`` the scan stops at the first violation found.
    """
    report = SolutionReport()
    for tgd in setting.st_tgds:
        for match in tgd.body_matches(instance):
            if any(True for _ in cnre_homomorphisms(tgd.head, graph, seed=match)):
                continue
            report.st_tgd_violations.append((tgd, match))
            if first_only:
                return report
    for egd in setting.egds():
        for pair in egd.violations(graph):
            report.egd_violations.append((egd, pair))
            if first_only:
                return report
    for constraint in setting.sameas_constraints():
        for pair in constraint.violations(graph):
            report.sameas_violations.append((constraint, pair))
            if first_only:
                return report
    for tgd in setting.general_target_tgds():
        for violation in tgd.violations(graph):
            report.tgd_violations.append((tgd, violation))
            if first_only:
                return report
    return report


def egd_violation_set(egd, graph: GraphDatabase) -> set[tuple]:
    """The pairs ``(h(x₁), h(x₂))`` with ``h(x₁) ≠ h(x₂)`` over every
    homomorphism ``h`` of the egd's body, by nested-loop search."""
    pairs = (
        (match[egd.left], match[egd.right])
        for match in cnre_homomorphisms(egd.body, graph)
    )
    return {(left, right) for left, right in pairs if left != right}


def is_solution(
    instance: RelationalInstance,
    graph: GraphDatabase,
    setting: DataExchangeSetting,
) -> bool:
    """Return whether ``graph`` is a solution for ``instance`` under the setting."""
    return solution_violations(instance, graph, setting, first_only=True).ok
