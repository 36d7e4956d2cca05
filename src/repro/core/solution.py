"""The solution predicate: ``G ∈ Sol_Ω(I)``.

Per the paper (Section 2, "Solutions"): given Ω = (R, Σ, M_st, M_t), an
instance I of R and a graph G over Σ, G is a solution for I under Ω iff
``(I, G)`` satisfies M_st and ``G`` satisfies M_t.

The check is one pass: each dependency's ``violations`` walks its
matches once, in match order, and the first one it yields is the first
violation.  An s-t tgd joins its body once, deduplicates the frontier
rows in order of first occurrence and checks each distinct row once by
the head's join plan
(:meth:`~repro.mappings.stt.SourceToTargetTgd.violations`);
:meth:`~repro.join.Plan.existence` tests the head one independent
component at a time: an atom between frontier variables is one
membership test, an atom with a lone existential a non-empty read of its
candidates, and only atoms linked by shared existentials search.  A
functional egd reads its label's adjacency sets before it joins, and a
body that needs a label the graph has no edge of matches nothing
(:class:`~repro.engine.matcher.TriggerMatcher`).
``tests/oracles/reference_solution.py`` keeps the per-match scan the
differential suite compares against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.setting import DataExchangeSetting
from repro.graph.database import GraphDatabase
from repro.relational.instance import RelationalInstance


@dataclass
class SolutionReport:
    """An itemised account of which dependencies a graph violates."""

    st_tgd_violations: list[tuple[object, dict]] = field(default_factory=list)
    """Pairs (tgd, body homomorphism) whose head has no extension in G."""

    egd_violations: list[tuple[object, tuple]] = field(default_factory=list)
    """Pairs (egd, (u, v)) with u ≠ v both matched by the egd's equality."""

    sameas_violations: list[tuple[object, tuple]] = field(default_factory=list)
    """Pairs (constraint, (u, v)) lacking the required sameAs edge."""

    tgd_violations: list[tuple[object, dict]] = field(default_factory=list)
    """Pairs (target tgd, body homomorphism) with no head extension."""

    @property
    def ok(self) -> bool:
        """Whether no violation of any kind was recorded."""
        return not (
            self.st_tgd_violations
            or self.egd_violations
            or self.sameas_violations
            or self.tgd_violations
        )

    def summary(self) -> str:
        """Return a one-line human-readable account."""
        if self.ok:
            return "solution: all dependencies satisfied"
        parts = []
        if self.st_tgd_violations:
            parts.append(f"{len(self.st_tgd_violations)} s-t tgd violation(s)")
        if self.egd_violations:
            parts.append(f"{len(self.egd_violations)} egd violation(s)")
        if self.sameas_violations:
            parts.append(f"{len(self.sameas_violations)} sameAs violation(s)")
        if self.tgd_violations:
            parts.append(f"{len(self.tgd_violations)} target tgd violation(s)")
        return "not a solution: " + ", ".join(parts)


def solution_violations(
    instance: RelationalInstance,
    graph: GraphDatabase,
    setting: DataExchangeSetting,
    first_only: bool = False,
) -> SolutionReport:
    """Collect every dependency violation of ``graph`` w.r.t. the setting.

    With ``first_only=True`` the scan stops at the first violation found —
    the fast path behind :func:`is_solution`.  Each dependency's
    violations come in its match order (see the module docstring).
    """
    report = SolutionReport()
    kinds = (
        (report.st_tgd_violations, setting.st_tgds, (instance, graph)),
        (report.egd_violations, setting.egds(), (graph,)),
        (report.sameas_violations, setting.sameas_constraints(), (graph,)),
        (report.tgd_violations, setting.general_target_tgds(), (graph,)),
    )
    for found, dependencies, args in kinds:
        for dependency in dependencies:
            for violation in dependency.violations(*args):
                found.append((dependency, violation))
                if first_only:
                    return report
    return report


def is_solution(
    instance: RelationalInstance,
    graph: GraphDatabase,
    setting: DataExchangeSetting,
) -> bool:
    """Return whether ``graph`` is a solution for ``instance`` under the setting.

    One pass per dependency, up to the first violation (see the module
    docstring).

    >>> # See tests/test_core/test_solution.py and the Figure 1 benchmark
    >>> # for the paper's G1/G2/G3 checks.
    """
    return solution_violations(instance, graph, setting, first_only=True).ok
