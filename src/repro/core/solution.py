"""The solution predicate: ``G ∈ Sol_Ω(I)``.

Per the paper (Section 2, "Solutions"): given Ω = (R, Σ, M_st, M_t), an
instance I of R and a graph G over Σ, G is a solution for I under Ω iff
``(I, G)`` satisfies M_st and ``G`` satisfies M_t.

The check runs set at a time.  Each s-t tgd's body matches are projected
onto its frontier once, as a set of rows, and its head is compiled once
per graph (:meth:`~repro.mappings.stt.SourceToTargetTgd.head_checker`):
atoms between frontier variables become adjacency-set probes, atoms with
a lone existential become has-a-neighbour tests, and the remaining
existential groups run one memoised join plan.  A functional egd holds
iff no key's adjacency set under its label has two members
(:meth:`~repro.mappings.egd.TargetEgd.is_satisfied`).  Only a dependency
that fails is itemised, match by match in the order of
:meth:`~repro.mappings.stt.SourceToTargetTgd.body_matches` and
:meth:`~repro.mappings.egd.TargetEgd.violations`, reusing the compiled
head checker.  ``tests/oracles/reference_solution.py`` keeps the
per-match scan the differential suite compares against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.setting import DataExchangeSetting
from repro.engine.delta import _functional_profile
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
    the fast path behind :func:`is_solution`.  Dependencies that hold are
    decided set at a time and never itemised (see the module docstring).
    """
    report = SolutionReport()
    for tgd in setting.st_tgds:
        holds = tgd.head_checker(graph)
        if tgd.is_satisfied(instance, graph, holds):
            continue
        for violation in tgd.violations(instance, graph, holds):
            report.st_tgd_violations.append((tgd, violation))
            if first_only:
                return report
    for egd in setting.egds():
        if _functional_profile(egd) is not None and egd.is_satisfied(graph):
            continue
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


def is_solution(
    instance: RelationalInstance,
    graph: GraphDatabase,
    setting: DataExchangeSetting,
) -> bool:
    """Return whether ``graph`` is a solution for ``instance`` under the setting.

    Decided set at a time (see the module docstring); only a failing
    dependency is looked at match by match, to find its first violation.

    >>> # See tests/test_core/test_solution.py and the Figure 1 benchmark
    >>> # for the paper's G1/G2/G3 checks.
    """
    return solution_violations(instance, graph, setting, first_only=True).ok
