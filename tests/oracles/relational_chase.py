"""The edge-at-a-time §3.1 relational chase — the oracle for the tuple chase.

:func:`chase_relational_sequential` is the original algorithm behind
:func:`repro.chase.relational_chase.chase_relational`: every s-t tgd
trigger is written into a :class:`~repro.graph.database.GraphDatabase`
one ``add_edge`` at a time, in sorted-match order, and the egd fixpoint
then merges nodes one violation at a time with ``rename_node``
(:class:`~repro.engine.delta.EgdViolationQueue` +
:func:`~repro.engine.delta.run_egd_fixpoint`).  The production chase fires
into edge tuples, closes functional egds with a union-find and loads the
graph once; the property suite pins the two to the same nodes, edges,
null names, counters, failure witness, fingerprint and destructive flag.
:func:`sequential_merges` exposes the fixpoint's merges, against which
the production chases' shared union-find closure is checked directly.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence

from repro.chase.result import ChaseResult, ChaseStats
from repro.engine.delta import EgdViolationQueue, run_egd_fixpoint
from repro.graph.database import GraphDatabase
from repro.mappings.egd import TargetEgd
from repro.mappings.stt import SourceToTargetTgd
from repro.patterns.pattern import Null
from repro.relational.instance import RelationalInstance
from repro.relational.query import Variable, is_variable

Node = Hashable


def chase_relational_sequential(
    st_tgds: Iterable[SourceToTargetTgd],
    egds: Sequence[TargetEgd],
    instance: RelationalInstance,
    alphabet: Iterable[str] | None = None,
) -> ChaseResult:
    """The edge-at-a-time chase — same signature as ``chase_relational``."""
    tgds = list(st_tgds)
    sigma: set[str] | None = set(alphabet) if alphabet is not None else None
    graph = GraphDatabase(alphabet=sigma)
    stats = ChaseStats()
    fire_relational_tgds(tgds, instance, graph, stats)
    queue = EgdViolationQueue(list(egds), graph, stats)
    failed, witness = run_egd_fixpoint(queue, stats)
    return ChaseResult(graph=graph, failed=failed, failure_witness=witness, stats=stats)


def sequential_merges(
    edges: Iterable[tuple[Node, str, Node]], egds: Sequence[TargetEgd]
) -> tuple[bool, list[tuple[Node, Node]]]:
    """The sequential egd fixpoint on a graph of ``edges``.

    Returns whether it fails (two constants meet) and its merges, each
    ``(old, new)``: ``old`` was renamed to ``new``, in merge order.
    """
    graph = GraphDatabase(edges=edges)
    merges: list[tuple[Node, Node]] = []
    queue = EgdViolationQueue(list(egds), graph, ChaseStats())
    failed, _ = run_egd_fixpoint(
        queue, ChaseStats(), lambda old, new: merges.append((old, new))
    )
    return failed, merges


def fire_relational_tgds(
    tgds: Sequence[SourceToTargetTgd],
    instance: RelationalInstance,
    graph: GraphDatabase,
    stats: ChaseStats,
) -> None:
    """Fire every single-symbol s-t tgd trigger into ``graph``, edge by edge."""
    null_counter = 0

    for tgd in tgds:
        matches = sorted(
            tgd.body_matches(instance, stats=stats),
            key=lambda m: sorted((v.name, repr(m[v])) for v in m),
        )
        fired: set[tuple] = set()
        for match in matches:
            key = tuple(repr(match[v]) for v in tgd.body.variables())
            if key in fired:
                continue
            fired.add(key)
            assignment: dict[Variable, Node] = {v: match[v] for v in tgd.frontier}
            for existential in tgd.existentials:
                null_counter += 1
                assignment[existential] = Null(f"N{null_counter}")
            for atom in tgd.head.atoms:
                source = (
                    assignment[atom.subject] if is_variable(atom.subject) else atom.subject
                )
                target = (
                    assignment[atom.object] if is_variable(atom.object) else atom.object
                )
                graph.add_edge(source, atom.nre.name, target)  # type: ignore[union-attr]
            stats.st_applications += 1
