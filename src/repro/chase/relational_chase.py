"""The Section 3.1 fragment: relational chase with single-symbol heads.

When every NRE in s-t tgd heads is a bare symbol ``a ∈ Σ``, the target
schema behaves as a set of binary relations and the classical relational
chase applies (paper, Section 3.1): the chase of the s-t tgds materialises a
graph whose invented nodes are labeled nulls, and egd steps then merge nodes
directly on that graph (failing on constant/constant conflicts).

The output "can be essentially seen as a graph" (paper) — here it *is* a
:class:`~repro.graph.database.GraphDatabase` whose null nodes are
:class:`~repro.patterns.pattern.Null` values, and it is a universal solution
for the fragment.  Example 3.1 / Figure 2 is reproduced in
``benchmarks/bench_fig2_relational_chase.py``.

The chase runs on dense int ids from the first trigger to the final
relabel.  The s-t phase gives each constant occurrence an id that keeps its
row's object (equal constants map to one union-find node), gives each
existential the next id and null number, and fires every trigger into an
ordered list of ``(id, label, id)`` edges.  Functional egds (every egd of
the scale workload families) close on a ``parent`` list, and only the
nulls that survive as class representatives become
:class:`~repro.patterns.pattern.Null` objects; the edge list is relabelled
once and bulk-loaded into one storage backend.  Other egds, and every run
that equates two constants, load every null and replay the un-merged edges
through the sequential :class:`~repro.engine.delta.EgdViolationQueue`
fixpoint, so counters, null names and failure witnesses are those of the
edge-at-a-time chase that ``tests/oracles/relational_chase.py`` keeps as
the differential oracle.
"""

from __future__ import annotations

from itertools import chain, compress, count, repeat
from typing import Collection, Hashable, Iterable, Sequence

from repro.chase.result import ChaseResult, ChaseStats
from repro.engine.delta import (
    EgdViolationQueue,
    _functional_profile,
    run_egd_fixpoint,
)
from repro.errors import NotSupportedError, SchemaError
from repro.graph.classes import is_single_symbol
from repro.graph.database import GraphDatabase
from repro.mappings.egd import TargetEgd
from repro.mappings.stt import SourceToTargetTgd
from repro.patterns.pattern import Null, is_null
from repro.relational.instance import RelationalInstance
from repro.telemetry import fold_stats, span

Node = Hashable
Triple = tuple[Node, str, Node]
IdTriple = tuple[int, str, int]


def _check_fragment(tgds: Sequence[SourceToTargetTgd]) -> None:
    for tgd in tgds:
        for expr in tgd.head.expressions():
            if not is_single_symbol(expr):
                raise NotSupportedError(
                    "the relational chase handles the Section 3.1 fragment "
                    f"(single-symbol heads) only; offending NRE: {expr}"
                )


def chase_relational(
    st_tgds: Iterable[SourceToTargetTgd],
    egds: Sequence[TargetEgd],
    instance: RelationalInstance,
    alphabet: Iterable[str] | None = None,
) -> ChaseResult:
    """Chase in the single-symbol fragment, producing a concrete graph.

    Step 1 fires every s-t tgd trigger, emitting plain labeled edges with
    fresh :class:`~repro.patterns.pattern.Null` nodes for existentials.
    Step 2 runs the egd fixpoint, merging nodes; equating two distinct
    constants fails the chase (then no solution exists — in this fragment
    the relational chase *is* sound and complete).

    >>> from repro.scenarios.figures import example31_setting
    >>> from repro.scenarios.flights import flights_instance
    >>> setting = example31_setting()
    >>> result = chase_relational(
    ...     setting.st_tgds, setting.egds(), flights_instance(), alphabet={"f", "h"})
    >>> result.stats.null_merges, result.expect_graph().edge_count()
    (1, 7)
    """
    tgds = list(st_tgds)
    _check_fragment(tgds)
    egd_list = list(egds)
    sigma = frozenset(alphabet) if alphabet is not None else None
    stats = ChaseStats()
    with span("chase.relational", tgds=len(tgds), egds=len(egd_list)):
        with span("chase.st"):
            edges, values, numbers, same = _fire_st_tgds(tgds, instance, sigma, stats)
        with span("chase.egd"):
            keep = _functional_closure(edges, egd_list, numbers, same)
        merged = keep or {}
        with span("chase.build"):
            # Null objects only for the nulls that survive the merges.
            for ident in compress(count(), numbers):
                if ident not in merged:
                    values[ident] = Null(f"N{numbers[ident]}")
            for ident, representative in merged.items():
                values[ident] = values[representative]
            graph = GraphDatabase.from_edges(
                sigma,
                [(values[s], lab, values[t]) for s, lab, t in edges],
                destructive=bool(merged),
            )
        if keep is None:
            # Every null is a node: the sequential fixpoint finds the witness.
            with span("chase.egd"):
                result = _egd_fixpoint_on_graph(graph, egd_list, stats)
        else:
            stats.egd_firings += len(merged)
            stats.null_merges += len(merged)
            stats.rounds += len(merged) + 1
            result = ChaseResult(
                graph=graph, failed=False, failure_witness=None, stats=stats
            )
    fold_stats("chase", stats)
    return result


def _fire_st_tgds(
    tgds: Sequence[SourceToTargetTgd],
    instance: RelationalInstance,
    sigma: frozenset[str] | None,
    stats: ChaseStats,
) -> tuple[list[IdTriple], list[Node], list[int], list[int]]:
    """Fire every s-t tgd trigger into id edges, in firing order.

    Tgds fire in declaration order, each one's matches sorted by the
    ``repr`` of their values in variable-name order and de-duplicated on
    that key (the instance's first such match fires).  A head label outside
    ``sigma`` raises the backend's :class:`SchemaError` as soon as a
    trigger would emit it.  The list may repeat an edge; loading keeps its
    first occurrence, as ``add_edge`` would.

    Id ``i`` is the constant ``values[i]`` (``numbers[i] == 0``) or the
    null ``N{numbers[i]}``.  Every constant occurrence keeps its own id, so
    each edge relabels to its row's own object, and ``same[i]`` names the
    first id of an equal value (``1``, ``1.0`` and ``True`` are equal): the
    union-find takes them for one node, as a dict would.
    """
    edges: list[IdTriple] = []
    values: list[Node] = []
    numbers: list[int] = []
    same: list[int] = []
    first: dict[Node, int] = {}  # value -> the first id of an equal value
    nulls = 0
    for tgd in tgds:
        variables = tuple(sorted(tgd.body.variables(), key=lambda v: v.name))
        rows = tgd.body_rows(instance, variables, stats)
        if not rows:
            continue
        if sigma is not None:
            for atom in tgd.head.atoms:
                label = atom.nre.name  # type: ignore[union-attr]
                if label not in sigma:
                    raise SchemaError(
                        f"label {label!r} is not in the alphabet {sorted(sigma)}"
                    )
        width = len(variables)
        texts = list(map(repr, chain.from_iterable(rows)))
        keys = list(zip(*[iter(texts)] * width)) if width else [()] * len(rows)
        # Equal reprs are one trigger: the first such row fires.
        first_rows = dict(zip(reversed(keys), reversed(rows)))
        order = sorted(first_rows)
        occurrences = list(chain.from_iterable(map(first_rows.__getitem__, order)))
        row_ids = range(len(values), len(values) + len(occurrences))
        values.extend(occurrences)
        numbers.extend(repeat(0, len(occurrences)))
        same.extend(map(first.setdefault, occurrences, row_ids))
        triggers, fresh = len(order), len(tgd.existentials)
        null_ids = range(len(values), len(values) + fresh * triggers)
        values.extend(repeat(None, len(null_ids)))
        numbers.extend(range(nulls + 1, nulls + len(null_ids) + 1))
        same.extend(null_ids)
        nulls += len(null_ids)
        # A head term's column: a frontier variable's ids over the triggers,
        # or an existential's fresh nulls, one per trigger.
        column = {var: row_ids[index::width] for index, var in enumerate(variables)}
        for offset, existential in enumerate(tgd.existentials):
            column[existential] = null_ids[offset::fresh]
        fired = [
            zip(column[atom.subject], repeat(atom.nre.name), column[atom.object])  # type: ignore[union-attr]
            for atom in tgd.head.atoms
        ]
        edges.extend(fired[0] if len(fired) == 1 else chain.from_iterable(zip(*fired)))
        stats.st_applications += triggers
    return edges, values, numbers, same


def _functional_closure(
    edges: Sequence[IdTriple],
    egds: Sequence[TargetEgd],
    numbers: Sequence[int],
    same: Sequence[int],
) -> dict[int, int] | None:
    """Close functional egds over the id ``edges`` with a union-find.

    Returns the merges, each merged null's id mapped to the id of the
    node its class keeps, or ``None`` when some egd is not functional
    (:func:`~repro.engine.delta._functional_profile`) or the closure
    equates two constants — both cases take the sequential fixpoint.
    Passes repeat until one unions nothing, so a merge of two keys
    unites their member groups (cascades over null keys).  Ids with one
    ``same`` entry (equal constants) are one node.
    """
    profiles: dict[str, list[bool]] = {}  # label -> [key is the target?]
    for egd in egds:
        profile = _functional_profile(egd)
        if profile is None:
            return None
        label, direction = profile
        key_at_target = direction == "in"
        if key_at_target not in profiles.setdefault(label, []):
            profiles[label].append(key_at_target)
    # One (key, member) list per profile: member groups never mix profiles.
    links: dict[tuple[str, bool], list[tuple[int, int]]] = {
        (label, side): [] for label, sides in profiles.items() for side in sides
    }
    for source, label, target in edges:
        sides = profiles.get(label)
        if sides is not None:
            for key_at_target in sides:
                links[label, key_at_target].append(
                    (target, source) if key_at_target else (source, target)
                )

    # A class that holds a constant has it as its root.
    parent = list(range(len(numbers)))
    merged: list[int] = []
    changed = True
    while changed:
        changed = False
        for pairs in links.values():
            first: dict[int, int] = {}
            for key, member in pairs:
                key = same[_find(parent, key)]
                anchor = first.get(key)
                if anchor is None:
                    first[key] = member
                    continue
                left, right = _find(parent, anchor), _find(parent, member)
                if same[left] == same[right]:
                    continue
                if not numbers[left] and not numbers[right]:
                    return None  # two constants: the replay finds the witness
                child, root = (left, right) if numbers[left] else (right, left)
                parent[child] = root
                merged.append(child)
                changed = True
    # Classes group by `same`, so equal constants share one.  Each keeps its
    # constant (the occurrence its first merge reached), else its least
    # null by label (class_representative); every other member maps to it.
    classes: dict[int, list[int]] = {}
    for ident in merged:
        root = _find(parent, ident)
        classes.setdefault(same[root], [root]).append(ident)
    keep: dict[int, int] = {}
    for members in classes.values():
        kept = min(members, key=lambda ident: (numbers[ident] > 0, str(numbers[ident])))
        keep.update((ident, kept) for ident in members if ident != kept)
    return keep


def _find(parent: list[int], ident: int) -> int:
    """The root of ``ident``'s class in ``parent``, compressing the path to it."""
    root = parent[ident]
    while parent[root] != root:
        root = parent[root]
    while parent[ident] != root:
        parent[ident], ident = root, parent[ident]
    return root


def class_representative(members: Iterable[Node]) -> Node:
    """The node an egd merge class collapses to: its constant, else its least null.

    The sequential fixpoint (:func:`~repro.engine.delta.run_egd_fixpoint`)
    merges a null into a constant and the later null into the earlier, so
    this is the node it keeps; a class holds at most one constant, or the
    chase fails.

    >>> class_representative([Null("N3"), "c1", Null("N1")])
    'c1'
    >>> class_representative([Null("N3"), Null("N10")])
    Null(label='N10')
    """
    nulls = []
    for node in members:
        if not is_null(node):
            return node
        nulls.append(node)
    return min(nulls)


def quotient_result(
    alphabet: Iterable[str] | None,
    edges: Iterable[Triple],
    classes: Iterable[Collection[Node]] | None,
    egds: Sequence[TargetEgd],
    stats: ChaseStats,
) -> ChaseResult:
    """Materialise the egd quotient of the base ``edges`` as a chase result.

    Every node of a class in ``classes`` becomes its
    :func:`class_representative`, and the relabelled edges are loaded once,
    in order; with any merge the journal is that final edge list, so the
    graph is destructive (no fingerprint), as after ``rename_node``.
    ``classes=None`` means the fixpoint is not a union-find closure or
    fails: the un-merged edges then replay through
    :func:`_egd_fixpoint_on_graph`, whose violation order gives the exact
    failure witness and failed graph.
    """
    if classes is None:
        with span("chase.build"):
            graph = GraphDatabase(alphabet, edges=edges)
        with span("chase.egd"):
            return _egd_fixpoint_on_graph(graph, list(egds), stats)
    with span("chase.build"):
        rename: dict[Node, Node] = {}
        for members in classes:
            representative = class_representative(members)
            for node in members:
                if node != representative:
                    rename[node] = representative
        if rename:
            get = rename.get
            edges = [(get(s, s), label, get(t, t)) for s, label, t in edges]
        graph = GraphDatabase.from_edges(alphabet, edges, destructive=bool(rename))
    return ChaseResult(graph=graph, failed=False, failure_witness=None, stats=stats)


def _egd_fixpoint_on_graph(
    graph: GraphDatabase, egds: list[TargetEgd], stats: ChaseStats
) -> ChaseResult:
    """Run the sequential egd fixpoint on a graph with null nodes, in place.

    One merge at a time, least violation first: ``rename_node`` rewrites
    the merged node's edges (O(degree) through the incident-edge
    indexes) while an :class:`~repro.engine.delta.EgdViolationQueue`
    keeps the violation set current.  The caller hands over ``graph``;
    the result holds it, merged, or as it stood when two constants met.
    """
    queue = EgdViolationQueue(egds, graph, stats)
    failed, witness = run_egd_fixpoint(queue, stats)
    return ChaseResult(
        graph=graph, failed=failed, failure_witness=witness, stats=stats
    )
