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
relabel.  :func:`_fire_tgd` fires one tgd's triggers over its body rows
into ``(id, label, id)`` edges; the s-t phase gives each constant
occurrence an id that keeps its row's object (equal constants map to one
closure node) and each existential the next id and null number.
Functional egds (every egd of the scale workload families) close in
:func:`_close`, a worklist congruence closure on a ``parent`` list whose
one policy is the root rank: here a class keeps its constant, else its
least null by label.  Only the nulls that survive become
:class:`~repro.patterns.pattern.Null` objects; the edge list is relabelled
once and bulk-loaded into one storage backend.  Other egds, and every run
that equates two constants, load every null and replay the un-merged edges
through the sequential :class:`~repro.engine.delta.EgdViolationQueue`
fixpoint, so counters, null names and failure witnesses are those of the
edge-at-a-time chase that ``tests/oracles/relational_chase.py`` keeps as
the differential oracle.

:class:`~repro.engine.incremental.IncrementalChase` is this chase plus
retained state: it fires through :func:`_fire_tgd` (all rows at
bootstrap, each batch's delta rows after), closes through :func:`_close`
with its own rank, and materialises its result through
:func:`_chase_fired`.
"""

from __future__ import annotations

from itertools import chain, compress, count, repeat
from operator import itemgetter
from typing import Callable, Hashable, Iterable, Sequence

from repro.chase.result import ChaseResult, ChaseStats
from repro.engine.delta import (
    EgdViolationQueue,
    _functional_profile,
    run_egd_fixpoint,
)
from repro.errors import NotSupportedError
from repro.graph.classes import is_single_symbol
from repro.graph.database import GraphDatabase
from repro.mappings.egd import TargetEgd
from repro.mappings.stt import SourceToTargetTgd
from repro.patterns.pattern import Null
from repro.relational.instance import RelationalInstance
from repro.telemetry import fold_stats, span

Node = Hashable
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
    stats = ChaseStats()
    with span("chase.relational", tgds=len(tgds), egds=len(egd_list)):
        with span("chase.st"):
            edges, values, numbers, same = _fire_st_tgds(tgds, instance, stats)
        result = _chase_fired(alphabet, edges, values, numbers, same, egd_list, stats)
    fold_stats("chase", stats)
    return result


def _chase_fired(
    alphabet: Iterable[str] | None,
    edges: Sequence[IdTriple],
    values: list[Node],
    numbers: Sequence[int],
    same: Sequence[int],
    egds: Sequence[TargetEgd],
    stats: ChaseStats,
) -> ChaseResult:
    """Close ``egds`` over fired id ``edges`` and load the chased graph.

    Ids are as :func:`_fire_st_tgds` makes them; ``values`` is relabelled
    in place.  Functional egds close on ids (:func:`_functional_merges`),
    and only the nulls that survive the merges become
    :class:`~repro.patterns.pattern.Null` objects; with any merge the
    journal is the final edge list, so the graph is destructive (no
    fingerprint).  Other egds, and a closure that meets two constants,
    load every null and replay the un-merged edges through the sequential
    fixpoint, whose violation order gives the exact failure witness and
    failed graph.
    """
    with span("chase.egd"):
        keep = _functional_merges(edges, egds, numbers, same)
    merged = keep or {}
    with span("chase.build"):
        # Null objects only for the nulls that survive the merges.
        for ident in compress(count(), numbers):
            if ident not in merged:
                values[ident] = Null(f"N{numbers[ident]}")
        for ident, representative in merged.items():
            values[ident] = values[representative]
        graph = GraphDatabase.from_edges(
            alphabet,
            [(values[s], lab, values[t]) for s, lab, t in edges],
            destructive=bool(merged),
        )
    if keep is None:
        # Every null is a node: the sequential fixpoint finds the witness.
        with span("chase.egd"):
            return _egd_fixpoint_on_graph(graph, list(egds), stats)
    stats.egd_firings += len(merged)
    stats.null_merges += len(merged)
    stats.rounds += len(merged) + 1
    return ChaseResult(graph=graph, failed=False, failure_witness=None, stats=stats)


def _fire_st_tgds(
    tgds: Sequence[SourceToTargetTgd], instance: RelationalInstance, stats: ChaseStats
) -> tuple[list[IdTriple], list[Node], list[int], list[int]]:
    """Fire every s-t tgd trigger into id edges, in firing order.

    Tgds fire in declaration order, each through :func:`_fire_tgd` over
    all of its body rows.  The list may repeat an edge: loading keeps its
    first occurrence, and raises the backend's
    :class:`~repro.errors.SchemaError` at the first edge whose label is
    outside the alphabet, as ``add_edge`` would.

    Id ``i`` is the constant ``values[i]`` (``numbers[i] == 0``) or the
    null ``N{numbers[i]}``.  Every constant occurrence keeps its own id, so
    each edge relabels to its row's own object, and ``same[i]`` names the
    first id of an equal value (``1``, ``1.0`` and ``True`` are equal): the
    closure takes them for one node, as a dict would.
    """
    edges: list[IdTriple] = []
    values: list[Node] = []
    numbers: list[int] = []
    same: list[int] = []
    first: dict[Node, int] = {}  # value -> the first id of an equal value
    nulls = 0

    def occurrence_ids(occurrences: list[Node]) -> range:
        ids = range(len(values), len(values) + len(occurrences))
        values.extend(occurrences)
        numbers.extend(repeat(0, len(occurrences)))
        same.extend(map(first.setdefault, occurrences, ids))
        return ids

    def null_ids(width: int, keys: list[tuple]) -> range:
        nonlocal nulls
        ids = range(len(values), len(values) + width * len(keys))
        values.extend(repeat(None, len(ids)))
        numbers.extend(range(nulls + 1, nulls + len(ids) + 1))
        same.extend(ids)
        nulls += len(ids)
        return ids

    for tgd in tgds:
        rows = tgd.body_rows(instance, tgd.body.variables(), stats)
        keys, _, fired = _fire_tgd(_Firing(tgd), rows, occurrence_ids, null_ids)
        edges.extend(fired)
        stats.st_applications += len(keys)
    return edges, values, numbers, same


class _Firing:
    """A tgd's firing layout, compiled once per chase: ``order`` reads a
    trigger key in variable-name order (``None``: the body's order is
    that), ``frontier`` holds the frontier's row positions, and ``heads``
    the head atoms over columns, the frontier's first."""

    __slots__ = ("width", "order", "frontier", "fresh", "heads")

    def __init__(self, tgd: SourceToTargetTgd):
        variables = tgd.body.variables()
        by_name = sorted(range(len(variables)), key=lambda i: variables[i].name)
        self.width = len(variables)
        self.order = None if by_name == sorted(by_name) else itemgetter(*by_name)
        self.frontier = [i for i, var in enumerate(variables) if var in tgd.frontier]
        self.fresh = len(tgd.existentials)
        column = {variables[i]: k for k, i in enumerate(self.frontier)}
        for k, var in enumerate(tgd.existentials, len(self.frontier)):
            column[var] = k
        self.heads = [  # fragment-checked: every head NRE is a Label
            (column[atom.subject], atom.nre.name, column[atom.object])  # type: ignore[union-attr]
            for atom in tgd.head.atoms
        ]


def _fire_tgd(
    firing: _Firing,
    rows: Sequence[tuple],
    value_ids: Callable[[list[Node]], Sequence[int]],
    null_ids: Callable[[int, list[tuple]], Sequence[int]],
) -> tuple[list[tuple], list[tuple], list[IdTriple]]:
    """Fire a tgd's triggers over its body ``rows`` into id edges.

    ``rows`` list the body variables' values in ``tgd.body.variables()``
    order.  A trigger's key is the ``repr`` of its row's values: rows with
    equal keys are one trigger (the first such row fires), and triggers
    fire sorted by their keys read in variable-name order — the oracle's
    firing order, which null numbering follows.  ``value_ids`` gives the
    ids of the fired rows' frontier values, row after row, and
    ``null_ids(width, keys)`` the existentials' ids, ``width`` per fired
    key in order.

    Returns the fired keys, their rows and the edges the head emits,
    ``len(tgd.head.atoms)`` per trigger in trigger order (an edge may
    repeat).
    """
    width, frontier, fresh = firing.width, firing.frontier, firing.fresh
    texts = list(map(repr, chain.from_iterable(rows)))
    keys = list(zip(*[iter(texts)] * width)) if width else [()] * len(rows)
    first_rows = dict(zip(reversed(keys), reversed(rows)))
    order = sorted(first_rows, key=firing.order)
    fired = list(map(first_rows.__getitem__, order))
    # Only the frontier's values reach an edge.
    row_ids = value_ids([row[index] for row in fired for index in frontier])
    nulls = null_ids(fresh, order)
    # A column: a frontier variable's ids over the triggers, or an
    # existential's fresh nulls, one per trigger.
    columns = [row_ids[k::len(frontier)] for k in range(len(frontier))]
    columns += [nulls[k::fresh] for k in range(fresh)]
    heads = [
        zip(columns[subject], repeat(label), columns[target])
        for subject, label, target in firing.heads
    ]
    edges = heads[0] if len(heads) == 1 else chain.from_iterable(zip(*heads))
    return order, fired, list(edges)


Sides = dict[str, list[tuple[int, bool]]]


def _functional_sides(egds: Iterable[TargetEgd]) -> Sides | None:
    """Each label's functional egd profiles: ``label -> [(index, key side)]``.

    A profile (:func:`~repro.engine.delta._functional_profile`) is a label
    and whether the key is the edge's target; equal profiles are one, and
    profiles are numbered in egd order.  ``None`` when some egd is not
    functional.
    """
    sides: Sides = {}
    profiles = 0
    for egd in egds:
        profile = _functional_profile(egd)
        if profile is None:
            return None
        label, direction = profile
        key_at_target = direction == "in"
        entries = sides.setdefault(label, [])
        if all(side != key_at_target for _, side in entries):
            entries.append((profiles, key_at_target))
            profiles += 1
    return sides


def _functional_links(
    edges: Iterable[IdTriple], sides: Sides
) -> list[tuple[int, int, int]]:
    """The ``(profile, key, member)`` links of ``edges`` under ``sides``."""
    return [
        (index, target, source) if key_at_target else (index, source, target)
        for source, label, target in edges
        for index, key_at_target in sides.get(label, ())
    ]


def _close(
    links: Iterable[tuple[int, int, int]],
    parent: list[int],
    members: dict[int, list[int]],
    anchors: list[dict[int, int]],
    constant: Sequence[bool],
    rank: Callable[[int], object],
) -> tuple[list[int] | None, int]:
    """Union ``links`` into the partition ``parent``, closing under congruence.

    Each link puts a member in its key's group, per profile: a key
    class's group is kept as one anchor member (``anchors[profile]``, by
    class root), and every other member unites with the anchor.  When two
    classes unite their anchors unite too, so a merge of two keys unites
    their groups (cascades over null keys).  ``members`` maps each root of
    a class of more than one id to the class.  A class's root is its
    constant, else its null of least ``rank``, so the roots do not depend
    on the union order.

    Returns the ids whose root changed (with repeats) and the number of
    unions, or ``None`` for the ids when two constants meet: the chase
    fails.
    """
    pending: list[tuple[int, int]] = []
    for index, key, member in links:
        anchor = anchors[index].setdefault(_find(parent, key), member)
        if anchor != member:
            pending.append((anchor, member))
    moved: list[int] = []
    merges = 0
    while pending:
        left, right = pending.pop()
        left, right = _find(parent, left), _find(parent, right)
        if left == right:
            continue
        if constant[left] and constant[right]:
            return None, merges
        if constant[right] or (not constant[left] and rank(right) < rank(left)):
            left, right = right, left
        parent[right] = left
        merges += 1
        absorbed = members.pop(right, None) or [right]
        members.setdefault(left, [left]).extend(absorbed)
        moved.extend(absorbed)
        for table in anchors:
            anchor = table.pop(right, None)
            if anchor is not None:
                kept = table.setdefault(left, anchor)
                if kept != anchor:
                    pending.append((kept, anchor))
    return moved, merges


def _functional_merges(
    edges: Sequence[IdTriple],
    egds: Sequence[TargetEgd],
    numbers: Sequence[int],
    same: Sequence[int],
) -> dict[int, int] | None:
    """Close functional egds over the fired id ``edges`` with :func:`_close`.

    Returns the merges, each merged null's id mapped to the id of its
    class's root — its constant, else its least null by label, the node
    the sequential fixpoint keeps (it merges a null into a constant and
    the later null into the earlier) — or ``None`` when some egd is not
    functional or the closure equates two constants.  Links join
    ``same`` ids, so equal constants are one node.
    """
    sides = _functional_sides(egds)
    if sides is None:
        return None
    members: dict[int, list[int]] = {}
    links = _functional_links(
        ((same[s], label, same[t]) for s, label, t in edges if label in sides), sides
    )
    moved, _ = _close(
        links,
        list(range(len(numbers))),
        members,
        [{} for entries in sides.values() for _ in entries],
        [not number for number in numbers],
        lambda ident: str(numbers[ident]),
    )
    if moved is None:
        return None  # two constants: the replay finds the witness
    return {
        ident: root for root, group in members.items() for ident in group if ident != root
    }


def _find(parent: list[int], ident: int) -> int:
    """The root of ``ident``'s class in ``parent``, compressing the path to it."""
    root = parent[ident]
    while parent[root] != root:
        root = parent[root]
    while parent[ident] != root:
        parent[ident], ident = root, parent[ident]
    return root


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
