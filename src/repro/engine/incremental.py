"""Incremental chase maintenance under live insert/delete streams.

The batch pipeline chases every instance from scratch: any mutation bumps
the instance fingerprint and discards all warm state.  This module keeps a
chased solution *live* instead.  :class:`IncrementalChase` holds three
layers of state for one data-exchange setting and one mutable source
instance:

* the **base layer** — the set of fired s-t tgd triggers, indexed by the
  facts they join over (for retraction) and by the target edges they emit
  (exact provenance: a target edge exists iff some live trigger supports
  it).  Each node gets a dense int id when its first edge is born, and
  gives it back for reuse once a batch leaves it with no edge; base
  edges are ``(id, label, id)`` triples with an incidence index by id,
  and every functional egd profile keeps its key groups (key id → member
  ids);
* the **merged layer** — the egd fixpoint of the base graph.  When every
  egd is functional (``(x1, L, k), (x2, L, k) -> x1 = x2`` or its
  mirror; every generator family and Example 3.1), the least merge
  partition is a congruence closure on a union-find ``parent`` list over
  the ids: members of one key class unite, and when two keys unite their
  groups' anchors unite too.  A batch that removes no functional edge
  extends the live partition.  Any other batch re-closes on ids, inside
  the components of the functional-link graph that its removed
  functional edges touch.  Two constants meeting fail the chase.  The merged
  :class:`~repro.graph.database.GraphDatabase` that queries read is
  patched with per-image support counts: only the edges of ids whose
  representative changed move, plus the batch's net added and removed
  edges, and a node goes when its merged degree reaches 0.  Other egds
  (word and cascade bodies) rebuild the merged layer with the sequential
  :class:`~repro.engine.delta.EgdViolationQueue` fixpoint on each batch
  that changes an edge, as
  :func:`~repro.chase.relational_chase.chase_relational` does;
* the **answer layer** — certain answers per query, cached until a batch
  changes a fact.  Any such batch clears the cache, and the next read
  recomputes the query with one
  :meth:`~repro.engine.query.QueryEngine.answers_over` on the merged
  graph.  A patch over the nodes a batch touched would cost about as
  much: on generator-shaped tenants their undirected cone is nearly the
  whole graph.

The contract, enforced by ``tests/test_engine/test_incremental.py``, is
*byte-identity with the from-scratch oracle*: after any update stream,
:meth:`IncrementalChase.chase_result` materialises the same graph (same
oracle null names, same failure witness) as
:func:`~repro.chase.relational_chase.chase_relational` on the current
instance, and :meth:`IncrementalChase.certain_answers` returns the same
answer sets.  The supported fragment is the Section 3.1 relational chase
fragment: single-symbol tgd heads, and any egds.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import chain
from typing import TYPE_CHECKING, Callable, Hashable, Iterable, Iterator, Mapping

from repro.chase.relational_chase import (
    _check_fragment,
    _egd_fixpoint_on_graph,
    _find,
    quotient_result,
)
from repro.chase.result import ChaseResult, ChaseStats
from repro.engine.delta import _functional_profile
from repro.engine.query import default_engine
from repro.errors import NotSupportedError, SchemaError
from repro.graph.backends import DictBackend
from repro.graph.database import GraphDatabase
from repro.graph.nre import NRE
from repro.telemetry import fold_stats, span
from repro.patterns.pattern import Null, is_null
from repro.join import Plan
from repro.relational.evaluate import relational_body
from repro.relational.instance import RelationalInstance
from repro.relational.query import is_variable

if TYPE_CHECKING:  # annotation-only imports; avoids import cycles
    from repro.core.certain import CertainAnswers
    from repro.core.setting import DataExchangeSetting
    from repro.mappings.stt import SourceToTargetTgd

Node = Hashable
Fact = tuple[str, tuple]
Update = tuple[str, str, tuple]
IdTriple = tuple[int, str, int]

_UNSET = object()


@dataclass
class UpdateStats:
    """Cumulative counters for one :class:`IncrementalChase`'s lifetime."""

    batches: int = 0
    """How many update batches were applied."""

    inserts_applied: int = 0
    """Insert operations that actually added a fact."""

    deletes_applied: int = 0
    """Delete operations that actually removed a fact."""

    noops: int = 0
    """Operations that found the fact already in its target state."""

    triggers_added: int = 0
    """s-t tgd triggers fired incrementally (seeded delta joins)."""

    triggers_retracted: int = 0
    """s-t tgd triggers retracted because a supporting fact was deleted."""

    egd_merges: int = 0
    """Class unions: union-find unions of the functional closure (every
    union of a re-close counts again), or merges of a sequential rebuild."""

    fast_deletes: int = 0
    """Net removed base edges applied without a re-close (the batch
    removed no functional edge)."""

    merged_rebuilds: int = 0
    """Merged layers built from scratch: bootstrap, a deletion out of a
    failed state, and every edge-changing batch under non-functional egds."""

    recloses: int = 0
    """Batches whose deletions of functional edges re-closed the partition
    on ids."""

    ids_reclosed: int = 0
    """Ids reset to singletons by those re-closes."""

    edges_moved: int = 0
    """Base edges whose merged image moved because an endpoint's
    representative changed."""

    answer_patches: int = 0
    """Retired: always 0.  Cached answers are never patched; every batch
    that changes a fact invalidates them (``answer_invalidations``)."""

    answer_invalidations: int = 0
    """Batches that dropped a non-empty certain-answer cache."""

    def summary(self) -> dict[str, int]:
        """Return the counters as a plain dict for reporting.

        >>> UpdateStats(batches=2).summary()["batches"]
        2
        """
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def as_dict(self) -> dict[str, int]:
        """Alias of :meth:`summary` — the uniform stats-adapter spelling.

        >>> UpdateStats(batches=2).as_dict()["batches"]
        2
        """
        return self.summary()


# --------------------------------------------------------------------- #
# Trigger records
# --------------------------------------------------------------------- #


class _Trigger:
    """One fired s-t tgd trigger with its exact provenance.

    ``key`` reproduces the oracle's dedup key (reprs of all body-variable
    values); ``sort_key`` its firing order; ``facts`` the source facts the
    body joined over (retraction index); ``edges`` the target edges the
    head emitted, as node triples until the trigger is added and as
    distinct id triples after; ``nulls`` the internally named fresh nulls,
    one per existential, deterministic in ``key`` so delete-then-reinsert
    reproduces the same base graph bit for bit.
    """

    __slots__ = ("tgd_index", "key", "sort_key", "facts", "edges", "nulls")

    def __init__(self, tgd_index, key, sort_key, facts, edges, nulls):
        self.tgd_index = tgd_index
        self.key = key
        self.sort_key = sort_key
        self.facts = facts
        self.edges = edges
        self.nulls = nulls


def _trigger_maker(
    tgd_index: int, tgd: "SourceToTargetTgd"
) -> Callable[[tuple, tuple], _Trigger]:
    """Compile ``tgd``'s trigger layout over its body rows.

    The returned function builds the :class:`_Trigger` of one body row
    (values in ``tgd.body.variables()`` order) from the row and its key.
    """
    variables = tgd.body.variables()
    names = [var.name for var in variables]
    # Head and fact terms as indexes into the row followed by the nulls.
    where = {var: i for i, var in enumerate(variables)}
    where.update(
        (var, len(variables) + k) for k, var in enumerate(tgd.existentials)
    )
    facts = [
        (atom.relation, [(True, where[t]) if is_variable(t) else (False, t)
                         for t in atom.terms])
        for atom in tgd.body.atoms
    ]
    edges = [  # fragment-checked: every head NRE is a Label
        (where[atom.subject], atom.nre.name, where[atom.object])  # type: ignore
        for atom in tgd.head.atoms
    ]
    prefixes = [f"inc:{tgd_index}:{k}:" for k in range(len(tgd.existentials))]

    def make(key: tuple, row: tuple) -> _Trigger:
        dedupe = key[1]
        joined = "\x1f".join(dedupe)
        nulls = [Null(prefix + joined) for prefix in prefixes]
        values = (*row, *nulls)
        return _Trigger(
            tgd_index,
            key,
            tuple(sorted(zip(names, dedupe))),
            tuple(
                (relation, tuple([values[t] if var else t for var, t in terms]))
                for relation, terms in facts
            ),
            tuple((values[s], label, values[t]) for s, label, t in edges),
            nulls,
        )

    return make


# --------------------------------------------------------------------- #
# The incremental chase
# --------------------------------------------------------------------- #


class IncrementalChase:
    """A live chased solution maintained under an insert/delete stream.

    Construct once per (setting, instance); feed update batches through
    :meth:`apply_updates`; read :meth:`certain_answers` between batches.
    Answers are byte-identical to re-chasing the current instance from
    scratch.  An N-operation batch fires only the triggers it touches;
    under functional egds it extends the union-find partition, or
    re-closes the components around the functional edges it deletes, and
    moves only the merged edges of ids whose representative changed.

    >>> from repro.scenarios.figures import example31_setting
    >>> from repro.scenarios.flights import flights_instance
    >>> live = IncrementalChase(example31_setting(), flights_instance())
    >>> summary = live.apply_updates([("insert", "Hotel", ("02", "hz"))])
    >>> (summary["inserts"], summary["failed"])
    (1, False)
    >>> from repro.graph.parser import parse_nre
    >>> sorted(live.certain_answers(parse_nre("f . h")).answers)
    [('c1', 'hx'), ('c1', 'hy'), ('c3', 'hx'), ('c3', 'hz')]
    >>> _ = live.apply_updates([("delete", "Hotel", ("02", "hz"))])
    >>> sorted(live.certain_answers(parse_nre("f . h")).answers)
    [('c1', 'hx'), ('c1', 'hy'), ('c3', 'hx')]
    """

    def __init__(
        self,
        setting: "DataExchangeSetting",
        instance: RelationalInstance | None = None,
        engine=None,
    ):
        fragment = setting.fragment()
        _check_fragment(setting.st_tgds)
        if fragment.has_sameas or fragment.has_general_tgds:
            raise NotSupportedError(
                "incremental maintenance covers the relational-chase fragment "
                "(s-t tgds + egds); sameAs and general target tgds are not supported"
            )
        self.setting = setting
        self._tgds = list(setting.st_tgds)
        self._egds = list(setting.egds())
        # Functional egds as (label, key is the edge target?) profiles;
        # label -> [(profile index, key is the target)].
        found = [_functional_profile(egd) for egd in self._egds]
        self._functional = None not in found
        profiles = list(dict.fromkeys(
            (label, direction == "in") for label, direction in found
        )) if self._functional else []
        self._sides: dict[str, list[tuple[int, bool]]] = {}
        for index, (label, key_at_target) in enumerate(profiles):
            self._sides.setdefault(label, []).append((index, key_at_target))
        self.instance = (
            instance.copy()
            if instance is not None
            else RelationalInstance(setting.source_schema)
        )
        self._engine = engine
        self._bodies = [relational_body(tgd.body, self.instance) for tgd in self._tgds]
        self._makers = [
            _trigger_maker(index, tgd) for index, tgd in enumerate(self._tgds)
        ]
        self.stats = UpdateStats()
        # --- base layer: triggers, interned nodes and id edges ---
        self._triggers: dict[tuple, _Trigger] = {}
        self._fact_triggers: dict[Fact, set[tuple]] = {}
        self._ids: dict[Node, int] = {}
        self._nodes: list[Node] = []
        self._constant: list[bool] = []
        self._incident: list[set[IdTriple]] = []
        self._dead: set[int] = set()  # ids that lost their last edge
        self._free: list[int] = []  # ids of dead nodes, for reuse
        self._edge_support: dict[IdTriple, int] = {}  # edge -> live triggers
        # per profile: key id -> member ids
        self._groups: list[dict[int, set[int]]] = [{} for _ in profiles]
        # --- merged layer: the partition and the graph queries read ---
        self._parent: list[int] = []
        self._members: dict[int, list[int]] = {}  # root -> class, if > 1 id
        # per profile: class root -> the member its group's members unite with
        self._anchors: list[dict[int, int]] = [{} for _ in profiles]
        self._rep: list[int] = []  # the root each id's merged edges sit on
        self._image_count: dict[IdTriple, int] = {}
        self._merged_degree: dict[int, int] = {}
        self._merged = self._empty_graph()
        self._failed = False
        self._witness_cache: object = _UNSET
        # --- answer layer ---
        self._answers: dict[NRE, frozenset] = {}
        self._bootstrap()

    # ------------------------------------------------------------------ #
    # Public surface
    # ------------------------------------------------------------------ #

    @property
    def failed(self) -> bool:
        """Whether the chase of the current instance fails (no solution)."""
        return self._failed

    @property
    def edge_count(self) -> int:
        """Edges held by the base and merged layers together."""
        return len(self._edge_support) + self._merged.edge_count()

    def apply_updates(self, updates: Iterable[Update | Mapping]) -> dict:
        """Apply one batch of updates and repair all three state layers.

        ``updates`` is an iterable of ``(op, relation, values)`` tuples or
        ``{"op": ..., "relation": ..., "tuple": ...}`` mappings, with op
        ``"insert"`` or ``"delete"``, applied in order.  The whole batch is
        validated (ops, relations, arities) before any state changes, so a
        malformed batch raises without corrupting the live solution.
        Returns a summary dict with the batch's ``inserts``/``deletes``/
        ``noops`` counts and the resulting ``failed`` flag.
        """
        with span("update.apply"):
            counts = self._apply_batch(updates)
        fold_stats("update", self.stats)
        return counts

    def _apply_batch(self, updates: Iterable[Update | Mapping]) -> dict:
        batch = [self._normalize(update) for update in updates]
        for _, relation, values in batch:
            symbol = self.instance.schema[relation]
            if len(values) != symbol.arity:
                raise SchemaError(
                    f"tuple {values!r} has arity {len(values)}, "
                    f"but {symbol} expects {symbol.arity}"
                )
        self._witness_cache = _UNSET
        counts = {"inserts": 0, "deletes": 0, "noops": 0}
        before: dict[Fact, bool] = {}
        for op, relation, values in batch:
            fact = (relation, values)
            if fact not in before:
                before[fact] = self.instance.contains(relation, values)
            if op == "insert":
                if self.instance.contains(relation, values):
                    counts["noops"] += 1
                else:
                    self.instance.add(relation, values)
                    counts["inserts"] += 1
            else:
                if self.instance.remove(relation, values):
                    counts["deletes"] += 1
                else:
                    counts["noops"] += 1
        self.stats.batches += 1
        self.stats.inserts_applied += counts["inserts"]
        self.stats.deletes_applied += counts["deletes"]
        self.stats.noops += counts["noops"]
        added_facts = {
            fact
            for fact, present in before.items()
            if not present and self.instance.contains(*fact)
        }
        removed_facts = {
            fact
            for fact, present in before.items()
            if present and not self.instance.contains(*fact)
        }
        self._update_merged(*self._update_base(added_facts, removed_facts))
        self._recycle()
        if (added_facts or removed_facts) and self._answers:
            self.stats.answer_invalidations += 1
            self._answers.clear()
        counts["failed"] = self._failed
        return counts

    def certain_answers(self, query: NRE, engine=None) -> "CertainAnswers":
        """Return the certain answers of ``query`` on the live solution.

        The merged graph is a universal solution of the current instance
        (when one exists), so certain answers are its query answers
        restricted to the source active domain — byte-identical to the
        batch pipeline's result on the same instance.  Answers are cached
        per query until the next batch that changes a fact.
        """
        from repro.core.certain import CertainAnswers

        if self._failed:
            return CertainAnswers(
                answers=frozenset(),
                no_solution=True,
                solutions_examined=0,
                method="incremental(no-solution)",
            )
        engine = engine if engine is not None else self._engine
        if engine is None:
            engine = default_engine()
        answers = self._answers.get(query)
        if answers is None:
            domain = self.instance.active_domain()
            answers = engine.answers_over(self._merged, query, domain)
            self._answers[query] = answers
        return CertainAnswers(
            answers=answers,
            no_solution=False,
            solutions_examined=1,
            method="incremental-universal",
        )

    def failure_witness(self) -> "tuple[Node, Node] | None":
        """Return the oracle's failure witness, or ``None`` while solvable."""
        if not self._failed:
            return None
        if self._witness_cache is _UNSET:
            self._witness_cache = self.chase_result().failure_witness
        return self._witness_cache  # type: ignore[return-value]

    def chase_result(self) -> ChaseResult:
        """Materialise the live solution as a from-scratch chase result.

        The base edges, with every internal null renamed to the name the
        oracle (:func:`~repro.chase.relational_chase.chase_relational`)
        would have invented, go through the chase's own
        :func:`~repro.chase.relational_chase.quotient_result`: under
        functional egds each union-find class collapses to the same
        representative, so node sets, edge sets and null labels are
        byte-identical; on failure, or under other egds, the base graph
        replays the sequential egd fixpoint, reproducing the failure
        witness exactly.
        """
        names = self._oracle_names()
        nodes = [names.get(node, node) for node in self._nodes]
        stats = ChaseStats(st_applications=len(self._triggers))
        edges = [(nodes[s], label, nodes[t]) for s, label, t in self._edge_support]
        classes = None
        if self._functional and not self._failed:
            classes = [
                [nodes[ident] for ident in members]
                for members in self._members.values()
            ]
        return quotient_result(
            set(self.setting.alphabet), edges, classes, self._egds, stats
        )

    # ------------------------------------------------------------------ #
    # Base layer
    # ------------------------------------------------------------------ #

    def _normalize(self, update) -> Update:
        """Coerce one update to ``(op, relation_name, values_tuple)``."""
        if isinstance(update, Mapping):
            op = update.get("op")
            relation = update.get("relation")
            values = update.get("tuple", update.get("values"))
        else:
            op, relation, values = update
        if op not in ("insert", "delete"):
            raise ValueError(f"unknown update op: {op!r}")
        if not isinstance(relation, str):
            relation = relation.name
        if values is None or isinstance(values, str):
            raise ValueError(f"update tuple must be a sequence, got {values!r}")
        return op, relation, tuple(values)

    def _update_base(
        self, added_facts: set[Fact], removed_facts: set[Fact]
    ) -> tuple[set[IdTriple], set[IdTriple]]:
        """Retract and fire triggers; return net (removed, added) edges."""
        removed_edges: list[IdTriple] = []
        dying: set[tuple] = set()
        for fact in removed_facts:
            dying |= self._fact_triggers.get(fact, set())
        for key in sorted(dying):
            removed_edges += self._remove_trigger(self._triggers.pop(key))
        added_edges: list[IdTriple] = []
        plans: dict[tuple[int, int], Plan] = {}
        for fact in sorted(added_facts, key=repr):
            for trigger in self._seeded_triggers(fact, plans):
                added_edges += self._add_trigger(trigger)
        removed_set, added_set = set(removed_edges), set(added_edges)
        return removed_set - added_set, added_set - removed_set

    def _seeded_triggers(
        self, fact: Fact, plans: dict[tuple[int, int], Plan]
    ) -> Iterator[_Trigger]:
        """The triggers not yet fired whose body can use the added ``fact``.

        Each body atom over the fact's relation is pinned to it in turn,
        tgd by tgd; ``plans`` keeps each (tgd, atom) plan for the batch.
        A row whose trigger key is known builds no record: the consumer
        adds each yielded trigger before the search resumes.
        """
        relation, values = fact
        triggers = self._triggers
        for tgd_index, body in enumerate(self._bodies):
            for atom_index, (access, _) in enumerate(body.atoms):
                if access.relation != relation:
                    continue
                plan = plans.get((tgd_index, atom_index))
                if plan is None:
                    plan = plans[tgd_index, atom_index] = body.plan(pinned=atom_index)
                start = plan.pin(values)
                if start is None:
                    continue
                for row in plan.extend(start):
                    key = (tgd_index, tuple(map(repr, row)))
                    if key not in triggers:
                        yield self._makers[tgd_index](key, row)

    def _intern(self, node: Node) -> int:
        """The id of ``node``, taking a freed id or the next one on first sight."""
        ident = self._ids.get(node)
        if ident is None:
            if self._free:
                ident = self._free.pop()
                self._nodes[ident] = node
                self._constant[ident] = not is_null(node)
            else:
                ident = len(self._nodes)
                self._nodes.append(node)
                self._constant.append(not is_null(node))
                self._incident.append(set())
            self._ids[node] = ident
        elif not self._incident[ident]:
            self._nodes[ident] = node  # reborn: keep the live object
        return ident

    def _recycle(self) -> None:
        """Free the ids of the nodes a batch left without a base edge.

        The merged layer is up to date, so each such id is a singleton
        with no merged edge; a failed layer is rebuilt from every id
        before it is read again.
        """
        for ident in self._dead:
            if not self._incident[ident]:
                del self._ids[self._nodes[ident]]
                self._nodes[ident] = None
                self._free.append(ident)
        self._dead.clear()

    def _add_trigger(self, trigger: _Trigger) -> list[IdTriple]:
        """Register ``trigger``; return the base edges it newly created."""
        self._triggers[trigger.key] = trigger
        self.stats.triggers_added += 1
        for fact in set(trigger.facts):
            self._fact_triggers.setdefault(fact, set()).add(trigger.key)
        intern = self._intern
        trigger.edges = tuple(dict.fromkeys(
            (intern(source), label, intern(target))
            for source, label, target in trigger.edges
        ))
        support, incident = self._edge_support, self._incident
        born: list[IdTriple] = []
        for edge in trigger.edges:
            count = support.get(edge)
            if count is not None:
                support[edge] = count + 1
                continue
            support[edge] = 1
            born.append(edge)
            source, label, target = edge
            incident[source].add(edge)
            incident[target].add(edge)
            for index, key_at_target in self._sides.get(label, ()):
                key, member = (target, source) if key_at_target else (source, target)
                self._groups[index].setdefault(key, set()).add(member)
        return born

    def _remove_trigger(self, trigger: _Trigger) -> list[IdTriple]:
        """Unregister ``trigger``; return the base edges that died with it."""
        self.stats.triggers_retracted += 1
        for fact in set(trigger.facts):
            keys = self._fact_triggers.get(fact)
            if keys is not None:
                keys.discard(trigger.key)
                if not keys:
                    del self._fact_triggers[fact]
        support, incident = self._edge_support, self._incident
        died: list[IdTriple] = []
        for edge in trigger.edges:
            count = support[edge] - 1
            if count:
                support[edge] = count
                continue
            del support[edge]
            died.append(edge)
            source, label, target = edge
            incident[source].discard(edge)
            incident[target].discard(edge)
            if not incident[source]:
                self._dead.add(source)
            if not incident[target]:
                self._dead.add(target)
            for index, key_at_target in self._sides.get(label, ()):
                key, member = (target, source) if key_at_target else (source, target)
                group = self._groups[index][key]
                group.discard(member)
                if not group:
                    del self._groups[index][key]
        return died

    # ------------------------------------------------------------------ #
    # Merged layer
    # ------------------------------------------------------------------ #

    def _bootstrap(self) -> None:
        """Fire every trigger of the initial instance, then build the quotient."""
        for tgd_index, body in enumerate(self._bodies):
            for row in body.rows():
                key = (tgd_index, tuple(map(repr, row)))
                if key not in self._triggers:
                    self._add_trigger(self._makers[tgd_index](key, row))
        self._rebuild_merged()

    def _update_merged(
        self, net_removed: set[IdTriple], net_added: set[IdTriple]
    ) -> None:
        """Bring the merged layer up to a batch's net edge delta."""
        if self._failed:
            # Failure is insert-monotone: adding facts can never turn a
            # failing chase into a succeeding one, so the (stale) merged
            # layer stays parked until a deletion forces a rebuild.
            if net_removed:
                self._rebuild_merged()
            return
        if not net_removed and not net_added:
            return
        if not self._functional:
            self._rebuild_merged()
            return
        grown = range(len(self._parent), len(self._nodes))
        self._parent.extend(grown)
        self._rep.extend(grown)
        region = self._region(net_removed)
        if region:
            self.stats.recloses += 1
            self.stats.ids_reclosed += len(region)
            path, ids = "reclose", len(region)
        else:
            self.stats.fast_deletes += len(net_removed)
            path, ids = "extend", len({i for s, _, t in net_added for i in (s, t)})
        with span("update.close", path=path, ids=ids):
            self._patch(self._reclose(region, net_added), net_removed, net_added)

    def _rebuild_merged(self) -> None:
        """Rebuild the merged layer from the base edges, from scratch."""
        self.stats.merged_rebuilds += 1
        self._failed = False
        if not self._functional:
            nodes = self._nodes
            graph = GraphDatabase(
                set(self.setting.alphabet),
                edges=[(nodes[s], label, nodes[t])
                       for s, label, t in self._edge_support],
            )
            stats = ChaseStats()
            result = _egd_fixpoint_on_graph(graph, self._egds, stats)
            self.stats.egd_merges += stats.null_merges
            self._merged, self._failed = graph, result.failed
            return
        everything = range(len(self._nodes))
        self._parent.extend(everything[len(self._parent):])
        self._rep = list(everything)
        self._image_count = {}
        self._merged_degree = {}
        self._merged = self._empty_graph()
        self._patch(self._reclose(everything), set(), set(self._edge_support))

    def _empty_graph(self) -> GraphDatabase:
        """An empty merged graph, kept out of the engine's fingerprint cache.

        The live graph moves through a new version on every batch, so a
        cached state per version would only fill the cache; its reads use
        a transient state, as on any destructively mutated graph.
        """
        return GraphDatabase._from_backend(DictBackend.from_edges(
            set(self.setting.alphabet), (), destructive=True
        ))

    def _region(self, removed: Iterable[IdTriple]) -> set[int]:
        """The functional-link components around ``removed``'s endpoints.

        Every union joins two ids of one component of the graph whose
        edges are the live functional edges, so a class never leaves its
        component.  Each piece a deletion cut from an old component keeps
        an endpoint of a removed edge, so the returned ids hold every old
        class they meet, whole.
        """
        sides, incident = self._sides, self._incident
        region = {ident for source, label, target in removed if label in sides
                  for ident in (source, target)}
        stack = list(region)
        while stack:
            ident = stack.pop()
            for source, label, target in incident[ident]:
                if label in sides:
                    other = target if source == ident else source
                    if other not in region:
                        region.add(other)
                        stack.append(other)
        return region

    def _links(
        self, edges: Iterable[IdTriple]
    ) -> Iterator[tuple[int, int, Iterable[int]]]:
        """The ``(profile, key, members)`` groups of functional ``edges``."""
        for source, label, target in edges:
            for index, key_at_target in self._sides.get(label, ()):
                if key_at_target:
                    yield index, target, (source,)
                else:
                    yield index, source, (target,)

    def _reclose(
        self, region: Iterable[int], added: Iterable[IdTriple] = ()
    ) -> list[int] | None:
        """Reset ``region``'s ids to singletons and close them again.

        ``region`` is a union of whole components (:meth:`_region`), so
        its ids re-close from their own key groups alone; ``added`` edges
        outside it extend the rest of the partition.  Returns the ids
        whose root may have changed, as :meth:`_close` does.
        """
        parent, members, anchors = self._parent, self._members, self._anchors
        split: list[int] = []
        for ident in region:
            parent[ident] = ident
            split += members.pop(ident, ())
            for table in anchors:
                table.pop(ident, None)
        links: list[tuple[int, int, Iterable[int]]] = [
            (index, key, groups[key])
            for index, groups in enumerate(self._groups)
            for key in region
            if key in groups
        ]
        links += self._links(edge for edge in added if edge[0] not in region)
        moved = self._close(links)
        return None if moved is None else moved + split

    def _close(
        self, links: Iterable[tuple[int, int, Iterable[int]]]
    ) -> list[int] | None:
        """Union ``links`` into the partition, closing under congruence.

        Each link adds members to a key's group; the group of a key class
        is kept as one anchor member, and every other member unites with
        the anchor.  When two classes unite their
        anchors unite too, per profile.  A class's root is its constant,
        else its least id, so the roots (the merged graph's nodes) do not
        depend on the union order.  Returns the ids whose root changed
        (with repeats), or ``None`` — the chase failed — when two
        constants meet.
        """
        parent, members, anchors = self._parent, self._members, self._anchors
        constant = self._constant
        pending: list[tuple[int, int]] = []
        for index, key, group in links:
            anchor = anchors[index].setdefault(_find(parent, key), next(iter(group)))
            pending.extend((anchor, member) for member in group)
        moved: list[int] = []
        merges = 0
        while pending:
            left, right = pending.pop()
            left, right = _find(parent, left), _find(parent, right)
            if left == right:
                continue
            if constant[left] and constant[right]:
                self._failed = True
                self.stats.egd_merges += merges
                return None
            if constant[right] or (not constant[left] and right < left):
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
        self.stats.egd_merges += merges
        return moved

    def _patch(
        self,
        changed: list[int] | None,
        removed: set[IdTriple],
        added: set[IdTriple],
    ) -> None:
        """Move the merged images of ``changed`` ids and the net edges.

        Images are counted by the base edges they represent: an image
        with no base edge left leaves the merged graph, and so does a
        merged node with no image left.  ``changed=None`` (the closure
        failed) leaves the parked layer as it is.
        """
        if changed is None:
            return
        parent, rep, incident = self._parent, self._rep, self._incident
        moving = [ident for ident in set(changed) if _find(parent, ident) != rep[ident]]
        moved: set[IdTriple] = set()
        for ident in moving:
            moved |= incident[ident]
        moved -= added
        self.stats.edges_moved += len(moved)
        delta: dict[IdTriple, int] = {}
        for source, label, target in chain(removed, moved):
            image = (rep[source], label, rep[target])
            delta[image] = delta.get(image, 0) - 1
        for ident in moving:
            rep[ident] = parent[ident]
        for source, label, target in chain(added, moved):
            image = (rep[source], label, rep[target])
            delta[image] = delta.get(image, 0) + 1
        counts, degree = self._image_count, self._merged_degree
        graph, nodes = self._merged, self._nodes
        emptied: list[int] = []
        for image, change in delta.items():
            if not change:
                continue
            before = counts.get(image, 0)
            after = before + change
            source, label, target = image
            if after:
                counts[image] = after
            else:
                del counts[image]
            if not before:
                graph.add_edge(nodes[source], label, nodes[target])
                degree[source] = degree.get(source, 0) + 1
                degree[target] = degree.get(target, 0) + 1
            elif not after:
                graph.remove_edge(nodes[source], label, nodes[target])
                degree[source] -= 1
                degree[target] -= 1
                emptied += (source, target)
        for ident in emptied:
            if degree.get(ident) == 0:
                del degree[ident]
                graph.discard_node(nodes[ident])

    # ------------------------------------------------------------------ #
    # Oracle-identical materialisation
    # ------------------------------------------------------------------ #

    def _oracle_names(self) -> dict[Null, Null]:
        """Map internal nulls to the names the from-scratch oracle invents.

        The oracle numbers nulls with one global counter, firing tgds in
        declaration order and each tgd's triggers in sorted-match order —
        both reconstructable from the trigger records alone.
        """
        by_tgd: dict[int, list[_Trigger]] = {}
        for trigger in self._triggers.values():
            by_tgd.setdefault(trigger.tgd_index, []).append(trigger)
        names: dict[Null, Null] = {}
        counter = 0
        for tgd_index in range(len(self._tgds)):
            for trigger in sorted(
                by_tgd.get(tgd_index, ()), key=lambda t: t.sort_key
            ):
                for null in trigger.nulls:
                    counter += 1
                    names[null] = Null(f"N{counter}")
        return names
