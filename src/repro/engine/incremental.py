"""Incremental chase maintenance under live insert/delete streams.

The batch pipeline chases every instance from scratch: any mutation bumps
the instance fingerprint and discards all warm state.  This module keeps a
chased solution *live* instead.  :class:`IncrementalChase` holds three
layers of state for one data-exchange setting and one mutable source
instance:

* the **base layer** — the fired s-t tgd triggers.  They fire through the
  chase's own :func:`~repro.chase.relational_chase._fire_tgd`: over all
  body rows at bootstrap, then over each batch's delta rows
  (:meth:`~repro.join.Body.delta_rows`, one join per tgd per batch).
  Each trigger keeps its row and edges, indexed by the facts its body
  joined over (for retraction), and its nulls are named after its key.
  Each node gets a dense int id when its first edge is born, and gives
  it back for reuse once a batch leaves it with no edge; base edges are ``(id, label, id)`` triples with support
  counts (exact provenance: an edge exists iff a live trigger emits it)
  and an incidence index by id, and every functional egd profile keeps
  its key groups (key id → member ids);
* the **merged layer** — the egd fixpoint of the base graph.  When every
  egd is functional (``(x1, L, k), (x2, L, k) -> x1 = x2`` or its
  mirror; every generator family and Example 3.1), the least merge
  partition is the congruence closure of the chase's own
  :func:`~repro.chase.relational_chase._close` on a union-find
  ``parent`` list over the ids, rooting each class at its constant, else
  its earliest-born null.  The bootstrap closes every id and bulk-loads
  the merged :class:`~repro.graph.database.GraphDatabase` that queries
  read.  A batch that removes no functional edge extends the live
  partition.  Any other batch re-closes on ids, inside the components of
  the functional-link graph that its removed functional edges touch.
  Two constants meeting fail the chase.  The merged graph is patched
  with per-image support counts: only the edges of ids whose
  representative changed move, plus the batch's net added and removed
  edges, and a node goes when its merged degree reaches 0.  Other egds
  (word and cascade bodies) rebuild the merged layer with the sequential
  :class:`~repro.engine.delta.EgdViolationQueue` fixpoint on each batch
  that changes an edge, as
  :func:`~repro.chase.relational_chase.chase_relational` does;
* the **answer layer** — certain answers per query.  The first read
  computes a query with one
  :meth:`~repro.engine.query.QueryEngine.answers_over` on the merged
  graph.  While any answer is cached, the merged-layer patch records the
  merged edges whose image it added or dropped and the merged nodes it
  added or discarded, into a pending delta per cached answer, kept
  exact: the edges and nodes whose presence differs from the last read.
  A later read patches its cached answer: the sources whose row can
  have changed are found by walking the query's own expression
  backwards from its pending delta
  (:func:`~repro.graph.eval.touched_sources`), and only their rows are
  re-derived (row-level incremental view maintenance).  A patched
  answer is one per-source row index: each patch replaces the changed
  rows in a shallow copy of it, and the read returns a read-only
  :class:`~collections.abc.Set` view over that copy.  A rebuilt merged
  layer or a failed chase drops the cache instead, and an answer whose
  pending delta outgrows the merged graph is dropped with it.

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

from collections import Counter, defaultdict
from collections.abc import Mapping, Set
from dataclasses import dataclass, fields
from itertools import chain, filterfalse
from typing import TYPE_CHECKING, AbstractSet, Hashable, Iterable, Iterator
from zlib import crc32

from repro.chase.relational_chase import (
    _chase_fired,
    _check_fragment,
    _close,
    _egd_fixpoint_on_graph,
    _find,
    _Firing,
    _fire_tgd,
    _functional_links,
    _functional_sides,
)
from repro.chase.result import ChaseResult, ChaseStats
from repro.engine.query import default_engine
from repro.errors import NotSupportedError, SchemaError
from repro.graph.database import GraphDatabase
from repro.graph.eval import evaluate_relation, touched_sources
from repro.graph.nre import NRE
from repro.telemetry import fold_stats, span
from repro.patterns.pattern import Null, is_null
from repro.relational.evaluate import relational_body
from repro.relational.instance import RelationalInstance

if TYPE_CHECKING:  # annotation-only imports; avoids import cycles
    from repro.core.certain import CertainAnswers
    from repro.core.setting import DataExchangeSetting

Node = Hashable
Fact = tuple[str, tuple]
TriggerKey = tuple[int, tuple]  # (tgd index, the repr of the row's values)
Update = tuple[str, str, tuple]
IdTriple = tuple[int, str, int]

_UNSET = object()
_EMPTY: frozenset = frozenset()


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
    """s-t tgd triggers fired: the bootstrap's, then each batch's delta
    joins."""

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
    """Reads answered by patching a cached answer with the merged-layer
    delta of the batches since it was computed."""

    rows_rederived: int = 0
    """Source rows those patches re-derived: the sources in the active
    domain whose row the delta can have changed."""

    answer_invalidations: int = 0
    """Batches that dropped cached certain answers: a rebuilt merged
    layer or a failed chase drops them all, and an answer left unread
    until its pending delta outgrows the merged graph is dropped alone."""

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
# Merged-graph deltas and cached answers
# --------------------------------------------------------------------- #


class _Delta:
    """What the merged graph changed by: exactly the edges and the merged
    nodes whose presence differs from before.

    The invariant keeps it exact.  Each batch's record is that batch's
    flips: :meth:`IncrementalChase._patch` runs once per batch and nets
    each image before it adds or removes it, so a recorded edge or node
    was absent before the batch and present after it, or the other way
    round.  :meth:`update` accumulates by symmetric difference, so a
    pending delta is the flips since the last read, and a churn that
    cancels leaves it empty.

    No domain delta is needed: every constant node of the merged graph
    is a value of a live fact (tgd heads name body variables and nulls
    only), so a merged node is in the active domain exactly when it is a
    constant, and a constant that enters or leaves the active domain
    while it is a merged node before or after the change enters or
    leaves the node set too, and is in ``nodes``.
    """

    __slots__ = ("edges", "nodes")

    def __init__(self):
        self.edges: set[tuple[Node, str, Node]] = set()
        self.nodes: set[Node] = set()

    def __len__(self) -> int:
        return len(self.edges) + len(self.nodes)

    def update(self, other: "_Delta") -> None:
        self.edges ^= other.edges
        self.nodes ^= other.nodes


class _Answers(Set):
    """A read-only view of certain answers held as one row index.

    ``rows`` maps each source to its targets; neither the dict nor its
    sets are written once the view is published, so an answer a caller
    holds never changes under later batches.  ``|``, ``&`` and ``-``
    return frozensets.
    """

    __slots__ = ("_rows", "_count")

    def __init__(self, rows: dict[Node, frozenset[Node]], count: int):
        self._rows = rows
        self._count = count

    def __len__(self) -> int:
        return self._count

    def __contains__(self, pair: object) -> bool:
        if not isinstance(pair, tuple) or len(pair) != 2:
            return False
        row = self._rows.get(pair[0])
        return row is not None and pair[1] in row

    def __iter__(self) -> Iterator[tuple[Node, Node]]:
        for source, targets in self._rows.items():
            for target in targets:
                yield source, target

    __hash__ = Set._hash  # frozenset's hash: equal views and frozensets agree

    @classmethod
    def _from_iterable(cls, pairs: Iterable[tuple[Node, Node]]) -> frozenset:
        return frozenset(pairs)


class _Cached:
    """One query's cached certain answers.

    ``pending`` is the merged-graph delta of the batches since they were
    read.  ``answers`` is what :meth:`~IncrementalChase.certain_answers`
    returns: the first read's frozenset until the first patch, an
    :class:`_Answers` view over ``rows`` after it.  ``rows`` indexes the
    answers by source (frozensets, never mutated once stored) and
    ``count`` counts their pairs, both from the first patch on.
    """

    __slots__ = ("answers", "pending", "rows", "count")

    def __init__(self, answers: frozenset):
        self.answers: AbstractSet[tuple[Node, Node]] = answers
        self.pending = _Delta()
        self.rows: dict[Node, frozenset[Node]] | None = None
        self.count = len(answers)


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
        # label -> [(profile index, key is the edge target?)]
        sides = _functional_sides(self._egds)
        self._functional = sides is not None
        self._sides = sides or {}
        profiles = sum(map(len, self._sides.values()))
        self.instance = (
            instance.copy()
            if instance is not None
            else RelationalInstance(setting.source_schema)
        )
        self._engine = engine
        self._bodies = [relational_body(tgd.body, self.instance) for tgd in self._tgds]
        self._firings = [_Firing(tgd) for tgd in self._tgds]
        self.stats = UpdateStats()
        # --- base layer: triggers, interned nodes and id edges ---
        # per tgd: the repr key of each fired trigger -> (body row, edges)
        self._triggers: list[dict[tuple, tuple]] = [{} for _ in self._tgds]
        self._fact_triggers: dict[Fact, set[TriggerKey]] = {}
        self._ids: dict[Node, int] = {}
        self._nodes: list[Node] = []
        self._constant: list[bool] = []
        self._birth: list[int] = []  # the batch that (re)assigned the id
        self._batch = 0  # batches applied; the bootstrap is batch 0
        self._incident: list[set[IdTriple]] = []
        self._dead: set[int] = set()  # ids that lost their last edge
        self._free: list[int] = []  # ids of dead nodes, for reuse
        self._edge_support: dict[IdTriple, int] = {}  # edge -> head atoms emitting it
        # per profile: key id -> member ids
        self._groups: list[dict[int, set[int]]] = [{} for _ in range(profiles)]
        # --- merged layer: the partition and the graph queries read ---
        self._parent: list[int] = []
        self._members: dict[int, list[int]] = {}  # root -> class, if > 1 id
        # per profile: class root -> the member its group's members unite with
        self._anchors: list[dict[int, int]] = [{} for _ in range(profiles)]
        self._rep: list[int] = []  # the root each id's merged edges sit on
        self._image_count: dict[IdTriple, int] = {}
        self._merged_degree: dict[int, int] = {}
        self._merged: GraphDatabase  # set by the bootstrap
        self._failed = False
        self._witness_cache: object = _UNSET
        # --- answer layer ---
        self._answers: dict[NRE, _Cached] = {}
        self._delta: _Delta | None = None  # the batch's, while answers are cached
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
        self._batch += 1
        self._delta = _Delta() if self._answers else None
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
        if self._failed:
            self._drop_answers()
        elif self._delta:
            self._pend(self._delta)
        self._delta = None
        counts["failed"] = self._failed
        return counts

    def certain_answers(self, query: NRE, engine=None) -> "CertainAnswers":
        """Return the certain answers of ``query`` on the live solution.

        The merged graph is a universal solution of the current instance
        (when one exists), so certain answers are its query answers
        restricted to the source active domain — byte-identical to the
        batch pipeline's result on the same instance.  Answers are cached
        per query; a read after batches that changed the merged graph
        re-derives only the rows those changes can reach.  Once patched,
        ``answers`` is a read-only :class:`~collections.abc.Set` of pairs
        rather than a ``frozenset``; it equals the frozenset of the same
        pairs and never changes under later batches.
        """
        from repro.core.certain import CertainAnswers

        if self._failed:
            return CertainAnswers(
                answers=frozenset(),
                no_solution=True,
                solutions_examined=0,
                method="incremental(no-solution)",
            )
        cached = self._answers.get(query)
        if cached is None:
            engine = engine if engine is not None else self._engine
            if engine is None:
                engine = default_engine()
            domain = self.instance.active_domain()
            answers = engine.answers_over(self._merged, query, domain)
            self._answers[query] = _Cached(answers)
        else:
            if cached.pending:
                self._patch_answers(query, cached)
            answers = cached.answers
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

        The base edges, with every internal null numbered as the oracle
        (:func:`~repro.chase.relational_chase.chase_relational`) would
        have numbered it, go through that chase's own egd and build steps,
        so node sets, edge sets, null labels and failure witnesses are
        byte-identical.
        """
        numbers = self._oracle_numbers()
        return _chase_fired(
            set(self.setting.alphabet),
            list(self._edge_support),
            list(self._nodes),
            [numbers.get(node, 0) for node in self._nodes],
            range(len(self._nodes)),
            self._egds,
            ChaseStats(st_applications=sum(map(len, self._triggers))),
        )

    # ------------------------------------------------------------------ #
    # Base layer
    # ------------------------------------------------------------------ #

    def _normalize(self, update) -> Update:
        """Coerce one update to ``(op, relation_name, values_tuple)``."""
        if isinstance(update, tuple) or not isinstance(update, Mapping):
            op, relation, values = update
        else:
            op = update.get("op")
            relation = update.get("relation")
            values = update.get("tuple", update.get("values"))
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
        """Retract and fire triggers; return net (removed, added) edges.

        Each tgd fires once per batch, over its delta rows: the matches
        that map some body atom onto an added fact
        (:meth:`~repro.join.Body.delta_rows`), less the keys already fired.
        """
        removed_edges = self._retract(removed_facts)
        added_edges: list[IdTriple] = []
        if added_facts:
            by_relation: dict[str, list[tuple]] = {}
            for relation, values in sorted(added_facts, key=repr):
                by_relation.setdefault(relation, []).append(values)
            for tgd_index, body in enumerate(self._bodies):
                pinned = [by_relation.get(access.relation) for access, _ in body.atoms]
                fired = self._triggers[tgd_index]
                rows = [
                    row for row in body.delta_rows(pinned.__getitem__)
                    if tuple(map(repr, row)) not in fired
                ]
                if rows:
                    added_edges += self._fire(tgd_index, rows)
        removed_set, added_set = set(removed_edges), set(added_edges)
        return removed_set - added_set, added_set - removed_set

    def _fire(self, tgd_index: int, rows: list[tuple]) -> list[IdTriple]:
        """Fire tgd ``tgd_index`` over body ``rows``; return the base edges born.

        Triggers fire through the chase's own
        :func:`~repro.chase.relational_chase._fire_tgd`, onto interned
        ids; each keeps its row and edges, for retraction.
        """
        firing = self._firings[tgd_index]
        keys, rows, edges = _fire_tgd(
            firing,
            rows,
            self._intern,
            lambda _, order: self._intern(self._nulls(tgd_index, order)),
        )
        per_trigger = zip(*[iter(edges)] * len(firing.heads))
        self._triggers[tgd_index].update(zip(keys, zip(rows, per_trigger)))
        self.stats.triggers_added += len(keys)
        index = self._fact_triggers
        for fact, trigger in self._trigger_facts(tgd_index, keys, rows):
            index.setdefault(fact, set()).add(trigger)
        support, incident = self._edge_support, self._incident
        sides, groups = self._sides, self._groups
        born: list[IdTriple] = []
        for edge in edges:
            count = support.get(edge)
            if count is not None:
                support[edge] = count + 1
                continue
            support[edge] = 1
            born.append(edge)
            source, label, target = edge
            incident[source].add(edge)
            incident[target].add(edge)
            for profile, key_at_target in sides.get(label, ()):
                key, member = (target, source) if key_at_target else (source, target)
                groups[profile].setdefault(key, set()).add(member)
        return born

    def _retract(self, removed_facts: set[Fact]) -> list[IdTriple]:
        """Retract the triggers over ``removed_facts``; return the base edges
        that died with them."""
        dying: dict[int, set[tuple]] = defaultdict(set)
        for fact in removed_facts:
            for tgd_index, key in self._fact_triggers.get(fact, ()):
                dying[tgd_index].add(key)
        index = self._fact_triggers
        support, incident = self._edge_support, self._incident
        sides, groups = self._sides, self._groups
        died: list[IdTriple] = []
        for tgd_index, dead in dying.items():
            fired, keys = self._triggers[tgd_index], list(dead)
            rows, edges = zip(*[fired.pop(key) for key in keys])
            self.stats.triggers_retracted += len(rows)
            for fact, trigger in self._trigger_facts(tgd_index, keys, rows):
                triggers = index.get(fact)
                if triggers is not None:
                    triggers.discard(trigger)
                    if not triggers:
                        del index[fact]
            for edge in chain.from_iterable(edges):
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
                for profile, key_at_target in sides.get(label, ()):
                    key, member = (target, source) if key_at_target else (source, target)
                    group = groups[profile][key]
                    group.discard(member)
                    if not group:
                        del groups[profile][key]
        return died

    def _nulls(self, tgd_index: int, keys: Iterable[tuple]) -> list[Null]:
        """The internal nulls of tgd ``tgd_index``'s triggers ``keys``.

        One per existential, trigger after trigger, each named after its
        trigger's key, so delete-then-reinsert reproduces the same base
        graph bit for bit.
        """
        existentials = range(self._firings[tgd_index].fresh)
        prefixes = [f"inc:{tgd_index}:{k}:" for k in existentials]
        return [
            Null(prefix + joined)
            for joined in map("\x1f".join, keys)
            for prefix in prefixes
        ]

    def _trigger_facts(
        self, tgd_index: int, keys: Iterable[tuple], rows: Iterable[tuple]
    ) -> Iterator[tuple[Fact, TriggerKey]]:
        """The source facts each trigger's body joined over, with its key."""
        atoms = self._bodies[tgd_index].atoms
        for key, row in zip(keys, rows):
            trigger = (tgd_index, key)
            for access, terms in atoms:
                values = tuple([row[t] if var else t for var, t in terms])
                yield (access.relation, values), trigger

    def _intern(self, nodes: Iterable[Node]) -> list[int]:
        """The ids of ``nodes``, each first seen taking a freed id or the next."""
        ids, incident, result = self._ids, self._incident, []
        for node in nodes:
            ident = ids.get(node)
            if ident is None:
                if self._free:
                    ident = self._free.pop()
                    self._nodes[ident] = node
                    self._constant[ident] = not is_null(node)
                    self._birth[ident] = self._batch
                else:
                    ident = len(self._nodes)
                    self._nodes.append(node)
                    self._constant.append(not is_null(node))
                    self._birth.append(self._batch)
                    incident.append(set())
                ids[node] = ident
            elif not incident[ident]:
                self._nodes[ident] = node  # reborn: keep the live object
            result.append(ident)
        return result

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

    # ------------------------------------------------------------------ #
    # Merged layer
    # ------------------------------------------------------------------ #

    def _bootstrap(self) -> None:
        """Fire every trigger of the initial instance, then build the quotient."""
        for tgd_index, tgd in enumerate(self._tgds):
            self._fire(tgd_index, tgd.body_rows(self.instance, tgd.body.variables()))
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
        """Rebuild the merged layer from the base edges, from scratch.

        Under functional egds the partition closes over every id and the
        merged graph is bulk-loaded from the images of the base edges, as
        the chase's build step loads its graph; each label then derives
        its backward index once, so the batches that patch the graph
        never derive one.
        """
        self.stats.merged_rebuilds += 1
        self._drop_answers()
        self._failed = False
        nodes = self._nodes
        if not self._functional:
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
        everything = range(len(nodes))
        self._parent.extend(everything[len(self._parent):])
        # A failed closure parks the layer empty.
        edges = () if self._reclose(everything) is None else self._edge_support
        rep = self._rep = [_find(self._parent, ident) for ident in everything]
        counts = self._image_count = Counter(
            (rep[s], label, rep[t]) for s, label, t in edges
        )
        degree = self._merged_degree = {}
        for source, _, target in counts:
            degree[source] = degree.get(source, 0) + 1
            degree[target] = degree.get(target, 0) + 1
        # Destructive, so kept out of the engine's fingerprint cache: the
        # graph moves through a new version on every batch, and a cached
        # state per version would only fill the cache.
        graph = self._merged = GraphDatabase.from_edges(
            set(self.setting.alphabet),
            [(nodes[s], label, nodes[t]) for s, label, t in counts],
            destructive=True,
        )
        for label in graph.labels():
            graph.backward_index(label)

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

    def _reclose(
        self, region: Iterable[int], added: Iterable[IdTriple] = ()
    ) -> list[int] | None:
        """Reset ``region``'s ids to singletons and close them again.

        ``region`` is a union of whole components (:meth:`_region`), so
        its ids re-close from their own key groups alone; ``added`` edges
        outside it extend the rest of the partition.  The closure is the
        chase's own :func:`~repro.chase.relational_chase._close`, ranking
        roots by :meth:`_rank`.  Returns the ids whose root may have
        changed, or ``None`` — the chase failed — when two constants meet.
        """
        parent, members, anchors = self._parent, self._members, self._anchors
        split: list[int] = []
        for ident in region:
            parent[ident] = ident
            split += members.pop(ident, ())
            for table in anchors:
                table.pop(ident, None)
        links = [
            (profile, key, member)
            for profile, groups in enumerate(self._groups)
            for key in region
            if key in groups
            for member in groups[key]
        ]
        links += _functional_links(
            (edge for edge in added if edge[0] not in region), self._sides
        )
        moved, merges = _close(
            links, parent, members, anchors, self._constant, self._rank
        )
        self.stats.egd_merges += merges
        if moved is None:
            self._failed = True
            return None
        return moved + split

    def _rank(self, ident: int) -> tuple:
        """A null id's root rank: its birth batch, then the CRC-32 of its
        label, then the label.

        So the roots (the merged graph's nodes) depend neither on the
        union order nor on the order triggers fire in, and an id reused
        by a new node never displaces a live root.  The hash, unlike
        label order, does not make the nulls of the most-mentioned
        constants (``p0``, ``e0``) roots: a stream churns their facts
        most, and a dead root moves its whole class.
        """
        label = self._nodes[ident].label
        return self._birth[ident], crc32(label.encode()), label

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
        failed) leaves the parked layer as it is.  While answers are
        cached, the images added or dropped and the merged nodes added
        or discarded go to the batch's delta.
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
        graph, nodes, record = self._merged, self._nodes, self._delta
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
                if record is not None:
                    record.edges.add((nodes[source], label, nodes[target]))
                    record.nodes.update(
                        nodes[end] for end in (source, target) if end not in degree
                    )
                degree[source] = degree.get(source, 0) + 1
                degree[target] = degree.get(target, 0) + 1
            elif not after:
                graph.remove_edge(nodes[source], label, nodes[target])
                if record is not None:
                    record.edges.add((nodes[source], label, nodes[target]))
                degree[source] -= 1
                degree[target] -= 1
                emptied += (source, target)
        for ident in emptied:
            if degree.get(ident) == 0:
                del degree[ident]
                graph.discard_node(nodes[ident])
                if record is not None:
                    record.nodes.add(nodes[ident])

    # ------------------------------------------------------------------ #
    # Answer layer
    # ------------------------------------------------------------------ #

    def _pend(self, delta: _Delta) -> None:
        """Add a batch's merged-graph delta to every cached answer's pending one.

        An answer whose pending delta outgrows the merged graph's edges
        and nodes is dropped instead: its next read recomputes it.
        """
        bound = self._merged.edge_count() + self._merged.node_count()
        stale = []
        for query, cached in self._answers.items():
            cached.pending.update(delta)
            if len(cached.pending) > bound:
                stale.append(query)
        for query in stale:
            del self._answers[query]
        if stale:
            self.stats.answer_invalidations += 1

    def _drop_answers(self) -> None:
        """Forget every cached answer: the merged layer was rebuilt or failed."""
        if self._answers:
            self.stats.answer_invalidations += 1
            self._answers.clear()
        self._delta = None

    def _patch_answers(self, query: NRE, cached: _Cached) -> None:
        """Bring ``cached`` up to date by re-deriving the rows that can change.

        Those are the rows of the touched sources of ``query`` under its
        pending delta, restricted to the active domain: to the merged
        graph's constants.  Every other source keeps its row, and so do
        its targets their domain membership: see :class:`_Delta`.  The
        changed rows go into a copy of the row index, so a published
        answer is never written.
        """
        delta, cached.pending = cached.pending, _Delta()
        graph = self._merged
        affected = touched_sources(graph, query, delta.edges, delta.nodes)
        sources = {node for node in affected if node in graph and not is_null(node)}
        fresh = {}
        if sources:
            fresh = evaluate_relation(graph, query, sources).targets(sources)
        rows = cached.rows
        if rows is None:  # the first patch indexes the first read's answers
            grouped = defaultdict(list)
            for source, target in cached.answers:
                grouped[source].append(target)
            rows = {source: frozenset(targets) for source, targets in grouped.items()}
        changes: dict[Node, frozenset[Node]] = {}
        for source in affected:
            new = fresh.get(source)
            new = frozenset(filterfalse(is_null, new)) if new else _EMPTY
            if new != rows.get(source, _EMPTY):
                changes[source] = new
        if changes:
            rows, count = dict(rows), cached.count
            for source, new in changes.items():
                count += len(new) - len(rows.pop(source, _EMPTY))
                if new:
                    rows[source] = new
            cached.count = count
            cached.answers = _Answers(rows, count)
        cached.rows = rows
        self.stats.answer_patches += 1
        self.stats.rows_rederived += len(sources)

    # ------------------------------------------------------------------ #
    # Oracle-identical materialisation
    # ------------------------------------------------------------------ #

    def _oracle_numbers(self) -> dict[Null, int]:
        """Map internal nulls to the numbers the from-scratch oracle gives them.

        The oracle numbers nulls with one global counter, firing tgds in
        declaration order and each tgd's triggers in key order
        (:func:`~repro.chase.relational_chase._fire_tgd`) — both
        reconstructable from the trigger keys alone.
        """
        numbers: dict[Null, int] = {}
        for tgd_index, (firing, fired) in enumerate(zip(self._firings, self._triggers)):
            for null in self._nulls(tgd_index, sorted(fired, key=firing.order)):
                numbers[null] = len(numbers) + 1
        return numbers
