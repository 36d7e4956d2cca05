"""Incremental chase maintenance under live insert/delete streams.

The batch pipeline chases every instance from scratch: any mutation bumps
the instance fingerprint and discards all warm state.  This module keeps a
chased solution *live* instead.  :class:`IncrementalChase` holds three
layers of state for one data-exchange setting and one mutable source
instance:

* the **base layer** — the set of fired s-t tgd triggers, indexed by the
  facts they join over (for DRed-style retraction) and by the target edges
  they emit (exact provenance: a target edge exists iff some live trigger
  supports it);
* the **merged layer** — the egd fixpoint of the base graph, maintained as
  a quotient: a union-find style ``rep``/class map plus an image-support
  index mapping each merged edge to the base edges it represents.  Inserts
  are handled semi-naively (:meth:`~repro.engine.delta.EgdViolationQueue.rescan_since`
  over the edge journal).  Deletions are DRed at class granularity: each
  merge records one witness (a base edge per egd body atom) at fire time,
  and a deletion that kills a witness edge dissolves that merge's class —
  plus, transitively, every class with a merge whose witness touches a
  dissolved node — back into singletons.  The dissolved nodes' images are
  re-added through the journal and re-derived by the same rescan and egd
  fixpoint as the batch's inserts; a deletion that hits no witness is the
  zero-class case.  The merged layer is rebuilt from scratch only at
  bootstrap, when a batch deletes out of a failed state, and when a merge
  found no witness to record;
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
fragment (single-symbol tgd heads) with egds whose bodies are unions of
words — exactly the shapes the paper's figures and generators use.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Hashable, Iterable, Iterator, Mapping, Sequence

from repro.chase.relational_chase import _check_fragment, quotient_result
from repro.chase.result import ChaseResult, ChaseStats
from repro.engine.delta import (
    EgdViolationQueue,
    decompose_egd,
    run_egd_fixpoint,
)
from repro.engine.matcher import _edge_view
from repro.engine.query import default_engine
from repro.errors import NotSupportedError, SchemaError
from repro.graph.cnre import CNREAtom, CNREQuery
from repro.graph.database import Edge, GraphDatabase
from repro.graph.nre import NRE, Label
from repro.mappings.egd import TargetEgd
from repro.telemetry import fold_stats, span
from repro.patterns.pattern import Null, is_null
from repro.relational.evaluate import cq_homomorphisms
from repro.relational.instance import RelationalInstance
from repro.relational.query import Variable, is_variable

if TYPE_CHECKING:  # annotation-only imports; avoids import cycles
    from repro.core.certain import CertainAnswers
    from repro.core.setting import DataExchangeSetting
    from repro.mappings.stt import SourceToTargetTgd

Node = Hashable
Fact = tuple[str, tuple]
Update = tuple[str, str, tuple]

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
    """Node merges performed by the incremental egd fixpoint."""

    fast_deletes: int = 0
    """Base-edge deletions that hit no merge witness (no class dissolved)."""

    merged_rebuilds: int = 0
    """Full rebuilds of the merged layer (bootstrap included)."""

    merged_repairs: int = 0
    """Batches whose deletions dissolved and re-derived merge classes."""

    nodes_rederived: int = 0
    """Base nodes reset to singletons by those class-local repairs."""

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
# Egd decomposition: union-of-words bodies -> simple chain egds
# --------------------------------------------------------------------- #


# --------------------------------------------------------------------- #
# Trigger records
# --------------------------------------------------------------------- #


class _Trigger:
    """One fired s-t tgd trigger with its exact provenance.

    ``key`` reproduces the oracle's dedup key (reprs of all body-variable
    values); ``sort_key`` its firing order; ``facts`` the source facts the
    body joined over (retraction index); ``edges`` the target edges the
    head emitted; ``nulls`` the internally named fresh nulls, one per
    existential, deterministic in ``key`` so delete-then-reinsert
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


def _make_trigger(
    tgd_index: int, tgd: "SourceToTargetTgd", hom: Mapping[Variable, Node]
) -> _Trigger:
    """Build the :class:`_Trigger` record for one body homomorphism."""
    dedupe = tuple(repr(hom[v]) for v in tgd.body.variables())
    sort_key = tuple(sorted((v.name, repr(hom[v])) for v in hom))
    assignment: dict[Variable, Node] = {v: hom[v] for v in tgd.frontier}
    nulls = []
    for position, existential in enumerate(tgd.existentials):
        null = Null(f"inc:{tgd_index}:{position}:" + "\x1f".join(dedupe))
        assignment[existential] = null
        nulls.append(null)
    facts = tuple(
        (
            atom.relation,
            tuple(hom[t] if is_variable(t) else t for t in atom.terms),
        )
        for atom in tgd.body.atoms
    )
    edges = tuple(
        Edge(
            assignment[atom.subject] if is_variable(atom.subject) else atom.subject,
            atom.nre.name,  # type: ignore[union-attr]  # fragment-checked Label
            assignment[atom.object] if is_variable(atom.object) else atom.object,
        )
        for atom in tgd.head.atoms
    )
    return _Trigger(tgd_index, (tgd_index, dedupe), sort_key, facts, edges, nulls)


# --------------------------------------------------------------------- #
# The incremental chase
# --------------------------------------------------------------------- #


class IncrementalChase:
    """A live chased solution maintained under an insert/delete stream.

    Construct once per (setting, instance); feed update batches through
    :meth:`apply_updates`; read :meth:`certain_answers` between batches.
    Answers are byte-identical to re-chasing the current instance from
    scratch, but an N-operation batch costs O(affected triggers + affected
    cone), not O(instance).

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
        self._chains: list[TargetEgd] = []
        for index, egd in enumerate(self._egds):
            self._chains.extend(decompose_egd(egd, index))
        # Per chain: its atoms in edge orientation, and the (atom, end)
        # slot whose witness edge endpoint anchors a merge in its class.
        self._witness_plans: list[tuple[TargetEgd, list, tuple[int, str]]] = []
        for chain in self._chains:
            views = [_edge_view(atom) for atom in chain.body.atoms]
            slots = [
                (index, end)
                for index, (source, _, target) in enumerate(views)
                for end, term in (("source", source), ("target", target))
                if term == chain.left
            ]
            if chain.left != chain.right and slots:
                self._witness_plans.append((chain, views, slots[0]))
        self.instance = (
            instance.copy()
            if instance is not None
            else RelationalInstance(setting.source_schema)
        )
        self._engine = engine
        self.stats = UpdateStats()
        # --- base layer: triggers and their provenance indexes ---
        self._triggers: dict[tuple, _Trigger] = {}
        self._fact_triggers: dict[Fact, set[tuple]] = {}
        self._edge_support: dict[Edge, set[tuple]] = {}
        self._node_degree: dict[Node, int] = {}
        # --- merged layer: quotient of the base graph by the egd fixpoint ---
        self._merged = GraphDatabase(alphabet=set(setting.alphabet))
        self._rep: dict[Node, Node] = {}
        self._classes: dict[Node, set[Node]] = {}
        self._image_support: dict[Edge, set[Edge]] = {}
        # merge id -> (anchor node, witness base edges), and the reverse
        # index from each witness edge to the merges it supports
        self._witnesses: dict[int, tuple[Node, list[Edge]]] = {}
        self._edge_merges: dict[Edge, set[int]] = {}
        self._merge_count = 0
        self._provenance_exact = True
        self._queue: EgdViolationQueue | None = None
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
        :func:`~repro.chase.relational_chase.quotient_result`: on success
        each merge class collapses to the same representative, so node
        sets, edge sets and null labels are byte-identical; on failure the
        base graph replays the sequential egd fixpoint, reproducing the
        failure witness exactly.
        """
        names = self._oracle_names()
        stats = ChaseStats(st_applications=len(self._triggers))
        edges = [
            (names.get(edge.source, edge.source), edge.label,
             names.get(edge.target, edge.target))
            for edge in sorted(self._edge_support, key=repr)
        ]
        classes = None
        if not self._failed:
            classes = [
                [names.get(node, node) for node in members]
                for members in self._classes.values()
                if len(members) > 1
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
    ) -> tuple[set[Edge], set[Edge]]:
        """Retract and fire triggers; return net (removed, added) edges."""
        removed_edges: list[Edge] = []
        dying: set[tuple] = set()
        for fact in removed_facts:
            dying |= self._fact_triggers.get(fact, set())
        for key in sorted(dying):
            removed_edges += self._remove_trigger(self._triggers.pop(key))
        added_edges: list[Edge] = []
        for fact in sorted(added_facts, key=repr):
            for trigger in self._seeded_triggers(fact):
                if trigger.key not in self._triggers:
                    added_edges += self._add_trigger(trigger)
        removed_set, added_set = set(removed_edges), set(added_edges)
        return removed_set - added_set, added_set - removed_set

    def _seeded_triggers(self, fact: Fact) -> Iterator[_Trigger]:
        """Enumerate triggers whose body can use the freshly added ``fact``."""
        relation, values = fact
        for tgd_index, tgd in enumerate(self._tgds):
            for atom in tgd.body.atoms:
                if atom.relation != relation or len(atom.terms) != len(values):
                    continue
                seed: dict[Variable, Node] = {}
                consistent = True
                for term, value in zip(atom.terms, values):
                    if is_variable(term):
                        if term in seed and seed[term] != value:
                            consistent = False
                            break
                        seed[term] = value
                    elif term != value:
                        consistent = False
                        break
                if not consistent:
                    continue
                for hom in cq_homomorphisms(tgd.body, self.instance, seed=seed):
                    yield _make_trigger(tgd_index, tgd, hom)

    def _add_trigger(self, trigger: _Trigger) -> list[Edge]:
        """Register ``trigger``; return the base edges it newly created."""
        self._triggers[trigger.key] = trigger
        self.stats.triggers_added += 1
        for fact in set(trigger.facts):
            self._fact_triggers.setdefault(fact, set()).add(trigger.key)
        born: list[Edge] = []
        for edge in set(trigger.edges):
            support = self._edge_support.get(edge)
            if support is None:
                support = self._edge_support[edge] = set()
                born.append(edge)
                for node in {edge.source, edge.target}:
                    self._node_degree[node] = self._node_degree.get(node, 0) + 1
            support.add(trigger.key)
        return born

    def _remove_trigger(self, trigger: _Trigger) -> list[Edge]:
        """Unregister ``trigger``; return the base edges that died with it."""
        self.stats.triggers_retracted += 1
        for fact in set(trigger.facts):
            keys = self._fact_triggers.get(fact)
            if keys is not None:
                keys.discard(trigger.key)
                if not keys:
                    del self._fact_triggers[fact]
        died: list[Edge] = []
        for edge in set(trigger.edges):
            support = self._edge_support[edge]
            support.discard(trigger.key)
            if not support:
                del self._edge_support[edge]
                died.append(edge)
                for node in {edge.source, edge.target}:
                    remaining = self._node_degree[node] - 1
                    if remaining:
                        self._node_degree[node] = remaining
                    else:
                        del self._node_degree[node]
        return died

    # ------------------------------------------------------------------ #
    # Merged layer
    # ------------------------------------------------------------------ #

    def _bootstrap(self) -> None:
        """Fire every trigger of the initial instance, then build the quotient."""
        for tgd_index, tgd in enumerate(self._tgds):
            for hom in cq_homomorphisms(tgd.body, self.instance):
                trigger = _make_trigger(tgd_index, tgd, hom)
                if trigger.key not in self._triggers:
                    self._add_trigger(trigger)
        self._rebuild_merged()

    def _update_merged(self, net_removed: set[Edge], net_added: set[Edge]) -> None:
        """Repair the quotient for a batch's net edge delta."""
        if self._failed:
            # Failure is insert-monotone: adding facts can never turn a
            # failing chase into a succeeding one, so the (stale) merged
            # layer stays parked until a deletion forces a rebuild.
            if net_removed:
                self._rebuild_merged()
            return
        if net_removed and not self._provenance_exact:
            self._rebuild_merged()
            return
        hit: set[int] = set()
        for edge in net_removed:
            hit.update(self._edge_merges.get(edge, ()))
        dissolved, dropped = self._dissolution(hit)
        nodes = sum(len(self._classes[rep]) for rep in dissolved)
        with span("update.repair", nodes=nodes):
            self._repair_merged(net_removed, net_added, dissolved, dropped)

    def _rebuild_merged(self) -> None:
        """Rebuild the merged layer from the base edges, from scratch."""
        self.stats.merged_rebuilds += 1
        self._failed = False
        self._provenance_exact = True
        self._witnesses = {}
        self._edge_merges = {}
        self._rep = {}
        self._classes = {}
        self._image_support = {}
        merged = GraphDatabase(alphabet=set(self.setting.alphabet))
        for edge in sorted(self._edge_support, key=repr):
            for node in (edge.source, edge.target):
                if node not in self._rep:
                    self._rep[node] = node
                    self._classes[node] = {node}
            self._image_support[edge] = {edge}
            merged.add_edge(edge.source, edge.label, edge.target)
        self._merged = merged
        self._queue = EgdViolationQueue(self._chains, merged)
        failed, _ = run_egd_fixpoint(self._queue, ChaseStats(), apply=self._on_merge)
        self._failed = failed

    def _dissolution(self, hit: set[int]) -> tuple[list[Node], set[int]]:
        """Return the classes to dissolve for ``hit`` merges, and their merges.

        Starts from the classes of the merges whose witness lost an edge
        and closes under one rule: a merge whose witness has an edge at a
        node of a dissolved class dissolves its own class too.  Every merge
        of a dissolved class is in the returned set, because its anchor
        sits on a witness edge that is either dead (the merge is in
        ``hit``) or incident to the class.  Reads state only.
        """
        dropped = set(hit)
        pending = [self._rep[self._witnesses[merge][0]] for merge in hit]
        dissolved: list[Node] = []
        seen: set[Node] = set()
        while pending:
            rep = pending.pop()
            if rep in seen:
                continue
            seen.add(rep)
            dissolved.append(rep)
            for image in self._merged.incident_edges(rep):
                for base in self._image_support[image]:
                    for merge in self._edge_merges.get(base, ()):
                        if merge not in dropped:
                            dropped.add(merge)
                            pending.append(self._rep[self._witnesses[merge][0]])
        return dissolved, dropped

    def _repair_merged(
        self,
        net_removed: set[Edge],
        net_added: set[Edge],
        dissolved: list[Node],
        dropped: set[int],
    ) -> None:
        """Dissolve the hit classes, then re-derive them with the inserts.

        DRed at class granularity: the ``dissolved`` classes (see
        :meth:`_dissolution`) go back to singletons, their images are
        re-keyed into the merged graph through the edge journal, and one
        semi-naive egd fixpoint runs over that journal suffix together
        with the batch's inserted edges.  Exact because deleting edges
        only makes the least egd partition finer: a kept class keeps every
        merge and every witness, so it is still forced, and any new
        violation must route through a re-added or inserted edge.  A
        deletion that hits no merge is the zero-class case.
        """
        merged = self._merged
        for edge in net_removed:
            image = Edge(self._rep[edge.source], edge.label, self._rep[edge.target])
            support = self._image_support[image]
            support.discard(edge)
            if not support:
                del self._image_support[image]
                merged.remove_edge(image.source, image.label, image.target)
            if edge not in self._edge_merges:
                self.stats.fast_deletes += 1
        loose: list[Edge] = []
        for rep in dissolved:
            for image in merged.incident_edges(rep):
                loose.extend(self._image_support.pop(image))
                merged.remove_edge(image.source, image.label, image.target)
        for merge in dropped:
            _, witness = self._witnesses.pop(merge)
            for edge in witness:
                merges = self._edge_merges.get(edge)
                if merges is not None:  # a witness may list one edge twice
                    merges.discard(merge)
                    if not merges:
                        del self._edge_merges[edge]
        for rep in dissolved:
            members = self._classes.pop(rep)
            self.stats.nodes_rederived += len(members)
            for node in members:
                self._rep[node] = node
                self._classes[node] = {node}
        if dissolved:
            self.stats.merged_repairs += 1
        self._drop_dead_nodes(net_removed)
        if not loose and not net_added:
            return
        version = merged.version
        for edge in loose + sorted(net_added, key=repr):
            for node in (edge.source, edge.target):
                if node not in self._rep:
                    self._rep[node] = node
                    self._classes[node] = {node}
            image = Edge(self._rep[edge.source], edge.label, self._rep[edge.target])
            support = self._image_support.get(image)
            if support is None:
                support = self._image_support[image] = set()
                merged.add_edge(image.source, image.label, image.target)
            support.add(edge)
        assert self._queue is not None
        self._queue.rescan_since(version)
        failed, _ = run_egd_fixpoint(self._queue, ChaseStats(), apply=self._on_merge)
        if failed:
            self._failed = True

    def _drop_dead_nodes(self, net_removed: set[Edge]) -> None:
        """Evict base nodes that lost their last edge from the quotient."""
        dead = sorted(
            {
                node
                for edge in net_removed
                for node in (edge.source, edge.target)
                if node not in self._node_degree
            },
            key=repr,
        )
        dead_reps: list[Node] = []
        for node in dead:
            rep = self._rep.get(node)
            if rep is None:
                continue
            if rep != node:
                del self._rep[node]
                self._classes[rep].discard(node)
            else:
                dead_reps.append(node)
        for node in dead_reps:
            members = self._classes[node] - {node}
            del self._rep[node]
            del self._classes[node]
            if members:
                constants = [m for m in members if not is_null(m)]
                new_rep = (
                    min(constants, key=repr) if constants else min(members, key=repr)
                )
                self._classes[new_rep] = members
                for member in members:
                    self._rep[member] = new_rep
                self._remap_images(node, new_rep)
                self._merged.rename_node(node, new_rep)
            else:
                self._merged.discard_node(node)

    def _on_merge(self, old: Node, new: Node) -> None:
        """The egd fixpoint's merge callback: record and apply ``old ↦ new``."""
        self.stats.egd_merges += 1
        if self._provenance_exact:
            self._record_merge_provenance(old, new)
        self._remap_images(old, new)
        old_members = self._classes.pop(old)
        self._classes[new] |= old_members
        for member in old_members:
            self._rep[member] = new

    def _remap_images(self, old: Node, new: Node) -> None:
        """Re-key image supports for a merged-graph rename ``old ↦ new``.

        Must run *before* the graph itself is renamed (the support index is
        keyed by the pre-rename edges read from ``incident_edges``).
        """
        for image in self._merged.incident_edges(old):
            support = self._image_support.pop(image, None)
            if support is None:
                continue
            rewritten = Edge(
                new if image.source == old else image.source,
                image.label,
                new if image.target == old else image.target,
            )
            self._image_support.setdefault(rewritten, set()).update(support)

    def _record_merge_provenance(self, old: Node, new: Node) -> None:
        """Record one witness of the merge that fires ``old ↦ new``.

        The violation queue guarantees a witness homomorphism exists at
        fire time; it is recomputed here (not at discovery time) because
        earlier merges may have renamed the nodes a stored witness used.
        The record keeps one supporting base edge per body atom and an
        *anchor*: the base node bound to the egd's left variable, which
        lies in the merge's class for as long as the witness lives.  A
        deletion of any witness edge dissolves that class (see
        :meth:`_dissolution`).
        """
        for egd, views, (slot, end) in self._witness_plans:
            for seed in ({egd.left: old, egd.right: new}, {egd.left: new, egd.right: old}):
                for hom in self._queue.matcher.matches(egd.body, seed=seed):
                    witness: list[Edge] = []
                    for source_term, label, target_term in views:
                        support = self._image_support.get(
                            Edge(
                                hom.get(source_term, source_term),
                                label,
                                hom.get(target_term, target_term),
                            )
                        )
                        if support is None:
                            break
                        witness.append(next(iter(support)))
                    else:
                        merge = self._merge_count
                        self._merge_count += 1
                        self._witnesses[merge] = (getattr(witness[slot], end), witness)
                        for edge in witness:
                            merges = self._edge_merges.get(edge)
                            if merges is None:
                                self._edge_merges[edge] = {merge}
                            else:
                                merges.add(merge)
                        return
        self._provenance_exact = False

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
