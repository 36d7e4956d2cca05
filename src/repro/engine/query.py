"""The NRE query engine: one evaluator, cached per graph.

Every read runs the successor-map algebra
(:func:`repro.graph.eval.evaluate_relation`); :class:`QueryEngine` only
picks what to cache by the shape of the call, with no cost model:

* **whole relations** — :meth:`QueryEngine.pairs` and ``answers_over``
  evaluate the relation once, unrestricted, and decode it: ``pairs``
  into the whole pair set, ``answers_over`` into the pairs within its
  domain.  One span ``query.relation`` (the algebra) and one
  ``query.decode`` (successor map → answers) time each read;
* **one pair or one source** — :meth:`QueryEngine.holds` and
  ``reachable`` push the source into the expression's leftmost operand,
  so only that source's row is built.  The unrestricted subexpression
  relations it needs (a star's body, a concatenation's right side, a
  nested test) are kept per graph and shared by every later probe.  A
  cached ``pairs`` answers them instead: ``reachable`` groups that pair
  set by source once per graph and expression;
* **share across candidates** — results are cached per graph *content*,
  keyed on the :meth:`~repro.graph.database.GraphDatabase.fingerprint`,
  so sibling candidates in :mod:`repro.core.search` reuse each other's
  work.  The differential-testing oracle lives in ``tests/oracles/``.

>>> from repro.graph.database import GraphDatabase
>>> from repro.graph.parser import parse_nre
>>> engine = QueryEngine()
>>> g = GraphDatabase(edges=[("u", "a", "v"), ("v", "a", "w")])
>>> sorted(engine.pairs(g, parse_nre("a . a")))
[('u', 'w')]
>>> engine.holds(g, parse_nre("a*"), "u", "w")
True
>>> engine.stats.all_pairs_queries, engine.stats.single_pair_queries
(1, 1)
>>> engine.stats.relations_evaluated
2
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, fields
from typing import Hashable, Iterable

from repro.graph.database import Fingerprint, GraphDatabase
from repro.graph.eval import Relation, evaluate_relation
from repro.graph.nre import NRE
from repro.telemetry import span

Node = Hashable
PairSet = frozenset[tuple[Node, Node]]


@dataclass
class EvalStats:
    """Observability counters for a query engine (mirrors ``ChaseStats``).

    >>> stats = EvalStats()
    >>> stats.all_pairs_queries += 1
    >>> "all_pairs_queries=1" in stats.summary()
    True
    """

    all_pairs_queries: int = 0
    """Full-relation evaluations requested."""

    single_source_queries: int = 0
    """Single-source reachability evaluations requested."""

    batched_source_queries: int = 0
    """Domain sources answered by ``answers_over``'s one evaluation each."""

    single_pair_queries: int = 0
    """Single-pair decisions requested."""

    relations_evaluated: int = 0
    """Reads evaluated by the algebra (whole, or one source's row)."""

    graph_cache_hits: int = 0
    """Queries that found their graph's state in the cross-candidate cache."""

    graph_cache_misses: int = 0
    """Queries that had to open a fresh per-graph state."""

    uncacheable_graphs: int = 0
    """Queries on destructively-mutated graphs (no fingerprint, no sharing)."""

    def as_dict(self) -> dict[str, int]:
        """Every counter as a plain dict (telemetry folding, reporting).

        >>> EvalStats(graph_cache_hits=3).as_dict()["graph_cache_hits"]
        3
        """
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def summary(self) -> str:
        """Return a one-line ``key=value`` rendering of every counter."""
        return " ".join(
            f"{f.name}={getattr(self, f.name)}" for f in fields(self)
        )


class _GraphState:
    """Per-graph state: shared subexpression relations plus three result caches."""

    __slots__ = ("graph", "relations", "pairs", "answers", "reach")

    def __init__(self, graph: GraphDatabase):
        self.graph = graph
        # Unrestricted subexpression relations, shared by every probe.
        self.relations: dict[NRE, Relation] = {}
        self.pairs: dict[NRE, PairSet] = {}
        # expr → domain → answers_over's pairs within domain × domain.
        self.answers: dict[NRE, dict[frozenset[Node], PairSet]] = {}
        # expr → source → targets: the expression is hashed once per read.
        self.reach: dict[NRE, dict[Node, frozenset[Node]]] = {}

    def rebind(self, graph: GraphDatabase) -> None:
        """Read ``graph`` (same content, different object) from now on.

        Cached states outlive the graph object they were built from; when a
        content-equal graph hits the cache, rebinding guarantees the state
        reads a graph that *currently* matches the fingerprint (the original
        object could have been destructively mutated since).  The
        subexpression relations go too: label relations share the old
        object's index sets.  A state whose graph is *frozen* never
        rebinds: frozen graphs cannot drift from their fingerprint, so the
        state keeps reading the frozen graph.
        """
        if self.graph is not graph and not self.graph.is_frozen:
            self.graph = graph
            self.relations.clear()


class QueryEngine:
    """Memoising NRE evaluation over many graphs.

    ``max_graphs`` bounds the cross-candidate cache (LRU eviction).

    Graphs evaluate as handed in: mutable, frozen and snapshot-loaded
    graphs keep the same per-label indexes, which the algebra reads.

    ``backend`` is a retired keyword kept as a shim: ``"dict"`` and
    ``"csr"`` are accepted and change nothing, any other value raises
    :class:`ValueError`.  It goes with the ROADMAP benchmark-upkeep
    change, which stops ``perfbench/`` from passing it.
    """

    def __init__(
        self,
        stats: EvalStats | None = None,
        max_graphs: int = 256,
        backend: str = "dict",
    ):
        if backend not in ("dict", "csr"):
            raise ValueError(
                f"unknown storage backend {backend!r}; expected one of "
                "['dict', 'csr']"
            )
        self.stats = stats if stats is not None else EvalStats()
        self.max_graphs = max_graphs
        self._cache: OrderedDict[Fingerprint, _GraphState] = OrderedDict()

    # ------------------------------------------------------------------ #
    # Query API
    # ------------------------------------------------------------------ #

    def pairs(self, graph: GraphDatabase, expr: NRE) -> PairSet:
        """Return ``⟦expr⟧_graph`` as a frozenset of pairs (all-pairs mode)."""
        self.stats.all_pairs_queries += 1
        state = self._state(graph)
        cached = state.pairs.get(expr)
        if cached is None:
            relation = self._relation(state.graph, expr)
            with span("query.decode"):
                cached = state.pairs[expr] = relation.pairs(state.graph)
        return cached

    def reachable(
        self, graph: GraphDatabase, expr: NRE, source: Node
    ) -> frozenset[Node]:
        """Return ``{v | (source, v) ∈ ⟦expr⟧_graph}`` (single-source mode)."""
        self.stats.single_source_queries += 1
        if source not in graph:
            return frozenset()
        return self._reach(self._state(graph), expr, source)

    def holds(
        self, graph: GraphDatabase, expr: NRE, source: Node, target: Node
    ) -> bool:
        """Decide ``(source, target) ∈ ⟦expr⟧_graph``.

        Consults the all-pairs and single-source caches first, so a pair
        already implied by broader cached work costs one dictionary lookup;
        otherwise the source's targets are evaluated once and cached.
        """
        self.stats.single_pair_queries += 1
        if source not in graph or target not in graph:
            return False
        state = self._state(graph)
        pairs = state.pairs.get(expr)
        if pairs is not None:
            return (source, target) in pairs
        return target in self._reach(state, expr, source)

    def answers_over(
        self, graph: GraphDatabase, expr: NRE, domain: Iterable[Node]
    ) -> PairSet:
        """Return ``⟦expr⟧_graph`` restricted to ``domain × domain``.

        The certain-answer engine only ever reports tuples over the source
        active domain.  That domain covers most nodes of a universal
        solution, so the relation is evaluated once, unrestricted, and
        decoded straight into the answers from the rows of the domain's
        nodes, with no per-source set.  The answers are cached per
        (graph, expression, domain), so a repeated read of a candidate
        solution costs one lookup.
        """
        members = frozenset(domain)
        self.stats.batched_source_queries += len(members)
        state = self._state(graph)
        cache = state.answers.setdefault(expr, {})
        answers = cache.get(members)
        if answers is None:
            relation = self._relation(state.graph, expr)
            with span("query.decode"):
                answers = cache[members] = relation.pairs(state.graph, members)
        return answers

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _relation(self, graph: GraphDatabase, expr: NRE) -> Relation:
        self.stats.relations_evaluated += 1
        with span("query.relation"):
            return evaluate_relation(graph, expr)

    def _reach(
        self, state: _GraphState, expr: NRE, source: Node
    ) -> frozenset[Node]:
        """The targets of ``source``, a node of the state's graph."""
        reach = state.reach.setdefault(expr, {})
        cached = reach.get(source)
        if cached is not None:
            return cached
        pairs = state.pairs.get(expr)
        if pairs is None:
            self.stats.relations_evaluated += 1
            relation = evaluate_relation(state.graph, expr, {source}, state.relations)
            cached = reach[source] = relation.targets((source,))[source]
            return cached
        # Group the cached relation by source once: every node gets a row.
        rows: dict[Node, list[Node]] = {}
        for u, v in pairs:
            rows.setdefault(u, []).append(v)
        reach.update(dict.fromkeys(state.graph.nodes(), frozenset()))
        reach.update((u, frozenset(targets)) for u, targets in rows.items())
        return reach[source]

    def _state(self, graph: GraphDatabase) -> _GraphState:
        token = graph.fingerprint()
        if token is None:
            # Destructively-mutated graph: evaluate with a transient state.
            self.stats.uncacheable_graphs += 1
            return _GraphState(graph)
        state = self._cache.get(token)
        if state is not None:
            self._cache.move_to_end(token)
            self.stats.graph_cache_hits += 1
            state.rebind(graph)
            return state
        self.stats.graph_cache_misses += 1
        state = _GraphState(graph)
        self._cache[token] = state
        while len(self._cache) > self.max_graphs:
            self._cache.popitem(last=False)
        return state

    def clear(self) -> None:
        """Drop all per-graph state."""
        self._cache.clear()


_DEFAULT_ENGINE: QueryEngine | None = None


def default_engine() -> QueryEngine:
    """Return the process-wide shared :class:`QueryEngine`.

    Core modules that are not handed an explicit engine share this one, so
    candidate solutions examined by different entry points (existence, then
    certain answers) still hit one another's caches, and the service
    workers' requests warm one cache per process.
    """
    global _DEFAULT_ENGINE
    if _DEFAULT_ENGINE is None:
        _DEFAULT_ENGINE = QueryEngine()
    return _DEFAULT_ENGINE


def live_engines() -> list[QueryEngine]:
    """Every process-wide shared engine currently warm.

    The introspection hook worker processes use to flush accumulated
    :class:`EvalStats` counters into the telemetry registry at response
    time (``repro.telemetry.fold_stats`` folds by delta, so repeated
    flushes of these cumulative objects never double count).
    """
    return [] if _DEFAULT_ENGINE is None else [_DEFAULT_ENGINE]
