"""The compiled NRE query engine.

This module is the query-side counterpart of the delta-chase engine: where
:mod:`repro.engine.matcher` made *trigger matching* incremental, this makes
*query evaluation* compiled and shared.  The certain-answer pipeline
(:mod:`repro.core.certain` / :mod:`repro.core.search`) enumerates many
near-identical candidate solutions and asks the same NRE/CNRE questions of
each; the seed code re-ran the set-algebraic evaluator from scratch per
candidate, materialising full all-pairs relations even to decide one pair.
:class:`QueryEngine` removes that waste along three axes:

* **compile once** — NREs are lowered through the cached
  :func:`repro.graph.automaton.compile_nre` into ε-free, label-indexed
  :class:`~repro.graph.automaton.CompiledAutomaton` form; one compilation
  serves every candidate;
* **ask only what is asked** — :meth:`QueryEngine.holds` decides a single
  pair with an early-exit product BFS and :meth:`QueryEngine.reachable`
  evaluates a single source, so ``is_certain_answer`` never materialises an
  all-pairs relation; nested ``[·]`` tests are memoised per (sub-automaton,
  node) inside each graph's runner;
* **share across candidates** — results are cached per graph *content*,
  keyed on the :meth:`~repro.graph.database.GraphDatabase.fingerprint`
  derived from the append-only edge journal, so sibling candidates in
  :mod:`repro.core.search` (and the same witness re-examined by existence
  and certain-answer passes) reuse each other's work instead of restarting.

The set-algebraic evaluator (:mod:`repro.graph.eval`) is the
differential-testing oracle; the test suite wraps it behind this
engine's interface (``tests/oracles/reference_engine.py``).

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
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, fields
from typing import Hashable, Iterable

from repro.graph.automaton import NREAutomaton, _Runner, compile_nre
from repro.graph.database import Fingerprint, GraphDatabase
from repro.graph.nre import NRE

Node = Hashable
Pair = tuple[Node, Node]
PairSet = frozenset[Pair]


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
    """Sources answered through batched multi-source evaluations."""

    single_pair_queries: int = 0
    """Single-pair (early-exit) decisions requested."""

    automata_compiled: int = 0
    """Distinct NREs this engine compiled (cache-miss compilations)."""

    automaton_states: int = 0
    """Total Thompson states across those compiled automata."""

    nested_tests: int = 0
    """Nested ``[·]`` test evaluations actually run."""

    nested_test_cache_hits: int = 0
    """Nested test answers served from a runner's memo table."""

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
    """Per-graph evaluation state: one runner plus three result caches."""

    __slots__ = ("graph", "runner", "pairs", "reach", "holds")

    def __init__(self, graph: GraphDatabase, stats: EvalStats):
        self.graph = graph
        self.runner = _Runner(graph, stats)
        self.pairs: dict[NRE, PairSet] = {}
        self.reach: dict[tuple[NRE, Node], frozenset[Node]] = {}
        self.holds: dict[tuple[NRE, Node, Node], bool] = {}

    def rebind(self, graph: GraphDatabase) -> None:
        """Point the runner at ``graph`` (same content, different object).

        Cached states outlive the graph object they were built from; when a
        content-equal graph hits the cache, rebinding guarantees the runner
        reads a graph that *currently* matches the fingerprint (the original
        object could have been destructively mutated since).  A state whose
        graph is *frozen* never rebinds: frozen graphs cannot drift from
        their fingerprint, so the state keeps reading the frozen graph.
        """
        if self.graph is not graph and not self.graph.is_frozen:
            self.graph = graph
            self.runner.rebind(graph)


class QueryEngine:
    """Compiled, memoising NRE evaluation over many graphs.

    ``max_graphs`` bounds the cross-candidate cache (LRU eviction); the
    per-expression automaton table is unbounded but tiny (one entry per
    distinct query/subexpression ever evaluated).

    Graphs evaluate as handed in: mutable, frozen and snapshot-loaded
    graphs keep the same per-label indexes, which the one product search
    reads.

    ``backend`` is a retired keyword kept as a shim: ``"dict"`` and
    ``"csr"`` are accepted and change nothing, any other value raises
    :class:`ValueError`.  It goes with the ROADMAP benchmark-upkeep
    change, which stops ``perfbench/`` from passing it.
    """

    name = "compiled"

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
        self._automata: dict[NRE, NREAutomaton] = {}
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
            automaton = self._automaton(expr).compiled()
            answers = state.runner.reachable_many(automaton, graph.nodes())
            cached = state.pairs[expr] = frozenset(
                (source, target)
                for source, targets in answers.items()
                for target in targets
            )
        return cached

    def reachable(
        self, graph: GraphDatabase, expr: NRE, source: Node
    ) -> frozenset[Node]:
        """Return ``{v | (source, v) ∈ ⟦expr⟧_graph}`` (single-source mode)."""
        self.stats.single_source_queries += 1
        if source not in graph:
            return frozenset()
        state = self._state(graph)
        key = (expr, source)
        cached = state.reach.get(key)
        if cached is not None:
            return cached
        pairs = state.pairs.get(expr)
        if pairs is not None:
            cached = frozenset(v for u, v in pairs if u == source)
        else:
            cached = state.runner.reachable(self._automaton(expr).compiled(), source)
        state.reach[key] = cached
        return cached

    def reachable_many(
        self, graph: GraphDatabase, expr: NRE, sources: Iterable[Node]
    ) -> dict[Node, frozenset[Node]]:
        """Batched :meth:`reachable`: one answer set per source.

        The bulk-traversal entry point: the automaton is compiled and
        bound to the graph's indexes once for every uncached source
        (:meth:`_Runner.reachable_many`).  Per-source cache entries are
        consulted first and populated afterwards, so mixing this with
        :meth:`reachable` stays coherent.
        """
        sources = list(sources)
        self.stats.batched_source_queries += len(sources)
        state = self._state(graph)
        answers: dict[Node, frozenset[Node]] = {}
        misses: list[Node] = []
        pairs = state.pairs.get(expr)
        for source in sources:
            if source not in graph:
                answers[source] = frozenset()
                continue
            cached = state.reach.get((expr, source))
            if cached is None and pairs is not None:
                cached = frozenset(v for u, v in pairs if u == source)
                state.reach[(expr, source)] = cached
            if cached is not None:
                answers[source] = cached
            else:
                misses.append(source)
        if misses:
            fresh = state.runner.reachable_many(
                self._automaton(expr).compiled(), misses
            )
            for source, targets in fresh.items():
                state.reach[(expr, source)] = targets
                answers[source] = targets
        return answers

    def holds(
        self, graph: GraphDatabase, expr: NRE, source: Node, target: Node
    ) -> bool:
        """Decide ``(source, target) ∈ ⟦expr⟧_graph`` with early exit.

        Consults the all-pairs and single-source caches first, so a pair
        already implied by broader cached work costs one dictionary lookup.
        """
        self.stats.single_pair_queries += 1
        if source not in graph or target not in graph:
            return False
        state = self._state(graph)
        pairs = state.pairs.get(expr)
        if pairs is not None:
            return (source, target) in pairs
        reach = state.reach.get((expr, source))
        if reach is not None:
            return target in reach
        key = (expr, source, target)
        cached = state.holds.get(key)
        if cached is None:
            cached = state.holds[key] = state.runner.holds(
                self._automaton(expr).compiled(), source, target
            )
        return cached

    def answers_over(
        self, graph: GraphDatabase, expr: NRE, domain: Iterable[Node]
    ) -> PairSet:
        """Return ``⟦expr⟧_graph`` restricted to ``domain × domain``.

        The certain-answer engine only ever reports tuples over the source
        active domain, which is typically far smaller than the solution
        graph — so this runs one batched multi-source query over the
        domain instead of materialising the full relation.
        """
        members = set(domain)
        result: set[Pair] = set()
        for source, targets in self.reachable_many(graph, expr, members).items():
            for target in targets:
                if target in members:
                    result.add((source, target))
        return frozenset(result)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _automaton(self, expr: NRE) -> NREAutomaton:
        automaton = self._automata.get(expr)
        if automaton is None:
            automaton = self._automata[expr] = compile_nre(expr)
            self.stats.automata_compiled += 1
            self.stats.automaton_states += automaton.state_count
        return automaton

    def _state(self, graph: GraphDatabase) -> _GraphState:
        token = graph.fingerprint()
        if token is None:
            # Destructively-mutated graph: evaluate with a transient state
            # (nested-test memoisation still applies within one query).
            self.stats.uncacheable_graphs += 1
            return _GraphState(graph, self.stats)
        state = self._cache.get(token)
        if state is not None:
            self._cache.move_to_end(token)
            self.stats.graph_cache_hits += 1
            state.rebind(graph)
            return state
        self.stats.graph_cache_misses += 1
        state = _GraphState(graph, self.stats)
        self._cache[token] = state
        while len(self._cache) > self.max_graphs:
            self._cache.popitem(last=False)
        return state

    def clear(self) -> None:
        """Drop all per-graph state (the automaton table survives)."""
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
