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

The set-algebraic evaluator (:mod:`repro.graph.eval`) is unchanged and kept
as the differential-testing oracle; :class:`ReferenceEngine` exposes it
behind the same interface so both paths stay runnable end to end (the CLI's
``--engine {compiled,reference}`` flag switches between them).

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
from repro.graph.eval import evaluate_nre
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

    csr_refreezes: int = 0
    """CSR freezes served by journal replay from the previous frozen tip
    (only the update batch's labels rebuilt) instead of a cold freeze."""

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
        their fingerprint, and keeping them pinned is what lets a
        ``backend="csr"`` engine serve dict-backed lookups from the frozen
        twin it built on the first miss.
        """
        if self.graph is not graph and not self.graph.is_frozen:
            self.graph = graph
            self.runner.rebind(graph)


BACKEND_NAMES = ("dict", "csr")
"""The storage back-ends an engine can evaluate on (see ``--backend``)."""


class QueryEngine:
    """Compiled, memoising NRE evaluation over many graphs.

    ``max_graphs`` bounds the cross-candidate cache (LRU eviction); the
    per-expression automaton table is unbounded but tiny (one entry per
    distinct query/subexpression ever evaluated).

    ``backend`` selects the storage representation evaluation runs on
    (:mod:`repro.graph.backends`): ``"dict"`` (default) evaluates graphs
    as handed in, while ``"csr"`` freezes each cacheable graph to the
    interned-CSR backend on its first appearance — the runner then takes
    the integer-id fast paths for every query against that fingerprint,
    which is the profitable trade whenever a graph is queried more than
    once (the chased-result serving shape).  Answers are byte-identical
    across back-ends; only the physical evaluation differs.  Graphs that
    cannot be fingerprinted (destructively mutated) are never frozen
    implicitly — they evaluate on their own backend.

    On CSR graphs the search follows the call shape (:mod:`repro.kernels`):
    sweeps (:meth:`pairs`, :meth:`reachable`, :meth:`reachable_many`,
    :meth:`answers_over`) run the numpy vector search and :meth:`holds`
    runs the generated-code search; without numpy, codegen runs both.
    """

    name = "compiled"

    def __init__(
        self,
        stats: EvalStats | None = None,
        max_graphs: int = 256,
        backend: str = "dict",
    ):
        if backend not in BACKEND_NAMES:
            raise ValueError(
                f"unknown storage backend {backend!r}; expected one of "
                f"{list(BACKEND_NAMES)}"
            )
        self.stats = stats if stats is not None else EvalStats()
        self.max_graphs = max_graphs
        self.backend = backend
        self._automata: dict[NRE, NREAutomaton] = {}
        self._cache: OrderedDict[Fingerprint, _GraphState] = OrderedDict()
        # The most recently frozen graph (backend="csr" only): an update
        # batch typically extends its journal, so the next freeze replays
        # just the suffix instead of rebuilding every CSR buffer.
        self._frozen_tip: GraphDatabase | None = None

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

        The bulk-traversal entry point: on a CSR graph with numpy every
        uncached source runs through *one* multi-source product search
        (:meth:`_Runner.reachable_many`), so the per-query numpy dispatch
        overhead is amortised over the whole sweep.  Per-source cache
        entries are consulted first and populated afterwards, so mixing
        this with :meth:`reachable` stays coherent.
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
        if self.backend == "csr":
            # Freeze once per fingerprint; every later query against this
            # content runs the interned integer-id fast path.
            graph = self._freeze_incremental(graph, token)
        state = _GraphState(graph, self.stats)
        self._cache[token] = state
        while len(self._cache) > self.max_graphs:
            self._cache.popitem(last=False)
        return state

    def _freeze_incremental(
        self, graph: GraphDatabase, token: Fingerprint
    ) -> GraphDatabase:
        """Freeze ``graph``, replaying from the last frozen tip when possible.

        When ``graph``'s journal extends the previous frozen graph's journal
        (the live-update serving shape: each batch appends edges), the new
        frozen twin is built with
        :meth:`~repro.graph.database.GraphDatabase.refreeze` — only the
        batch's labels rebuild their CSR buffers.  The replayed result is
        accepted only if its fingerprint equals ``token`` (isolated-node
        additions or interleaved deletions make the journals diverge);
        otherwise this falls back to a cold :meth:`freeze`.
        """
        tip = self._frozen_tip
        if tip is not None and not graph.is_frozen:
            tip_token = tip.fingerprint()
            if tip_token is not None:
                tip_journal = tip_token.key[1]
                journal = token.key[1]
                if (
                    len(journal) >= len(tip_journal)
                    and journal[: len(tip_journal)] == tip_journal
                ):
                    candidate = tip.refreeze(journal[len(tip_journal) :])
                    if candidate.fingerprint() == token:
                        self.stats.csr_refreezes += 1
                        self._frozen_tip = candidate
                        return candidate
        frozen = graph if graph.is_frozen else graph.freeze()
        self._frozen_tip = frozen
        return frozen

    def clear(self) -> None:
        """Drop all per-graph state (the automaton table survives)."""
        self._cache.clear()
        self._frozen_tip = None


class ReferenceEngine:
    """The set-algebraic oracle behind the same interface as the engine.

    No compilation, no cross-candidate caching, no early exit — every call
    materialises the full relation with :func:`repro.graph.eval.evaluate_nre`
    exactly as the seed code did.  Useful as the ``--engine reference`` CLI
    path and as the oracle half of differential tests.
    """

    name = "reference"

    def __init__(self, stats: EvalStats | None = None):
        self.stats = stats if stats is not None else EvalStats()

    def pairs(self, graph: GraphDatabase, expr: NRE) -> PairSet:
        """Return ``⟦expr⟧_graph`` via the reference evaluator."""
        self.stats.all_pairs_queries += 1
        return evaluate_nre(graph, expr)

    def reachable(
        self, graph: GraphDatabase, expr: NRE, source: Node
    ) -> frozenset[Node]:
        """Single-source answers, filtered from the full relation."""
        self.stats.single_source_queries += 1
        return frozenset(v for u, v in evaluate_nre(graph, expr) if u == source)

    def reachable_many(
        self, graph: GraphDatabase, expr: NRE, sources: Iterable[Node]
    ) -> dict[Node, frozenset[Node]]:
        """Per-source answers, all filtered from one full relation."""
        sources = list(sources)
        self.stats.batched_source_queries += len(sources)
        relation = evaluate_nre(graph, expr)
        answers: dict[Node, set[Node]] = {source: set() for source in sources}
        for u, v in relation:
            if u in answers:
                answers[u].add(v)
        return {source: frozenset(targets) for source, targets in answers.items()}

    def holds(
        self, graph: GraphDatabase, expr: NRE, source: Node, target: Node
    ) -> bool:
        """Single-pair membership, decided on the full relation."""
        self.stats.single_pair_queries += 1
        return (source, target) in evaluate_nre(graph, expr)

    def answers_over(
        self, graph: GraphDatabase, expr: NRE, domain: Iterable[Node]
    ) -> PairSet:
        """The full relation restricted to ``domain × domain``."""
        self.stats.all_pairs_queries += 1
        members = set(domain)
        return frozenset(
            (u, v)
            for u, v in evaluate_nre(graph, expr)
            if u in members and v in members
        )


_DEFAULT_ENGINES: dict[str, QueryEngine] = {}


def default_engine(backend: str = "dict") -> QueryEngine:
    """Return the process-wide shared :class:`QueryEngine` for ``backend``.

    Core modules that are not handed an explicit engine share this one, so
    candidate solutions examined by different entry points (existence, then
    certain answers) still hit one another's caches.  One engine is kept
    per storage backend — the service workers route requests carrying a
    ``backend`` parameter to the matching warm instance.
    """
    engine = _DEFAULT_ENGINES.get(backend)
    if engine is None:
        engine = _DEFAULT_ENGINES[backend] = QueryEngine(backend=backend)
    return engine


def live_engines() -> list[QueryEngine]:
    """Every process-wide shared engine currently warm.

    The introspection hook worker processes use to flush accumulated
    :class:`EvalStats` counters into the telemetry registry at response
    time (``repro.telemetry.fold_stats`` folds by delta, so repeated
    flushes of these cumulative objects never double count).
    """
    return list(_DEFAULT_ENGINES.values())
