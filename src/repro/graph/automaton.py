"""Product-automaton evaluation of NREs.

An NRE is compiled, Thompson-style, into a nondeterministic finite automaton
whose transitions are of four kinds:

* ``eps`` — spontaneous;
* ``fwd a`` — traverse a forward ``a``-edge of the graph;
* ``bwd a`` — traverse an ``a``-edge backwards;
* ``test A`` — a *nested test*: stay on the current node ``u`` provided some
  node is reachable from ``u`` in the sub-automaton ``A`` (this implements
  the ``[r]`` combinator of [5]).

Evaluation is a BFS over the product of the graph and the automaton, which is
the textbook PTIME algorithm for (nested) RPQs.  Nested tests are memoised
per (automaton, node).

Two compilation layers exist.  :func:`compile_nre` produces the Thompson NFA
(one transition list, mostly ε moves) and is cached with
:func:`functools.lru_cache` — NRE nodes are frozen dataclasses, so equal
expressions share one automaton.  :meth:`NREAutomaton.compiled` then lowers
the NFA, once, into a :class:`CompiledAutomaton`: ε transitions are
eliminated by precomputing ε-closures, and the surviving moves are bucketed
per state *by edge label*, so the product BFS steps straight from a config
``(node, state)`` to its successors through the graph's per-label hash
indexes without ever touching an ε edge at run time.

The product BFS reads only the graph's dict-shaped per-label indexes
(:meth:`~repro.graph.database.GraphDatabase.forward_index` /
``backward_index``), so it runs unchanged on every storage backend: a
frozen or snapshot-loaded graph serves those indexes as views built once
per label from its CSR buffers.  There is one search.

This module is an independent implementation of the same semantics as
:mod:`repro.graph.eval`; the two are differential-tested against each other
in the property-based test suite.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Hashable, Iterable

from repro.graph.database import GraphDatabase
from repro.graph.nre import (
    NRE,
    Backward,
    Concat,
    Epsilon,
    Label,
    Nest,
    Star,
    Union,
)

Node = Hashable


@dataclass(frozen=True)
class Transition:
    """A single automaton transition ``source --kind/payload--> target``."""

    source: int
    kind: str  # "eps" | "fwd" | "bwd" | "test"
    payload: object  # label name for fwd/bwd, NREAutomaton for test, None for eps
    target: int


# Monotonic per-process ids for CompiledAutomaton memo keying: unlike
# id(), a key is never reused after its automaton is garbage-collected,
# so long-lived memo tables cannot silently alias two automata that
# happened to occupy the same address.
_cache_key_counter = itertools.count()


@dataclass(frozen=True, eq=False)  # identity semantics: one key per instance
class CompiledAutomaton:
    """The ε-free, label-indexed lowering of an :class:`NREAutomaton`.

    Per state ``s`` (with ``C(s)`` its ε-closure):

    * ``accepting[s]`` — whether ``accept ∈ C(s)``;
    * ``fwd[s]`` / ``bwd[s]`` — label → target states of the forward/backward
      moves leaving any state of ``C(s)``;
    * ``tests[s]`` — ``(sub_automaton, target)`` pairs for the nested tests
      leaving any state of ``C(s)``, with the body already compiled.

    The product BFS therefore only ever enqueues configs whose state is the
    start state or the target of a non-ε move — a fraction of the Thompson
    state count.
    """

    start: int
    accepting: tuple[bool, ...]
    fwd: tuple[dict[str, tuple[int, ...]], ...]
    bwd: tuple[dict[str, tuple[int, ...]], ...]
    tests: tuple[tuple[tuple["CompiledAutomaton", int], ...], ...]
    state_count: int

    @property
    def cache_key(self) -> int:
        """A process-unique, never-recycled id for memo tables.

        ``id()`` keyed the nested-test and resolved-move memos before,
        which can alias: garbage-collect an automaton and a newly
        compiled one may reuse its address, silently inheriting its memo
        entries.  The counter-based key is assigned on first use and
        lives exactly as long as the instance.
        """
        key = self.__dict__.get("_cache_key")
        if key is None:
            key = next(_cache_key_counter)
            object.__setattr__(self, "_cache_key", key)
        return key

    def __getstate__(self) -> dict:
        # Never pickle the cache key: an automaton restored in another
        # process must get a fresh key there, or two restored automata
        # could collide on keys assigned by different original processes.
        state = self.__dict__.copy()
        state.pop("_cache_key", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)


@dataclass
class NREAutomaton:
    """A Thompson-style NFA with one start and one accept state."""

    start: int = 0
    accept: int = 1
    state_count: int = 2
    transitions: list[Transition] = field(default_factory=list)
    _outgoing: dict[int, list[Transition]] | None = field(default=None, repr=False)
    _compiled: CompiledAutomaton | None = field(
        default=None, repr=False, compare=False
    )

    def outgoing(self, state: int) -> list[Transition]:
        """Return the transitions leaving ``state`` (indexed lazily)."""
        if self._outgoing is None:
            index: dict[int, list[Transition]] = {}
            for transition in self.transitions:
                index.setdefault(transition.source, []).append(transition)
            self._outgoing = index
        return self._outgoing.get(state, [])

    def compiled(self) -> CompiledAutomaton:
        """Return the ε-free label-indexed form (lowered lazily, once)."""
        if self._compiled is None:
            self._compiled = _lower(self)
        return self._compiled


def _lower(automaton: NREAutomaton) -> CompiledAutomaton:
    """Eliminate ε transitions and bucket the remaining moves by label."""
    count = automaton.state_count
    eps_adjacency: list[list[int]] = [[] for _ in range(count)]
    concrete: list[list[Transition]] = [[] for _ in range(count)]
    for transition in automaton.transitions:
        if transition.kind == "eps":
            eps_adjacency[transition.source].append(transition.target)
        else:
            concrete[transition.source].append(transition)
    closures: list[set[int]] = []
    for state in range(count):
        closure = {state}
        stack = [state]
        while stack:
            for nxt in eps_adjacency[stack.pop()]:
                if nxt not in closure:
                    closure.add(nxt)
                    stack.append(nxt)
        closures.append(closure)
    accepting = tuple(automaton.accept in closure for closure in closures)
    fwd: list[dict[str, tuple[int, ...]]] = []
    bwd: list[dict[str, tuple[int, ...]]] = []
    tests: list[tuple[tuple[CompiledAutomaton, int], ...]] = []
    for state in range(count):
        forward: dict[str, dict[int, None]] = {}
        backward_moves: dict[str, dict[int, None]] = {}
        checks: list[tuple[CompiledAutomaton, int]] = []
        for member in closures[state]:
            for transition in concrete[member]:
                if transition.kind == "fwd":
                    forward.setdefault(transition.payload, {})[  # type: ignore[index]
                        transition.target
                    ] = None
                elif transition.kind == "bwd":
                    backward_moves.setdefault(transition.payload, {})[  # type: ignore[index]
                        transition.target
                    ] = None
                else:  # "test"
                    nested: NREAutomaton = transition.payload  # type: ignore[assignment]
                    checks.append((nested.compiled(), transition.target))
        fwd.append({lab: tuple(targets) for lab, targets in forward.items()})
        bwd.append({lab: tuple(targets) for lab, targets in backward_moves.items()})
        tests.append(tuple(checks))
    return CompiledAutomaton(
        start=automaton.start,
        accepting=accepting,
        fwd=tuple(fwd),
        bwd=tuple(bwd),
        tests=tuple(tests),
        state_count=count,
    )


class _Builder:
    """Accumulates states and transitions during compilation."""

    def __init__(self) -> None:
        self.count = 0
        self.transitions: list[Transition] = []

    def fresh(self) -> int:
        state = self.count
        self.count += 1
        return state

    def add(self, source: int, kind: str, payload: object, target: int) -> None:
        self.transitions.append(Transition(source, kind, payload, target))


def _compile(expr: NRE, builder: _Builder) -> tuple[int, int]:
    """Compile ``expr`` to a fragment, returning its (start, accept) states."""
    start, accept = builder.fresh(), builder.fresh()
    if isinstance(expr, Epsilon):
        builder.add(start, "eps", None, accept)
    elif isinstance(expr, Label):
        builder.add(start, "fwd", expr.name, accept)
    elif isinstance(expr, Backward):
        builder.add(start, "bwd", expr.name, accept)
    elif isinstance(expr, Union):
        for part in (expr.left, expr.right):
            sub_start, sub_accept = _compile(part, builder)
            builder.add(start, "eps", None, sub_start)
            builder.add(sub_accept, "eps", None, accept)
    elif isinstance(expr, Concat):
        left_start, left_accept = _compile(expr.left, builder)
        right_start, right_accept = _compile(expr.right, builder)
        builder.add(start, "eps", None, left_start)
        builder.add(left_accept, "eps", None, right_start)
        builder.add(right_accept, "eps", None, accept)
    elif isinstance(expr, Star):
        sub_start, sub_accept = _compile(expr.inner, builder)
        builder.add(start, "eps", None, accept)
        builder.add(start, "eps", None, sub_start)
        builder.add(sub_accept, "eps", None, sub_start)
        builder.add(sub_accept, "eps", None, accept)
    elif isinstance(expr, Nest):
        nested = compile_nre(expr.inner)
        builder.add(start, "test", nested, accept)
    else:  # pragma: no cover - exhaustive over the AST
        raise TypeError(f"unknown NRE node {expr!r}")
    return start, accept


@functools.lru_cache(maxsize=1024)
def compile_nre(expr: NRE) -> NREAutomaton:
    """Compile an NRE into an :class:`NREAutomaton` (memoised).

    Nested tests compile their bodies into separate sub-automata referenced
    by ``test`` transitions, so the result is a tree of automata mirroring
    the nesting structure of the expression.

    NRE nodes are frozen, hashable values, so compilation is cached with
    :func:`functools.lru_cache`: evaluating the same query across thousands
    of candidate solutions compiles it exactly once, and the shared automaton
    object keys the nested-test memo tables by identity.  Callers must treat
    the result as immutable.
    """
    builder = _Builder()
    start, accept = _compile(expr, builder)
    return NREAutomaton(
        start=start,
        accept=accept,
        state_count=builder.count,
        transitions=builder.transitions,
    )


class _Runner:
    """Evaluates automata over one fixed graph, memoising nested tests.

    ``stats`` is duck-typed (:class:`repro.engine.query.EvalStats` or any
    object with ``nested_tests`` / ``nested_test_cache_hits`` counters).

    Every call runs :meth:`_search`, the product BFS over the graph's
    per-label adjacency dicts, whatever the graph's storage backend.
    """

    def __init__(self, graph: GraphDatabase, stats: object | None = None):
        self.graph = graph
        self.stats = stats
        self._test_cache: dict[tuple[int, Node], bool] = {}
        # CompiledAutomaton.cache_key → per-state move tables with the
        # graph's per-label adjacency dicts looked up.
        self._resolved: dict[int, tuple] = {}

    def rebind(self, graph: GraphDatabase) -> None:
        """Point the runner at ``graph`` (same content, different object).

        Nested-test memos keyed by node carry over (they depend only on
        content); the resolved move tables do not (they hold the old
        object's adjacency dicts), so they are rebuilt lazily.
        """
        self.graph = graph
        self._resolved.clear()

    def _resolve(self, compiled: CompiledAutomaton) -> tuple:
        """Bind the automaton's per-state moves to this graph's indexes.

        Each fwd/bwd move becomes ``(adjacency_dict, target_states)`` with
        the label already resolved, so the product BFS does one dict ``get``
        per step instead of a method call plus a label lookup.
        """
        key = compiled.cache_key
        resolved = self._resolved.get(key)
        if resolved is None:
            graph = self.graph
            per_state = []
            for state in range(compiled.state_count):
                forward = tuple(
                    (graph.forward_index(lab), targets)
                    for lab, targets in compiled.fwd[state].items()
                )
                backward = tuple(
                    (graph.backward_index(lab), targets)
                    for lab, targets in compiled.bwd[state].items()
                )
                per_state.append((forward, backward, compiled.tests[state]))
            resolved = self._resolved[key] = tuple(per_state)
        return resolved

    def _compiled(self, automaton: NREAutomaton | CompiledAutomaton) -> CompiledAutomaton:
        if isinstance(automaton, NREAutomaton):
            return automaton.compiled()
        return automaton

    def reachable(
        self, automaton: NREAutomaton | CompiledAutomaton, source: Node
    ) -> frozenset[Node]:
        """Return the nodes reachable from ``source`` through ``automaton``."""
        if source not in self.graph:
            return frozenset()
        return frozenset(self._search(self._compiled(automaton), source, _ALL))

    def reachable_many(
        self,
        automaton: NREAutomaton | CompiledAutomaton,
        sources: Iterable[Node],
    ) -> dict[Node, frozenset[Node]]:
        """Batched :meth:`reachable`: one answer set per source.

        The automaton is lowered and bound to the graph's indexes once
        for the whole batch.  Sources outside the graph map to the empty
        set.
        """
        compiled = self._compiled(automaton)
        return {source: self.reachable(compiled, source) for source in sources}

    def holds(
        self, automaton: NREAutomaton | CompiledAutomaton, source: Node, target: Node
    ) -> bool:
        """Single-pair mode: whether ``target`` is reachable from ``source``.

        The product BFS stops as soon as ``target`` is accepted, so deciding
        one pair never materialises the full reachable set.
        """
        if source not in self.graph or target not in self.graph:
            return False
        return self._search(self._compiled(automaton), source, target) is _FOUND

    def _nonempty(self, compiled: CompiledAutomaton, source: Node) -> bool:
        """Whether *any* node is reachable — the nested-test question."""
        return self._search(compiled, source, _ANY) is _FOUND

    def _search(
        self, compiled: CompiledAutomaton, source: Node, target: object
    ) -> object:
        """Product BFS from ``(source, start)``.

        ``target`` selects the mode: :data:`_ALL` collects and returns the
        full hit set, :data:`_ANY` returns :data:`_FOUND` on the first
        accepting config, and a concrete node returns :data:`_FOUND` when
        that node is accepted (early exit in both latter modes).
        """
        accepting = compiled.accepting
        resolved = self._resolve(compiled)
        collect = target is _ALL
        # Visited bookkeeping is one node set per state: hashing a node is
        # cheaper than hashing a (node, state) tuple, and states are dense.
        seen: list[set[Node] | None] = [None] * compiled.state_count
        start = compiled.start
        seen[start] = {source}
        stack: list[tuple[Node, int]] = [(source, start)]
        hits: set[Node] = set()
        while stack:
            node, state = stack.pop()
            if accepting[state]:
                if collect:
                    hits.add(node)
                elif target is _ANY or node == target:
                    return _FOUND
            forward, backward, tests = resolved[state]
            for adjacency, targets in forward:
                successors = adjacency.get(node)
                if successors:
                    for next_state in targets:
                        bucket = seen[next_state]
                        if bucket is None:
                            bucket = seen[next_state] = set()
                        for succ in successors:
                            if succ not in bucket:
                                bucket.add(succ)
                                stack.append((succ, next_state))
            for adjacency, targets in backward:
                predecessors = adjacency.get(node)
                if predecessors:
                    for next_state in targets:
                        bucket = seen[next_state]
                        if bucket is None:
                            bucket = seen[next_state] = set()
                        for pred in predecessors:
                            if pred not in bucket:
                                bucket.add(pred)
                                stack.append((pred, next_state))
            for nested, next_state in tests:
                if self._test(nested, node):
                    bucket = seen[next_state]
                    if bucket is None:
                        bucket = seen[next_state] = set()
                    if node not in bucket:
                        bucket.add(node)
                        stack.append((node, next_state))
        return hits if collect else None

    def _test(self, nested: CompiledAutomaton, node: Node) -> bool:
        key = (nested.cache_key, node)
        cached = self._test_cache.get(key)
        if cached is None:
            stats = self.stats
            if stats is not None:
                stats.nested_tests += 1  # type: ignore[attr-defined]
            cached = self._nonempty(nested, node)
            self._test_cache[key] = cached
        elif self.stats is not None:
            self.stats.nested_test_cache_hits += 1  # type: ignore[attr-defined]
        return cached


# Sentinels selecting the _search mode / signalling an early-exit hit.
_ALL = object()
_ANY = object()
_FOUND = object()


def evaluate_nre_automaton(
    graph: GraphDatabase, expr: NRE
) -> frozenset[tuple[Node, Node]]:
    """Evaluate ``expr`` on ``graph`` via the product automaton.

    Returns the same relation as :func:`repro.graph.eval.evaluate_nre`; the
    two implementations share no code and serve as mutual oracles.
    """
    compiled = compile_nre(expr).compiled()
    runner = _Runner(graph)
    pairs: set[tuple[Node, Node]] = set()
    for source in graph.nodes():
        for target in runner.reachable(compiled, source):
            pairs.add((source, target))
    return frozenset(pairs)


def automaton_reachable(
    graph: GraphDatabase, expr: NRE, source: Node
) -> frozenset[Node]:
    """Single-source evaluation: ``{v | (source, v) ∈ ⟦expr⟧}`` via BFS.

    Unlike the set-algebraic evaluator this touches only the part of the
    product space reachable from ``source`` — the right tool for large
    graphs with selective queries.  Sources outside the graph have no
    answers (matching the reference evaluator's semantics, where even ε
    relates only nodes of ``V``).
    """
    return _Runner(graph).reachable(compile_nre(expr), source)


def automaton_holds(
    graph: GraphDatabase, expr: NRE, source: Node, target: Node
) -> bool:
    """Single-pair evaluation with early exit: ``(source, target) ∈ ⟦expr⟧``.

    >>> from repro.graph.nre import word
    >>> g = GraphDatabase(edges=[("u", "a", "v"), ("v", "a", "w")])
    >>> automaton_holds(g, word("a", "a"), "u", "w")
    True
    >>> automaton_holds(g, word("a", "a"), "v", "u")
    False
    """
    return _Runner(graph).holds(compile_nre(expr), source, target)
