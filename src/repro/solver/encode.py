"""Bounded-model SAT encoding of existence-of-solutions.

Applicable fragment (``SettingFragment.sat_encodable``): s-t tgd heads whose
atoms are unions of forward symbols (``a`` / ``a + b + …``, Theorem 4.1
restriction (iii)) and target constraints that are egds whose body atoms are
unions of words over forward symbols (covering the SORE(·) restriction (iv)).

**Completeness of the bounded search.**  Fix the node set ``N`` = constants
of the chased pattern ∪ its nulls (one null per existential per trigger).
If *any* solution G exists, pick for every trigger a head-witness
assignment in G and let G′ be the subgraph of G induced by the image of N
under those choices (constants map to themselves).  Head atoms are single
edges between nodes of that image, so G′ still satisfies every s-t tgd;
and egds are preserved under induced subgraphs (NREs are monotone, so a
violating match in G′ is a violating match in G).  Hence G′ ⊆ N × Σ × N is
a solution: searching graphs over ``N`` is complete for this fragment.
That search is exactly a SAT instance over one Boolean per possible edge.

Clauses:

* for each s-t tgd trigger without existentials: one clause per head atom —
  the disjunction of its symbol edges;
* with existentials: one auxiliary selector per assignment of existentials
  to nodes; selectors imply their atoms' clauses and at least one selector
  must hold;
* for each egd (after distributing unions into word combinations), each
  assignment of body variables with distinct images for the equated pair,
  and each placement of word-path intermediates: a blocking clause negating
  the conjunction of edges along all paths.
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable, Hashable, Sequence

from repro.core.setting import DataExchangeSetting
from repro.errors import NotSupportedError
from repro.graph.database import GraphDatabase
from repro.graph.nre import NRE, Concat, Label, Union
from repro.mappings.egd import TargetEgd
from repro.relational.instance import RelationalInstance
from repro.relational.query import Variable, is_variable
from repro.solver.cnf import CNF, Clause

Node = Hashable


@functools.lru_cache(maxsize=4096)
def _symbols_of_union(expr: NRE) -> list[str]:
    """Flatten ``a + b + …`` into its symbol list; raise outside the fragment.

    Memoised on the (frozen, hashable) NRE — reduction families reuse the
    same head/body shapes across hundreds of dependencies.  Callers must
    not mutate the returned list.
    """
    if isinstance(expr, Label):
        return [expr.name]
    if isinstance(expr, Union):
        return _symbols_of_union(expr.left) + _symbols_of_union(expr.right)
    raise NotSupportedError(f"head NRE {expr} is not a union of symbols")


def _word_of(expr: NRE) -> list[str]:
    """Flatten ``a₁ · … · aₙ`` into its label sequence; raise otherwise."""
    if isinstance(expr, Label):
        return [expr.name]
    if isinstance(expr, Concat):
        return _word_of(expr.left) + _word_of(expr.right)
    raise NotSupportedError(f"egd NRE {expr} is not a word")


@functools.lru_cache(maxsize=4096)
def _words_of_atom(expr: NRE) -> list[list[str]]:
    """Expand top-level unions into the list of alternative words (memoised)."""
    if isinstance(expr, Union):
        return _words_of_atom(expr.left) + _words_of_atom(expr.right)
    return [_word_of(expr)]


def encode_bounded_existence(
    setting: DataExchangeSetting,
    instance: RelationalInstance,
    nodes: Sequence[Node],
) -> CNF:
    """Encode "a solution over node set ``nodes`` exists" as CNF.

    Edge variables are registered under the names ``("edge", u, a, v)``;
    :func:`decode_edge_model` reads them back.  Raises
    :class:`~repro.errors.NotSupportedError` outside the fragment.
    """
    if setting.sameas_constraints() or setting.general_target_tgds():
        raise NotSupportedError(
            "the SAT encoding covers egd-only settings (Theorem 4.1 fragment)"
        )
    node_list = list(nodes)
    cnf = CNF()
    # Pre-register all edge variables so decode sees a stable universe; the
    # local (u, a, v) → var dict then answers every later lookup with one
    # dict hit instead of going through the CNF name registry.  Because the
    # registration order is fixed by (node list, sorted alphabet), variable
    # ids are a pure function of that universe — the invariant the path
    # cache (:data:`_PATH_CACHE`) relies on.
    alphabet = tuple(sorted(setting.alphabet))
    edge_vars: dict[tuple[Node, str, Node], int] = {}
    for u in node_list:
        for a in alphabet:
            for v in node_list:
                edge_vars[(u, a, v)] = cnf.variable(("edge", u, a, v))
    universe = (tuple(node_list), alphabet)
    # Stashed for add_pair_blocking_clauses (same-universe reuse).  The
    # dict must stay exactly the pre-registered universe: ids of variables
    # allocated later (selectors, out-of-universe fallbacks) depend on the
    # instance, so letting them in would poison the cross-CNF path cache.
    cnf._edge_universe = (universe, edge_vars)  # type: ignore[attr-defined]
    extra_vars: dict[tuple[Node, str, Node], int] = {}

    def edge_var(u: Node, a: str, v: Node) -> int:
        key = (u, a, v)
        var = edge_vars.get(key)
        if var is None:  # a frontier constant outside the node universe
            var = extra_vars.get(key)
            if var is None:
                var = extra_vars[key] = cnf.variable(("edge", u, a, v))
        return var

    _encode_st_tgds(setting, instance, node_list, cnf, edge_var)
    # Minimal-model reduction: an edge variable with no positive occurrence
    # (it supports no tgd head) can be fixed false without losing anything —
    # restricting any solution to head-supported edges yields a solution
    # again (egd bodies and queries are monotone, so removing edges cannot
    # create a violation or an answer), and a model of the reduced formula
    # extended with those variables false satisfies every elided clause.
    # Fixing them as root units and skipping every blocking path that uses
    # one shrinks the clause set to the semantic core (on the Theorem 4.1
    # reduction family: from ~|Σ|·2^{|w|} path clauses down to one clause
    # per dependency) while keeping all verdicts — existence, per-pair
    # certainty — bit-identical, and decoded witnesses verified solutions.
    positive = frozenset(
        literal for clause in cnf.clauses for literal in clause if literal > 0
    )
    cnf._positive_vars = positive  # type: ignore[attr-defined]
    blocked: set[tuple[int, ...]] = set()
    node_tuple = tuple(node_list)
    for egd in setting.egds():
        _encode_egd(egd, node_tuple, universe, cnf, edge_vars, blocked, positive)
    for var in edge_vars.values():
        if var not in positive:
            cnf.add_clause_trusted((-var,))
    return cnf


def _encode_st_tgds(
    setting: DataExchangeSetting,
    instance: RelationalInstance,
    nodes: list[Node],
    cnf: CNF,
    edge_var: Callable[[Node, str, Node], int],
) -> None:
    for tgd in setting.st_tgds:
        atom_symbols = [
            (atom.subject, _symbols_of_union(atom.nre), atom.object)
            for atom in tgd.head.atoms
        ]
        for match in tgd.body_matches(instance):
            base: dict[Variable, Node] = {v: match[v] for v in tgd.frontier}
            if not tgd.existentials:
                for subject, symbols, obj in atom_symbols:
                    u = base[subject] if is_variable(subject) else subject
                    v = base[obj] if is_variable(obj) else obj
                    cnf.add_clause([edge_var(u, a, v) for a in symbols])
                continue
            selectors: list[int] = []
            for values in itertools.product(nodes, repeat=len(tgd.existentials)):
                selector = cnf.new_variable()
                selectors.append(selector)
                assignment = dict(base)
                assignment.update(zip(tgd.existentials, values))
                for subject, symbols, obj in atom_symbols:
                    u = assignment[subject] if is_variable(subject) else subject
                    v = assignment[obj] if is_variable(obj) else obj
                    cnf.add_clause(
                        [-selector] + [edge_var(u, a, v) for a in symbols]
                    )
            cnf.add_clause(selectors)


@functools.lru_cache(maxsize=4096)
def _egd_plan(egd: TargetEgd):
    """Resolve an egd body to positional plans, once per (value-equal) egd.

    Returns ``(variable_count, left_index, right_index, atom_plans)`` where
    each atom plan is ``(subject, words, object)`` with endpoints resolved
    to ``("var", index)`` / ``("const", node)``.  Memoised on the egd (its
    hash is itself memoised): reduction families instantiate value-equal
    egds across hundreds of settings, and both the encoder and the
    fragment solution check walk the same plans.
    """
    variables = list(egd.body.variables())
    index_of = {variable: i for i, variable in enumerate(variables)}
    atom_plans = []
    for atom in egd.body.atoms:
        subject = (
            ("var", index_of[atom.subject])
            if is_variable(atom.subject)
            else ("const", atom.subject)
        )
        obj = (
            ("var", index_of[atom.object])
            if is_variable(atom.object)
            else ("const", atom.object)
        )
        words = tuple(tuple(word) for word in _words_of_atom(atom.nre))
        atom_plans.append((subject, words, obj))
    return (
        len(variables),
        index_of[egd.left],
        index_of[egd.right],
        tuple(atom_plans),
    )


# (universe, nodes, egd) → tuple of blocking-clause signatures.  Sound for
# the same reason as the path cache: variable ids are a pure function of
# the universe, so a value-equal egd over the same universe blocks exactly
# the same signature set.  The global ``blocked`` dedup still applies at
# insertion time, so cross-egd duplicate suppression is preserved.
_EGD_CACHE: dict[tuple, tuple[tuple[int, ...], ...]] = {}
_EGD_CACHE_LIMIT = 8192


def _encode_egd(
    egd: TargetEgd,
    nodes: tuple[Node, ...],
    universe: tuple,
    cnf: CNF,
    edge_vars: dict[tuple[Node, str, Node], int],
    blocked: set[tuple[int, ...]] | None = None,
    positive: frozenset[int] | None = None,
) -> None:
    """Block every variable assignment violating ``egd`` over ``nodes``.

    Atom endpoints are resolved to positional indexes into the assignment
    tuple once (:func:`_egd_plan`), ahead of the ``|N|^k`` assignment loop
    — the loop body then touches no dictionaries at all.  ``blocked``
    deduplicates clauses across the whole encoding: different egds (and
    different assignments) routinely forbid the same edge set, and every
    duplicate clause would be re-simplified on each propagation pass.  The
    whole signature set is additionally memoised per (universe, egd).
    """
    seen = blocked if blocked is not None else set()
    cache_key = (universe, nodes, egd, positive)
    cached = _EGD_CACHE.get(cache_key)
    if cached is not None:
        add = cnf.add_clause_trusted
        for signature in cached:
            if signature not in seen:
                seen.add(signature)
                add(tuple([-lit for lit in signature]))
        return
    variable_count, left_index, right_index, atom_plans = _egd_plan(egd)
    # Insertion-ordered so a cache replay emits clauses in the exact order
    # the original enumeration produced them (solver determinism).
    produced: dict[tuple[int, ...], None] = {}
    append = cnf.clauses.append  # signatures are canonical by construction
    for values in itertools.product(nodes, repeat=variable_count):
        if values[left_index] == values[right_index]:
            continue
        _block_violation(
            atom_plans, values, nodes, universe, append, edge_vars, seen,
            produced, positive,
        )
    if len(_EGD_CACHE) >= _EGD_CACHE_LIMIT:
        _EGD_CACHE.clear()
    _EGD_CACHE[cache_key] = tuple(produced)


# (universe, nodes) → {symbol: {node: ((var, successor), ...)}} — the edge
# variable table re-bucketed for path growth, so each step hashes one node
# instead of building and hashing a (node, symbol, node) triple.
_ADJACENCY_CACHE: dict[tuple, dict] = {}
_ADJACENCY_CACHE_LIMIT = 256


def _adjacency_for(
    universe: object,
    nodes: tuple[Node, ...],
    edge_vars: dict[tuple[Node, str, Node], int],
) -> dict[str, dict[Node, tuple[tuple[int, Node], ...]]]:
    key = (universe, nodes)
    cached = _ADJACENCY_CACHE.get(key)
    if cached is not None:
        return cached
    staged: dict[str, dict[Node, list[tuple[int, Node]]]] = {}
    members = set(nodes)
    for (u, symbol, v), var in edge_vars.items():
        if u in members and v in members:
            staged.setdefault(symbol, {}).setdefault(u, []).append((var, v))
    adjacency = {
        symbol: {u: tuple(moves) for u, moves in per_node.items()}
        for symbol, per_node in staged.items()
    }
    if len(_ADJACENCY_CACHE) >= _ADJACENCY_CACHE_LIMIT:
        _ADJACENCY_CACHE.clear()
    _ADJACENCY_CACHE[key] = adjacency
    return adjacency


# (universe, word, u, v) → tuple of (signature, blocking clause) pairs, one
# per path: the signature is the sorted positive-literal tuple (the dedup
# key) and the clause is its ready-to-append negation.
#
# Edge variables are pre-registered by encode_bounded_existence in a fixed
# order determined solely by (node list, sorted alphabet), so two encodings
# over the same universe assign identical variable ids to identical edges —
# which makes path signatures reusable across egds, across queried pairs,
# and across CNF instances.  Reduction families (Theorem 4.1 / Corollary
# 4.2) re-encode the same words over the same two-constant universe
# hundreds of times; this cache turns each repeat into one dict hit.
_PATH_CACHE: dict[tuple, tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]] = {}
_PATH_CACHE_LIMIT = 16384


def _word_paths(
    word: tuple[str, ...],
    u: Node,
    v: Node,
    nodes: tuple[Node, ...],
    universe: object,
    edge_vars: dict[tuple[Node, str, Node], int],
    positive: frozenset[int] | None = None,
) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Return ``(signature, blocking_clause)`` per ``u →word→ v`` path.

    Paths are grown stepwise (shared prefixes are looked up once, not once
    per completion) and the result is memoised per (universe, nodes, word,
    endpoints) — ``nodes`` is part of the key because callers may restrict
    the intermediate-node set to a subset of the universe.

    With ``positive`` set (the minimal-model reduction of
    :func:`encode_bounded_existence`), any path through an edge variable
    outside that set is skipped — those variables are fixed false at the
    root, so the corresponding clause would be satisfied anyway.  The
    pruning happens during growth, which collapses the path tree the
    moment it leaves head-supported edges.
    """
    key = (universe, nodes, word, u, v, positive)
    cached = _PATH_CACHE.get(key)
    if cached is not None:
        return cached
    if positive is not None:
        adjacency = _adjacency_for(universe, nodes, edge_vars)
        last = len(word) - 1
        distinct = len(set(word)) == len(word)
        partials: list[tuple[tuple[int, ...], Node]] = [((), u)]
        empty: tuple = ()
        for step, symbol in enumerate(word):
            moves = adjacency.get(symbol)
            if moves is None:
                partials = []
                break
            grown: list[tuple[tuple[int, ...], Node]] = []
            if step == last:
                for literals, current in partials:
                    for var, nxt in moves.get(current, empty):
                        if nxt == v and var in positive:
                            grown.append((literals + (var,), nxt))
            else:
                for literals, current in partials:
                    for var, nxt in moves.get(current, empty):
                        if var in positive:
                            grown.append((literals + (var,), nxt))
            partials = grown
        pairs: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        for literals, _ in partials:
            signature = tuple(sorted(literals if distinct else set(literals)))
            pairs.append((signature, tuple([-lit for lit in signature])))
        result = tuple(pairs)
        if len(_PATH_CACHE) >= _PATH_CACHE_LIMIT:
            _PATH_CACHE.clear()
        _PATH_CACHE[key] = result
        return result
    adjacency = _adjacency_for(universe, nodes, edge_vars)
    last = len(word) - 1
    # Paths are grown as plain tuples (appending one literal per step is
    # cheaper than a frozenset union); deduplication — a path may traverse
    # the same edge twice, but only when the word repeats a symbol — is
    # skipped entirely for distinct-symbol words (the common case, and the
    # only shape restriction (iv) of Theorem 4.1 even allows).
    distinct = len(set(word)) == len(word)
    partials: list[tuple[tuple[int, ...], Node]] = [((), u)]
    empty: tuple = ()
    for step, symbol in enumerate(word):
        moves = adjacency.get(symbol)
        if moves is None:  # symbol outside the universe: unrealisable
            partials = []
            break
        grown: list[tuple[tuple[int, ...], Node]] = []
        if step == last:
            for literals, current in partials:
                for var, nxt in moves.get(current, empty):
                    if nxt == v:
                        grown.append((literals + (var,), nxt))
        else:
            for literals, current in partials:
                for var, nxt in moves.get(current, empty):
                    grown.append((literals + (var,), nxt))
        partials = grown
    pairs: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    for literals, _ in partials:
        signature = tuple(sorted(literals if distinct else set(literals)))
        pairs.append((signature, tuple([-lit for lit in signature])))
    result = tuple(pairs)
    if len(_PATH_CACHE) >= _PATH_CACHE_LIMIT:
        _PATH_CACHE.clear()
    _PATH_CACHE[key] = result
    return result


def _block_violation(
    atom_plans,
    values: tuple[Node, ...],
    nodes: tuple[Node, ...],
    universe: tuple,
    append,
    edge_vars: dict[tuple[Node, str, Node], int],
    blocked: set[tuple[int, ...]],
    produced: dict[tuple[int, ...], None] | None = None,
    positive: frozenset[int] | None = None,
) -> None:
    """Add clauses forbidding every simultaneous realisation of the atoms.

    ``append`` is the clause sink (the CNF's trusted-append, pre-bound by
    the caller to skip one attribute lookup per clause); ``blocked``
    deduplicates insertions across the whole encoding;
    ``produced`` (when given) additionally records *every* signature of
    this violation — including ones another egd already blocked — so the
    per-egd signature cache in :func:`_encode_egd` stays complete
    regardless of which egd inserted a shared clause first.
    """
    if len(atom_plans) == 1:  # the common shape: one word atom per body
        subject, alternatives, obj = atom_plans[0]
        u = values[subject[1]] if subject[0] == "var" else subject[1]
        v = values[obj[1]] if obj[0] == "var" else obj[1]
        for word in alternatives:
            for signature, clause in _word_paths(
                word, u, v, nodes, universe, edge_vars, positive
            ):
                if produced is not None:
                    produced[signature] = None
                if signature not in blocked:
                    blocked.add(signature)
                    append(clause)
        return
    per_atom_paths: list[list[tuple[int, ...]]] = []
    for subject, alternatives, obj in atom_plans:
        u = values[subject[1]] if subject[0] == "var" else subject[1]
        v = values[obj[1]] if obj[0] == "var" else obj[1]
        paths: list[tuple[int, ...]] = []
        for word in alternatives:
            paths.extend(
                signature
                for signature, _ in _word_paths(
                    word, u, v, nodes, universe, edge_vars, positive
                )
            )
        per_atom_paths.append(paths)
    for combination in itertools.product(*per_atom_paths):
        literals: set[int] = set()
        for path in combination:
            literals.update(path)
        signature = tuple(sorted(literals))
        if produced is not None:
            produced[signature] = None
        if signature in blocked:
            continue
        blocked.add(signature)
        append(tuple(-lit for lit in signature))


def add_pair_blocking_clauses(
    cnf: CNF,
    query: NRE,
    source: Node,
    target: Node,
    nodes: Sequence[Node],
    guard: int | None = None,
) -> list[Clause]:
    """Forbid every realisation of ``(source, target) ∈ ⟦query⟧`` over ``nodes``.

    ``query`` must be a union of words (the shape for which a realisation is
    a bounded edge path — raises :class:`~repro.errors.NotSupportedError`
    otherwise).  Together with :func:`encode_bounded_existence` this turns
    the certain-answer question into one SAT call: the combined formula is
    satisfiable iff some bounded solution misses the pair, and the bounded
    search is complete by the same induced-subgraph argument as existence
    (a counterexample solution G restricts to a counterexample over the
    node universe — NREs are monotone, so the induced subgraph still lacks
    the pair).  Returns the blocking clauses added (also appended to
    ``cnf``), so an incremental solver can ingest exactly the delta.

    With ``guard`` set, every clause additionally carries ``¬guard``: the
    blocking constraint is then *inactive* unless the solver assumes
    ``guard`` — the mechanism the persistent certain-answer pipeline uses
    to keep one solver while switching which pair is being probed.

    Endpoints outside the node universe cannot be realised at all, so no
    clause is needed (and none is added) for them.
    """
    words = _words_of_atom(query)
    members = set(nodes)
    if source not in members or target not in members:
        return []
    stashed = getattr(cnf, "_edge_universe", None)
    if stashed is None:  # a CNF not built by encode_bounded_existence
        alphabet = tuple(sorted({symbol for word in words for symbol in word}))
        edge_vars = {
            (u, a, v): cnf.variable(("edge", u, a, v))
            for u in nodes
            for a in alphabet
            for v in nodes
        }
        # Unique per call: these ad-hoc variable ids are not determined by
        # (nodes, alphabet), so they must never share cache entries.
        universe = object()
    else:
        universe, edge_vars = stashed
    positive = getattr(cnf, "_positive_vars", None)
    added: list[Clause] = []
    blocked: set[tuple[int, ...]] = set()
    node_tuple = tuple(nodes)
    for word in words:
        for signature, clause in _word_paths(
            tuple(word), source, target, node_tuple, universe, edge_vars, positive
        ):
            if signature in blocked:
                continue
            blocked.add(signature)
            if guard is not None:
                clause = (-guard,) + clause
            cnf.add_clause_trusted(clause)
            added.append(clause)
    return added


def _word_path_exists(
    graph: GraphDatabase, word: tuple[str, ...], source: Node, target: Node
) -> bool:
    """Whether ``graph`` has a ``source →word→ target`` edge path."""
    frontier = {source} if source in graph else set()
    for symbol in word:
        adjacency = graph.forward_index(symbol)
        grown: set[Node] = set()
        for node in frontier:
            successors = adjacency.get(node)
            if successors:
                grown.update(successors)
        if not grown:
            return False
        frontier = grown
    return target in frontier


def check_fragment_solution(
    instance: RelationalInstance,
    graph: GraphDatabase,
    setting: DataExchangeSetting,
) -> bool:
    """Decide ``graph ∈ Sol_Ω(instance)`` directly on the Theorem 4.1 fragment.

    Semantically identical to :func:`repro.core.solution.is_solution` on
    settings in the SAT-encodable fragment (union-of-symbols heads, word
    egd bodies) — pinned by a differential test.  The s-t tgds are checked
    set at a time by the same compiled heads as ``is_solution``
    (:meth:`~repro.mappings.stt.SourceToTargetTgd.is_satisfied`); word
    egds by stepwise path growth instead of the generic matcher, whose
    per-setting compilation dwarfs the actual check on the small witness
    graphs the SAT pipeline decodes.  Raises
    :class:`~repro.errors.NotSupportedError` on settings with sameAs
    constraints or target tgds.
    """
    if setting.sameas_constraints() or setting.general_target_tgds():
        raise NotSupportedError(
            "the fragment check covers egd-only settings (Theorem 4.1 fragment)"
        )
    for tgd in setting.st_tgds:
        if not tgd.is_satisfied(instance, graph):
            return False
    node_tuple = tuple(graph.nodes())
    for egd in setting.egds():
        variable_count, left_index, right_index, atom_plans = _egd_plan(egd)
        # Cheap pre-filter: an atom can only fire if some alternative word
        # has every symbol present in the graph at all; a body whose atom
        # has no such word cannot match anywhere — which rules out almost
        # all clause egds of the reduction families before the |N|^k
        # assignment loop even starts.
        if any(
            all(
                any(graph.label_count(symbol) == 0 for symbol in word)
                for word in words
            )
            for _, words, _ in atom_plans
        ):
            continue
        for values in itertools.product(node_tuple, repeat=variable_count):
            if values[left_index] == values[right_index]:
                continue
            realised = True
            for subject, words, obj in atom_plans:
                u = values[subject[1]] if subject[0] == "var" else subject[1]
                v = values[obj[1]] if obj[0] == "var" else obj[1]
                if not any(_word_path_exists(graph, word, u, v) for word in words):
                    realised = False
                    break
            if realised:  # the egd fires on two distinct nodes: violation
                return False
    return True


def decode_edge_model(
    cnf: CNF,
    model: dict[int, bool],
    alphabet: Sequence[str] | frozenset[str],
    nodes: Sequence[Node],
) -> GraphDatabase:
    """Turn a model of an existence encoding back into a graph.

    Edge variables are looked up by their registered names over the given
    ``nodes`` × ``alphabet`` universe (no repr parsing — node ids may be
    arbitrary objects, including labeled nulls).  Every node of the
    universe is added, so isolated nodes survive into the witness.  CNFs
    built by :func:`encode_bounded_existence` carry their edge-variable
    table, which the decode walks directly; the name registry is the
    fallback for hand-built CNFs.
    """
    graph = GraphDatabase(alphabet=set(alphabet))
    for node in nodes:
        graph.add_node(node)
    stashed = getattr(cnf, "_edge_universe", None)
    if stashed is not None:
        members = set(nodes)
        labels = set(alphabet)
        get = model.get
        for (u, a, v), var in stashed[1].items():
            if get(var, False) and u in members and v in members and a in labels:
                graph.add_edge(u, a, v)
        return graph
    for u in nodes:
        for a in sorted(alphabet):
            for v in nodes:
                name = ("edge", u, a, v)
                if not cnf.has_name(name):
                    continue
                if model.get(cnf.variable(name), False):
                    graph.add_edge(u, a, v)
    return graph
