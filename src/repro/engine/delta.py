"""Incremental violation maintenance for egd fixpoints.

The seed egd chases recomputed *every* violation from scratch after each
merge step — O(full trigger search) per merge, the dominant cost
``benchmarks/bench_chase_scaling.py`` exposes.  :class:`EgdViolationQueue`
keeps the violation set of a set of egds up to date across merges instead:

* the initial set is computed once with the indexed
  :class:`~repro.engine.matcher.TriggerMatcher`;
* when a merge renames ``old`` to ``new``, surviving violations are renamed
  in place (a homomorphism survives a node rename, so no rescan is needed
  to keep them) and the only *new* violations possible are those routed
  through an edge rewritten onto ``new`` — exactly what
  :meth:`~repro.engine.matcher.TriggerMatcher.matches_touching` enumerates.

Egds whose bodies are unions of words are *decomposed* into simple chain
egds first (:func:`decompose_egd` — each ``(x, a·b, y)`` atom becomes
``(x, a, z), (z, b, y)``), so they ride the maintained fast paths too;
the decomposition preserves the violation set projected to the equated
pair, so the chase's observable results are unchanged (the word-egd
regimes of ``tests/test_engine/test_incremental.py`` pin byte-identity).
Only genuinely composite bodies (stars, nesting) are handled by
recomputation on every query (the seed behaviour); the fig1–fig7
equivalence tests in ``tests/test_engine`` assert those answers are
identical to a full rescan.
"""

from __future__ import annotations

import heapq
import itertools
from itertools import product
from typing import TYPE_CHECKING, Hashable, Sequence

from repro.engine.matcher import TriggerMatcher, is_simple_query
from repro.errors import NotSupportedError
from repro.graph.cnre import CNREAtom, CNREQuery
from repro.graph.database import GraphDatabase
from repro.graph.nre import NRE, Backward, Concat, Label, Union
from repro.patterns.pattern import is_null
from repro.relational.query import Variable

if TYPE_CHECKING:  # annotation-only imports; avoids an import cycle
    from repro.chase.result import ChaseStats
    from repro.mappings.egd import TargetEgd

Node = Hashable
Pair = tuple[Node, Node]
PairKey = tuple[str, str]


def _functional_profile(egd: "TargetEgd") -> "tuple[str, str] | None":
    """Detect functional-dependency-shaped egds, or return ``None``.

    A *functional* egd is ``(x1, L, k), (x2, L, k) -> x1 = x2`` (or the
    mirrored ``(k, L, x1), (k, L, x2)`` form, possibly written with
    backward labels): both atoms traverse the same single label, share a
    key variable on the same side, and equate the two member variables.
    Returns ``(label, direction)`` where direction ``"in"`` means the
    members reach the key along *incoming* edges of the key (so the
    group of a key is ``predecessors(key, label)``), and ``"out"`` means
    ``successors(key, label)``.

    Such egds say "the key determines the member": every key's member
    group collapses to a single node.  Maintaining the full violation
    set is O(k²) pairs per group — fatal for Zipf-skewed workloads where
    one hot key can own thousands of members — but a *star* anchored at
    the group's least member carries exactly the same merge sequence in
    O(k) maintained pairs (each merge keeps the lesser node, so the
    anchor survives and the remaining star pairs stay valid).
    """
    atoms = egd.body.atoms
    if len(atoms) != 2:
        return None
    normalized: list[tuple] = []  # (source, label, target) edge templates
    for atom in atoms:
        expr = atom.nre
        if not isinstance(atom.subject, Variable) or not isinstance(
            atom.object, Variable
        ):
            return None
        if isinstance(expr, Label):
            normalized.append((atom.subject, expr.name, atom.object))
        elif isinstance(expr, Backward):
            normalized.append((atom.object, expr.name, atom.subject))
        else:
            return None
    (s1, l1, t1), (s2, l2, t2) = normalized
    if l1 != l2:
        return None
    members = {egd.left, egd.right}
    if len(members) != 2:
        return None
    if t1 == t2 and {s1, s2} == members and t1 not in members:
        return (l1, "in")
    if s1 == s2 and {t1, t2} == members and s1 not in members:
        return (l1, "out")
    return None


def _word_parts(expr: NRE) -> "list[NRE] | None":
    """Flatten ``expr`` into a word (a concat of bare labels), or ``None``."""
    if isinstance(expr, (Label, Backward)):
        return [expr]
    if isinstance(expr, Concat):
        left = _word_parts(expr.left)
        right = _word_parts(expr.right)
        if left is None or right is None:
            return None
        return left + right
    return None


def _atom_alternatives(expr: NRE) -> "list[list[NRE]] | None":
    """Expand top-level unions of ``expr`` into a list of words, or ``None``."""
    if isinstance(expr, Union):
        left = _atom_alternatives(expr.left)
        right = _atom_alternatives(expr.right)
        if left is None or right is None:
            return None
        return left + right
    parts = _word_parts(expr)
    return None if parts is None else [parts]


def decompose_egd(egd: "TargetEgd", index: int) -> "list[TargetEgd]":
    """Rewrite an egd with union-of-words atoms into simple chain egds.

    Each atom ``(x, a·b, y)`` becomes a chain ``(x, a, z), (z, b, y)`` with
    a fresh intermediate variable; a top-level union contributes one egd
    per branch combination.  The returned egds have the same violation set
    as ``egd`` once projected to ``(left, right)``, but their bodies are
    *simple*, so the violation queue's maintained fast paths apply.
    Raises :class:`~repro.errors.NotSupportedError` for bodies outside the
    union-of-words fragment (stars, nesting).

    >>> from repro.mappings.parser import parse_egd
    >>> chains = decompose_egd(
    ...     parse_egd("(x1, f . h, x3), (x2, h, x3) -> x1 = x2"), 0)
    >>> [len(chain.body.atoms) for chain in chains]
    [3]
    >>> from repro.graph.parser import parse_nre
    >>> from repro.mappings.egd import TargetEgd
    >>> union = TargetEgd(
    ...     CNREQuery([CNREAtom(Variable("x"), parse_nre("a + b"), Variable("y"))]),
    ...     Variable("x"), Variable("y"))
    >>> len(decompose_egd(union, 1))
    2
    """
    from repro.mappings.egd import TargetEgd

    per_atom: list[tuple[CNREAtom, list[list[NRE]]]] = []
    for atom in egd.body.atoms:
        alternatives = _atom_alternatives(atom.nre)
        if alternatives is None:
            raise NotSupportedError(
                "egd chain decomposition handles bodies that are "
                f"unions of words only; offending NRE: {atom.nre}"
            )
        per_atom.append((atom, alternatives))
    chains: list[TargetEgd] = []
    choice_space = [range(len(alternatives)) for _, alternatives in per_atom]
    for branch_no, choices in enumerate(product(*choice_space)):
        atoms: list[CNREAtom] = []
        for atom_no, ((atom, alternatives), pick) in enumerate(zip(per_atom, choices)):
            parts = alternatives[pick]
            terms: list = [atom.subject]
            for step_no in range(1, len(parts)):
                terms.append(Variable(f"__inc{index}_{branch_no}_{atom_no}_{step_no}"))
            terms.append(atom.object)
            for step_no, part in enumerate(parts):
                atoms.append(CNREAtom(terms[step_no], part, terms[step_no + 1]))
        chains.append(
            TargetEgd(CNREQuery(atoms), egd.left, egd.right, name=egd.name)
        )
    return chains


class EgdViolationQueue:
    """The violation set of some egds over a mutable graph, merge-aware.

    ``view`` is the graph the egd bodies are matched on (a pattern's symbol
    view, or a concrete chased graph); the queue mutates it through
    :meth:`merge`, so callers hand over ownership of the view.

    >>> from repro.mappings.parser import parse_egd
    >>> g = GraphDatabase(edges=[("a", "h", "hx"), ("b", "h", "hx")])
    >>> queue = EgdViolationQueue([parse_egd(
    ...     "(x1, h, x3), (x2, h, x3) -> x1 = x2")], g)
    >>> sorted(queue.first_violation())
    ['a', 'b']
    >>> _ = queue.merge("b", "a")
    >>> queue.first_violation() is None
    True
    """

    def __init__(
        self,
        egds: "Sequence[TargetEgd]",
        view: GraphDatabase,
        stats: "ChaseStats | None" = None,
    ):
        self.view = view
        self.matcher = TriggerMatcher(view, stats)
        # Union-of-word bodies are decomposed into simple chains up front
        # (same violation set projected to the equated pair), so only
        # genuinely composite bodies (stars, nesting) pay the per-query
        # recomputation fallback.
        self._simple: list["TargetEgd"] = []
        self._fallback: list["TargetEgd"] = []
        # Functional egds (key determines member — see _functional_profile)
        # skip pair enumeration entirely: each violating key group is kept
        # as a star of O(k) pairs anchored at its least member, instead of
        # the O(k²) pairs the generic join would emit.
        self._functional: list[tuple[str, str]] = []

        def classify(egd: "TargetEgd") -> None:
            profile = _functional_profile(egd)
            if profile is not None:
                if profile not in self._functional:
                    self._functional.append(profile)
            else:
                self._simple.append(egd)

        for index, egd in enumerate(egds):
            if is_simple_query(egd.body):
                classify(egd)
                continue
            try:
                chains = decompose_egd(egd, index)
            except NotSupportedError:
                self._fallback.append(egd)
                continue
            if all(is_simple_query(chain.body) for chain in chains):
                for chain in chains:
                    classify(chain)
            else:
                self._fallback.append(egd)
        # Violation identity is the *unordered node pair* (reprs are used
        # only for ordering, like the seed's violation selection, so nodes
        # with colliding reprs cannot coalesce two distinct violations).
        self._pairs: dict[frozenset, tuple[Pair, PairKey]] = {}
        # node -> identities of maintained pairs mentioning it, so a merge
        # only touches the violations of the merged node, not the whole set.
        self._by_node: dict[Node, set[frozenset]] = {}
        # min-heap over (order key, seq, identity) with lazy deletion:
        # popped entries whose identity left _pairs are skipped on peek.
        self._heap: list[tuple[PairKey, int, frozenset]] = []
        self._seq = itertools.count()
        self._repr_cache: dict[Node, str] = {}
        # The queue orders violations through the heap, never through the
        # matcher's enumeration order — so every scan below consumes the
        # matcher's *projected pair set* (pair_matches / _seeded), which
        # skips homomorphism materialisation and takes the indexed join
        # fast paths.
        for label, direction in self._functional:
            index = (
                view.backward_index(label)
                if direction == "in"
                else view.forward_index(label)
            )
            for members in index.values():
                if len(members) > 1:
                    self._star(members)
        for egd in self._simple:
            for left, right in self.matcher.pair_matches(
                egd.body, egd.left, egd.right
            ):
                self._consider(left, right)

    def _repr(self, node: Node) -> str:
        cached = self._repr_cache.get(node)
        if cached is None:
            cached = self._repr_cache[node] = repr(node)
        return cached

    def _key(self, left: Node, right: Node) -> PairKey:
        """The deterministic order key the chase uses to pick violations."""
        left_repr, right_repr = self._repr(left), self._repr(right)
        if left_repr <= right_repr:
            return (left_repr, right_repr)
        return (right_repr, left_repr)

    def _consider(self, left: Node, right: Node) -> None:
        if left != right:
            identity = frozenset((left, right))
            if identity not in self._pairs:
                key = self._key(left, right)
                # Store the pair in order-key orientation: violations now
                # arrive as unordered sets (the matcher's pair
                # projections), so first-arrival orientation would vary
                # with hash seeding — and the orientation is observable
                # through the chase's failure witness.
                if self._repr(left) > self._repr(right):
                    left, right = right, left
                self._pairs[identity] = ((left, right), key)
                self._by_node.setdefault(left, set()).add(identity)
                self._by_node.setdefault(right, set()).add(identity)
                heapq.heappush(self._heap, (key, next(self._seq), identity))

    def _star(self, members) -> None:
        """Maintain a key group as a star anchored at its least member.

        The anchor is the member the merge rules keep (every pairwise
        merge keeps the lesser node), so ``(anchor, m)`` pairs stay valid
        across the whole collapse; the pop *order* matches the all-pairs
        encoding too, because every pair not containing the least member
        sorts after every pair that does.
        """
        anchor = min(members, key=self._repr)
        for member in members:
            if member != anchor:
                self._consider(anchor, member)

    def _discard(self, identity: frozenset) -> None:
        entry = self._pairs.pop(identity, None)
        if entry is not None:
            for node in entry[0]:
                identities = self._by_node.get(node)
                if identities is not None:
                    identities.discard(identity)

    def first_violation(self) -> Pair | None:
        """Return the violation with the least order key, or ``None``.

        Maintained violations of simple-bodied egds are read from the
        queue; composite-bodied egds are re-matched on the current view
        (their bodies are opaque to delta reasoning).
        """
        while self._heap and self._heap[0][2] not in self._pairs:
            heapq.heappop(self._heap)  # lazily drop entries a merge resolved
        best_key: PairKey | None = None
        best: Pair | None = None
        if self._heap:
            best_key = self._heap[0][0]
            best = self._pairs[self._heap[0][2]][0]
        for egd in self._fallback:
            for left, right in egd.violations(self.view):
                key = self._key(left, right)
                if best_key is None or key < best_key:
                    best_key, best = key, (left, right)
        return best

    def merge(self, old: Node, new: Node) -> None:
        """Record the merge ``old ↦ new``: rename the view and the queue.

        Renames the view's node in place, rewrites the maintained pairs
        (dropping those the merge resolved), and re-matches each simple egd
        through the rewritten edges to pick up any violations the merge
        *created* (cascading merges).  Only the edges the rename actually
        rewrote are re-matched — a homomorphism built purely from edges
        that predate the rename existed before it, so its violation is
        already maintained; ``new``'s untouched incident edges cannot
        seed anything new.
        """
        rewritten = self.view.rename_node(old, new)
        for identity in list(self._by_node.get(old, ())):
            (left, right), _ = self._pairs[identity]
            self._discard(identity)
            left = new if left == old else left
            right = new if right == old else right
            self._consider(left, right)
        self._by_node.pop(old, None)
        # Functional groups survive member renames through the pair rewrite
        # above (the star stays connected because merges keep the lesser
        # node).  Only a rename of a *key* needs work: the old key's group
        # unions into ``new``'s, so the united group is re-starred.  Member
        # renames deliberately do no group scan — that is what keeps a
        # k-member collapse at O(k) total pairs instead of O(k²).
        for label, direction in self._functional:
            neighbors = (
                self.view.predecessors if direction == "in" else self.view.successors
            )
            for edge in rewritten:
                if edge.label != label:
                    continue
                key = edge.target if direction == "in" else edge.source
                if key != new:
                    continue
                members = neighbors(key, label)
                if len(members) > 1:
                    self._star(members)
                break
        for egd in self._simple:
            for left, right in self.matcher.pair_matches_seeded(
                egd.body, egd.left, egd.right, rewritten
            ):
                self._consider(left, right)


def run_egd_fixpoint(queue, stats, apply=None) -> tuple[bool, tuple[Node, Node] | None]:
    """Drive ``queue`` to its fixpoint with the paper's merge rules.

    The one egd-step loop shared by the pattern chase (Section 5) and the
    graph-level relational chase (Section 3.1): pick the least violation;
    two constants fail the chase, a null merges into a constant, and of
    two nulls the later-sorted one merges into the earlier.  ``apply`` is
    invoked with ``(old, new)`` before the queue's own view is renamed
    (the pattern chase substitutes on the pattern there); ``stats`` gets
    the rounds/egd_firings/null_merges accounting.

    Returns ``(failed, failure_witness)``.

    >>> from repro.chase.result import ChaseStats
    >>> from repro.mappings.parser import parse_egd
    >>> g = GraphDatabase(edges=[("a", "h", "hx"), ("b", "h", "hx")])
    >>> egd = parse_egd("(x1, h, x3), (x2, h, x3) -> x1 = x2")
    >>> run_egd_fixpoint(EgdViolationQueue([egd], g), ChaseStats())
    (True, ('a', 'b'))
    """
    while True:
        stats.rounds += 1
        violation = queue.first_violation()
        if violation is None:
            return False, None
        left, right = violation
        stats.egd_firings += 1
        left_null, right_null = is_null(left), is_null(right)
        if not left_null and not right_null:
            # (i) two constants: the chase fails — no solution exists.
            return True, (left, right)
        if left_null and not right_null:
            old, new = left, right  # (ii) null := constant
        elif right_null and not left_null:
            old, new = right, left  # (ii) symmetric
        else:
            # (iii) two nulls: replace the later-labeled one, deterministically.
            new, old = sorted((left, right))
        if apply is not None:
            apply(old, new)
        queue.merge(old, new)
        stats.null_merges += 1
