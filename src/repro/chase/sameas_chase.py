"""The constructive solution for sameAs settings (Section 4.2).

With sameAs constraints instead of egds, a solution always exists and is
computed in polynomial time by the three steps the paper gives:

  (i)   chase a graph pattern π with the s-t tgds only;
  (ii)  take any graph ``G`` with π → G (we take the canonical
        instantiation);
  (iii) add the sameAs edges needed to satisfy the sameAs constraints.

Step (iii) is a fixpoint: adding sameAs edges can create new matches of
bodies that themselves mention ``sameAs``, so saturation repeats until no
violation remains.  It terminates because the node set is fixed and each
round adds at least one of at most ``|V|²`` possible sameAs edges.

The fixpoint is computed in batches.  Generic constraints are evaluated
through the matcher's *pair projections*
(:meth:`~repro.engine.matcher.TriggerMatcher.pair_matches` /
``pair_matches_seeded``): one pass per constraint per round yields the
projected pair set — no per-homomorphism dict materialisation — and the
missing edges are inserted as one sorted batch.  Constraints that spell
out the sameAs *equivalence laws* (symmetry and transitivity over the
sameAs label) are recognised and absorbed into a union-find over
canonical representatives: their joint fixpoint on any edge set is
exactly "all ordered pairs of distinct nodes within one connected
component", so the O(|V|²)-round edge-at-a-time cascade collapses into
component merges plus one clique emission per dirty class.

The least fixpoint is unique — every constraint is a monotone rule, so
the final edge set does not depend on insertion order.  The test suite
keeps the original edge-at-a-time loop in journal order as an oracle
(``tests/oracles/sameas_journal.py``) and a Hypothesis harness pins the
two output-identical: graph content *and* serialized document bytes.

The key contrast with egds (the paper's point): sameAs edges may be added
*between two constants*, so the constant/constant conflict that makes the
egd chase fail simply cannot arise.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence

from repro.chase.pattern_chase import chase_pattern
from repro.chase.result import ChaseResult, ChaseStats
from repro.engine.matcher import TriggerMatcher
from repro.graph.database import GraphDatabase
from repro.mappings.sameas import SAME_AS_LABEL, SameAsConstraint
from repro.mappings.stt import SourceToTargetTgd
from repro.patterns.rep import canonical_instantiation
from repro.relational.instance import RelationalInstance

Node = Hashable

def _pair_key(pair: tuple[Node, Node]) -> tuple[str, str]:
    return (repr(pair[0]), repr(pair[1]))


def _is_symmetry(constraint: SameAsConstraint) -> bool:
    """Whether the constraint is sameAs symmetry: an edge demands its
    reverse.  Matches ``(x, sameAs, y) → (y, sameAs, x)`` and the
    equivalent backward-atom spelling."""
    atoms = constraint.body.atoms
    view = atoms[0].edge_view() if len(atoms) == 1 else None
    if view is None:
        return False
    source_term, lab, target_term = view
    return (
        lab == SAME_AS_LABEL
        and source_term != target_term
        and (constraint.left, constraint.right) == (target_term, source_term)
    )


def _is_transitivity(constraint: SameAsConstraint) -> bool:
    """Whether the constraint is sameAs transitivity:
    ``(x, sameAs, z), (z, sameAs, y) → (x, sameAs, y)`` (either atom may
    be spelled backward)."""
    views = [atom.edge_view() for atom in constraint.body.atoms]
    if len(views) != 2 or None in views:
        return False
    for first, second in (views, views[::-1]):
        left_source, first_lab, middle_a = first
        middle_b, second_lab, right_target = second
        if (
            first_lab == SAME_AS_LABEL
            and second_lab == SAME_AS_LABEL
            and middle_a == middle_b
            and len({left_source, middle_a, right_target}) == 3
            and (constraint.left, constraint.right)
            == (left_source, right_target)
        ):
            return True
    return False


def _split_equivalence_constraints(
    constraints: Sequence[SameAsConstraint],
) -> tuple[list[SameAsConstraint], list[SameAsConstraint]]:
    """Partition into (absorbed equivalence laws, generic constraints).

    Absorption is sound only when symmetry *and* transitivity are both
    present — their joint fixpoint is the per-component clique the
    union-find emits.  Either law alone (directed transitive closure, or
    bare symmetric closure) is weaker and stays on the generic path.
    """
    symmetry = [c for c in constraints if _is_symmetry(c)]
    transitivity = [c for c in constraints if _is_transitivity(c)]
    if not symmetry or not transitivity:
        return [], list(constraints)
    absorbed = {id(c) for c in symmetry + transitivity}
    generic = [c for c in constraints if id(c) not in absorbed]
    return symmetry + transitivity, generic


class _UnionFind:
    """Union-find over sameAs components, with canonical representatives.

    Nodes enter lazily (only endpoints of sameAs edges ever join).  Find
    runs path compression; union is by size with a repr tie-break, so
    the representative of every class is deterministic for a given merge
    history.  ``dirty`` collects the roots whose class gained members
    since the last clique emission.
    """

    def __init__(self) -> None:
        self.parent: dict[Node, Node] = {}
        self.members: dict[Node, list[Node]] = {}
        self.dirty: set[Node] = set()

    def add(self, node: Node) -> Node:
        if node not in self.parent:
            self.parent[node] = node
            self.members[node] = [node]
        return self.find(node)

    def find(self, node: Node) -> Node:
        parent = self.parent
        root = node
        while parent[root] is not root:
            root = parent[root]
        while parent[node] is not root:
            parent[node], node = root, parent[node]
        return root

    def union(self, a: Node, b: Node) -> None:
        root_a = self.add(a)
        root_b = self.add(b)
        if root_a == root_b:
            return
        size_a, size_b = len(self.members[root_a]), len(self.members[root_b])
        if (size_a, repr(root_a)) < (size_b, repr(root_b)):
            root_a, root_b = root_b, root_a
        # root_a is canonical: absorb root_b's class.
        self.parent[root_b] = root_a
        self.members[root_a].extend(self.members.pop(root_b))
        self.dirty.discard(root_b)
        self.dirty.add(root_a)


def _close_equivalence(
    result: GraphDatabase,
    find: _UnionFind,
    since: int | None,
    counters: ChaseStats,
) -> bool:
    """One union-find closure step: absorb new sameAs edges, emit cliques.

    Every sameAs edge unions its endpoints' classes; every class that
    grew then receives all missing ordered pairs of distinct members
    (the joint symmetry+transitivity fixpoint), inserted in repr-sorted
    order.  Returns whether any edge was added.
    """
    if since is None:
        for source, target in result.edges_with_label(SAME_AS_LABEL):
            find.union(source, target)
    else:
        for edge in result.edges_since(since):
            if edge.label == SAME_AS_LABEL:
                find.union(edge.source, edge.target)
    if not find.dirty:
        return False
    added = False
    has_edge = result.has_edge
    add_edge = result.add_edge
    for root in sorted(find.dirty, key=repr):
        clique = sorted(find.members[root], key=repr)
        for left in clique:
            for right in clique:
                if left is not right and not has_edge(
                    left, SAME_AS_LABEL, right
                ):
                    add_edge(left, SAME_AS_LABEL, right)
                    counters.sameas_edges_added += 1
                    added = True
    find.dirty.clear()
    return added


def saturate_sameas(
    graph: GraphDatabase,
    constraints: Sequence[SameAsConstraint],
    stats: ChaseStats | None = None,
) -> GraphDatabase:
    """Add sameAs edges to ``graph`` until every constraint is satisfied.

    Returns a new graph; the input is not mutated.  The alphabet is widened
    with ``sameAs`` if needed.  Batched saturation: pair projections plus
    the union-find closure (see the module docstring).
    """
    sigma = set(graph.alphabet) | {SAME_AS_LABEL}
    result = graph.with_alphabet(sigma)
    counters = stats if stats is not None else ChaseStats()
    matcher = TriggerMatcher(result, counters)
    absorbed, generic = _split_equivalence_constraints(constraints)
    find = _UnionFind() if absorbed else None
    last_seen: list[int | None] = [None] * len(generic)
    closure_seen: int | None = None
    changed = True
    while changed:
        changed = False
        counters.rounds += 1
        for index, constraint in enumerate(generic):
            since, last_seen[index] = last_seen[index], result.version
            if since is None:
                pairs = matcher.pair_matches(
                    constraint.body, constraint.left, constraint.right
                )
            else:
                delta = result.edges_since(since)
                if not delta:
                    continue
                pairs = matcher.pair_matches_seeded(
                    constraint.body, constraint.left, constraint.right, delta
                )
            pending = sorted(
                (
                    pair
                    for pair in pairs
                    if pair[0] != pair[1]
                    and not result.has_edge(pair[0], SAME_AS_LABEL, pair[1])
                ),
                key=_pair_key,
            )
            for left, right in pending:
                result.add_edge(left, SAME_AS_LABEL, right)
            if pending:
                counters.sameas_edges_added += len(pending)
                changed = True
        if find is not None:
            since, closure_seen = closure_seen, result.version
            if _close_equivalence(result, find, since, counters):
                changed = True
    return result


def solve_with_sameas(
    st_tgds: Iterable[SourceToTargetTgd],
    constraints: Sequence[SameAsConstraint],
    instance: RelationalInstance,
    alphabet: Iterable[str] | None = None,
    star_bound: int = 2,
) -> ChaseResult:
    """Produce a solution for a sameAs setting (always succeeds).

    Runs steps (i)–(iii) of Section 4.2 and returns a
    :class:`~repro.chase.result.ChaseResult` carrying both the intermediate
    pattern and the final solution graph.
    """
    seeded = chase_pattern(st_tgds, instance, alphabet=alphabet)
    pattern = seeded.expect_pattern()
    stats = seeded.stats
    instantiation = canonical_instantiation(pattern, star_bound=star_bound)
    solution = saturate_sameas(instantiation.graph, list(constraints), stats)
    return ChaseResult(pattern=pattern, graph=solution, stats=stats)
