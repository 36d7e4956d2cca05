"""Graph-to-graph homomorphisms.

A homomorphism ``h : G → G′`` between edge-labeled graphs maps nodes to
nodes such that every edge ``(u, a, v)`` of G has ``(h(u), a, h(v))`` in G′.
Optionally a set of *frozen* nodes is mapped identically — the variant
classical data exchange uses: a universal solution maps into every solution
by a homomorphism that is the identity on constants.

This oracle backs the tests of universality: the chased graph of the
Section 3.1 fragment must map into every solution, and
:func:`is_isomorphic` compares chased graphs with the paper's figures up
to null names.  No library module needs it.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator

from repro.graph.database import GraphDatabase

Node = Hashable
Homomorphism = dict[Node, Node]


def graph_homomorphisms(
    source: GraphDatabase,
    target: GraphDatabase,
    frozen: Iterable[Node] = (),
) -> Iterator[Homomorphism]:
    """Yield homomorphisms ``source → target`` (identity on ``frozen``).

    Backtracking over source nodes, most-constrained first (by degree),
    with per-node candidate sets prefiltered by label-degree compatibility.
    Worst-case exponential (graph homomorphism is NP-complete); intended
    for the library's small solution graphs.
    """
    # Identity is required only on frozen nodes that the source actually
    # has; callers may pass a broader constant set (e.g. the full active
    # domain of an instance).
    frozen_set = set(frozen) & set(source.nodes())
    target_nodes = target.nodes()
    for node in frozen_set:
        if node not in target_nodes:
            return

    source_nodes = sorted(source.nodes(), key=repr)
    out_labels: dict[Node, set[str]] = {n: set() for n in source_nodes}
    in_labels: dict[Node, set[str]] = {n: set() for n in source_nodes}
    for edge in source.edges():
        out_labels[edge.source].add(edge.label)
        in_labels[edge.target].add(edge.label)

    def candidates(node: Node) -> list[Node]:
        if node in frozen_set:
            return [node]
        result = []
        for candidate in target_nodes:
            # Degree compatibility straight off the adjacency indexes —
            # no successor/predecessor sets are materialised.
            if all(
                target.has_successor(candidate, lab) for lab in out_labels[node]
            ) and all(
                target.has_predecessor(candidate, lab) for lab in in_labels[node]
            ):
                result.append(candidate)
        return sorted(result, key=repr)

    domains = {node: candidates(node) for node in source_nodes}
    if any(not domain for domain in domains.values()):
        return
    order = sorted(source_nodes, key=lambda n: len(domains[n]))
    edges = list(source.edges())

    def consistent(assignment: Homomorphism) -> bool:
        for edge in edges:
            if edge.source in assignment and edge.target in assignment:
                if not target.has_edge(
                    assignment[edge.source], edge.label, assignment[edge.target]
                ):
                    return False
        return True

    def assign(index: int, assignment: Homomorphism) -> Iterator[Homomorphism]:
        if index == len(order):
            yield dict(assignment)
            return
        node = order[index]
        for candidate in domains[node]:
            assignment[node] = candidate
            if consistent(assignment):
                yield from assign(index + 1, assignment)
            del assignment[node]

    yield from assign(0, {})


def find_graph_homomorphism(
    source: GraphDatabase,
    target: GraphDatabase,
    frozen: Iterable[Node] = (),
) -> Homomorphism | None:
    """Return one homomorphism ``source → target``, or ``None``."""
    for hom in graph_homomorphisms(source, target, frozen):
        return hom
    return None


def is_homomorphic(
    source: GraphDatabase,
    target: GraphDatabase,
    frozen: Iterable[Node] = (),
) -> bool:
    """Return whether some homomorphism ``source → target`` exists."""
    return find_graph_homomorphism(source, target, frozen) is not None


def is_isomorphic(one: GraphDatabase, two: GraphDatabase) -> bool:
    """Return whether a label-preserving bijection maps ``one`` onto ``two``.

    With equal node and edge counts, a homomorphism that is injective on
    nodes is injective on edges too, hence onto ``two``'s edges.
    """
    if (one.node_count(), one.edge_count()) != (two.node_count(), two.edge_count()):
        return False
    return any(
        len(set(hom.values())) == len(hom) for hom in graph_homomorphisms(one, two)
    )
