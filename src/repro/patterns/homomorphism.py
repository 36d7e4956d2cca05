"""Homomorphisms from graph patterns into graph databases.

Following the paper (Section 3.2), a homomorphism from π = (N, D) into
``G = (V, E)`` is a total function ``h : N → V`` such that

1. ``h`` is the identity on ``N ∩ V`` (constants are pinned), and
2. for every edge ``(u, r, v) ∈ D``, ``(h(u), h(v)) ∈ ⟦r⟧_G``.

So a pattern is a CNRE query over its nulls, with its constants in atom
positions: the search runs on the join executor (:mod:`repro.join`), one
atom per pattern edge, plus an atom ``(n, ε, n)`` for each null ``n`` on
no edge.
"""

from __future__ import annotations

from typing import Hashable, Iterator

from repro.graph.cnre import CNREAtom, graph_atoms
from repro.graph.database import GraphDatabase
from repro.graph.nre import Epsilon
from repro.join import Body
from repro.patterns.pattern import GraphPattern

Node = Hashable
Homomorphism = dict[Node, Node]


def all_homomorphisms(
    pattern: GraphPattern, graph: GraphDatabase
) -> Iterator[Homomorphism]:
    """Yield every homomorphism from ``pattern`` into ``graph``.

    Each yielded mapping is total over the pattern's nodes (constants map to
    themselves).  Yields nothing when some pattern constant is absent from
    the graph — condition 1 is then unsatisfiable.
    """
    graph_nodes = graph.nodes()
    constants = pattern.constants()
    if any(constant not in graph_nodes for constant in constants):
        return
    atoms = [CNREAtom(e.source, e.nre, e.target) for e in sorted(pattern.edges())]
    linked = {node for atom in atoms for node in (atom.subject, atom.object)}
    nulls = sorted(pattern.nulls(), key=repr)
    atoms += [CNREAtom(n, Epsilon(), n) for n in nulls if n not in linked]
    identity = {constant: constant for constant in constants}
    for row in Body(graph_atoms(atoms, graph), nulls).plan().rows():
        hom = dict(identity)
        hom.update(zip(nulls, row))
        yield hom


def find_homomorphism(
    pattern: GraphPattern, graph: GraphDatabase
) -> Homomorphism | None:
    """Return one homomorphism π → G, or ``None`` when none exists."""
    for hom in all_homomorphisms(pattern, graph):
        return hom
    return None


def has_homomorphism(pattern: GraphPattern, graph: GraphDatabase) -> bool:
    """Return whether π → G (i.e. whether ``G ∈ Rep_Σ(π)``)."""
    return find_homomorphism(pattern, graph) is not None
