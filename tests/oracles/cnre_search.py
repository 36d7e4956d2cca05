"""The nested-loop CNRE search: every atom scans its whole relation.

The seed's :func:`cnre_homomorphisms`, kept as the brute force the join
executor (:mod:`repro.join`) is pinned against.  Each NRE's relation is
materialised as a pair set by the set-algebraic
:func:`oracles.reference_eval.evaluate_nre`; atoms are ordered by
relation size once, and each backtracking step filters its atom's whole
relation against the bindings so far.  No index, no join order by
bound variables, nothing shared with the library's search.
"""

from __future__ import annotations

from typing import Hashable, Iterator, Mapping

from oracles.reference_eval import evaluate_nre
from repro.graph.cnre import CNREQuery
from repro.graph.database import GraphDatabase
from repro.relational.query import Variable, is_variable

Node = Hashable
Assignment = dict[Variable, Node]

_UNSET = object()


def cnre_homomorphisms(
    query: CNREQuery,
    graph: GraphDatabase,
    seed: Mapping[Variable, Node] | None = None,
) -> Iterator[Assignment]:
    """Yield every assignment of the query's variables satisfying all atoms.

    ``seed`` pre-binds variables; each yielded dictionary is fresh and
    contains the seed's bindings.
    """
    cache: dict = {}
    relations = {expr: evaluate_nre(graph, expr, cache) for expr in query.expressions()}
    ordered = sorted(query.atoms, key=lambda a: len(relations[a.nre]))

    def value(term, assignment: Assignment) -> object:
        if is_variable(term):
            return assignment.get(term, _UNSET)
        return term

    def extend(index: int, assignment: Assignment) -> Iterator[Assignment]:
        if index == len(ordered):
            yield dict(assignment)
            return
        atom = ordered[index]
        subject = value(atom.subject, assignment)
        obj = value(atom.object, assignment)
        for u, v in relations[atom.nre]:
            if subject is not _UNSET and u != subject:
                continue
            if obj is not _UNSET and v != obj:
                continue
            added: list[Variable] = []
            if is_variable(atom.subject) and subject is _UNSET:
                assignment[atom.subject] = u
                added.append(atom.subject)
            if is_variable(atom.object) and atom.object not in assignment:
                assignment[atom.object] = v
                added.append(atom.object)
            elif is_variable(atom.object) and assignment[atom.object] != v:
                for var in added:
                    del assignment[var]
                continue
            yield from extend(index + 1, assignment)
            for var in added:
                del assignment[var]

    yield from extend(0, dict(seed) if seed else {})
