"""CNRE queries: conjunctions of nested regular expressions with variables.

A *target query* in the paper is a conjunction of NRE atoms using variables
only (Section 2).  An atom ``(x, r, y)`` holds under an assignment ``h`` when
``(h(x), h(y)) ∈ ⟦r⟧_G``.  As with the relational side, we additionally allow
constants (node ids) in atom positions — dependency heads need them never,
but solution checking seeds assignments with constants, and allowing them
keeps one uniform mechanism.

Evaluation precomputes ``⟦r⟧_G`` for each distinct NRE in the query and then
backtracks over variable assignments, most-constrained-atom first.  The
per-NRE relations come from a query engine — by default (``engine=None``)
the shared compiled :class:`~repro.engine.query.QueryEngine`, so repeated
graphs hit its cross-candidate cache; the differential tests pass the
set-algebraic reference oracle instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterator, Mapping, Sequence

from repro.errors import SchemaError
from repro.graph.database import GraphDatabase
from repro.graph.nre import NRE
from repro.relational.query import Variable, is_variable

Node = Hashable
Term = object  # Variable or node id


@dataclass(frozen=True)
class CNREAtom:
    """An atom ``(subject, nre, object)`` of a CNRE query."""

    subject: Term
    nre: NRE
    object: Term

    def variables(self) -> tuple[Variable, ...]:
        """Return the atom's variables in subject-then-object order."""
        result: list[Variable] = []
        for term in (self.subject, self.object):
            if is_variable(term) and term not in result:
                result.append(term)
        return tuple(result)

    def __str__(self) -> str:
        return f"({self.subject}, {self.nre}, {self.object})"


class CNREQuery:
    """A conjunction of :class:`CNREAtom` with declared output variables.

    >>> from repro.graph.parser import parse_nre
    >>> x, y = Variable("x"), Variable("y")
    >>> q = CNREQuery([CNREAtom(x, parse_nre("f . f*"), y)])
    >>> [v.name for v in q.outputs]
    ['x', 'y']
    """

    def __init__(
        self,
        atoms: Sequence[CNREAtom],
        outputs: Sequence[Variable] | None = None,
    ):
        self.atoms: tuple[CNREAtom, ...] = tuple(atoms)
        if not self.atoms:
            raise SchemaError("a CNRE query needs at least one atom")
        self._variables: tuple[Variable, ...] | None = None
        self._hash: int | None = None
        body_vars = self.variables()
        if outputs is None:
            self.outputs: tuple[Variable, ...] = body_vars
        else:
            self.outputs = tuple(outputs)
            unknown = [v for v in self.outputs if v not in body_vars]
            if unknown:
                names = ", ".join(v.name for v in unknown)
                raise SchemaError(f"output variables not in query body: {names}")

    def variables(self) -> tuple[Variable, ...]:
        """Return all variables in order of first occurrence (computed once)."""
        if self._variables is None:
            seen: dict[Variable, None] = {}
            for atom in self.atoms:
                for var in atom.variables():
                    seen.setdefault(var, None)
            self._variables = tuple(seen)
        return self._variables

    def constants(self) -> frozenset[Node]:
        """Return all node constants used in atom positions."""
        result: set[Node] = set()
        for atom in self.atoms:
            for term in (atom.subject, atom.object):
                if not is_variable(term):
                    result.add(term)
        return frozenset(result)

    def expressions(self) -> tuple[NRE, ...]:
        """Return the distinct NREs of the query, in first-use order."""
        seen: dict[NRE, None] = {}
        for atom in self.atoms:
            seen.setdefault(atom.nre, None)
        return tuple(seen)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CNREQuery):
            return NotImplemented
        return self.atoms == other.atoms and self.outputs == other.outputs

    def __hash__(self) -> int:
        # Memoised: queries are immutable and hashed hot (lru-cached
        # matchers/encodes key on them).
        if self._hash is None:
            self._hash = hash((self.atoms, self.outputs))
        return self._hash

    def __str__(self) -> str:
        body = " ∧ ".join(str(a) for a in self.atoms)
        heads = ", ".join(v.name for v in self.outputs)
        return f"{body} -> ({heads})"

    def __repr__(self) -> str:
        return f"CNREQuery({self})"


Assignment = dict[Variable, Node]


def cnre_homomorphisms(
    query: CNREQuery,
    graph: GraphDatabase,
    seed: Mapping[Variable, Node] | None = None,
    engine=None,
) -> Iterator[Assignment]:
    """Yield every assignment of the query's variables satisfying all atoms.

    ``seed`` pre-binds variables (used when dependency bodies seed head
    checks).  Each yielded dictionary is fresh.  ``engine`` supplies the
    per-NRE relations (default: the shared compiled engine).
    """
    if engine is None:
        from repro.engine.query import default_engine

        engine = default_engine()
    relations: dict[NRE, frozenset[tuple[Node, Node]]] = {}
    for expr in query.expressions():
        relations[expr] = engine.pairs(graph, expr)

    # Order atoms: those with the smallest relations first, re-ranked as
    # variables become bound (cheap static approximation: sort by size).
    ordered = sorted(query.atoms, key=lambda a: len(relations[a.nre]))

    def value(term: Term, assignment: Assignment) -> object:
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
                if atom.subject == atom.object and u != v:
                    for var in added:
                        del assignment[var]
                    continue
                assignment[atom.object] = v
                added.append(atom.object)
            elif is_variable(atom.object) and assignment[atom.object] != v:
                for var in added:
                    del assignment[var]
                continue
            yield from extend(index + 1, assignment)
            for var in added:
                del assignment[var]

    initial: Assignment = dict(seed) if seed else {}
    # Reject seeds that already clash with constants in atom positions.
    yield from extend(0, initial)


_UNSET = object()


def evaluate_cnre(
    query: CNREQuery, graph: GraphDatabase, engine=None
) -> frozenset[tuple]:
    """Evaluate a CNRE query, returning projections onto its outputs.

    >>> from repro.graph.parser import parse_nre
    >>> g = GraphDatabase(edges=[("u", "a", "v")])
    >>> x, y = Variable("x"), Variable("y")
    >>> evaluate_cnre(CNREQuery([CNREAtom(x, parse_nre("a"), y)]), g)
    frozenset({('u', 'v')})
    """
    answers = set()
    for hom in cnre_homomorphisms(query, graph, engine=engine):
        answers.add(tuple(hom[v] for v in query.outputs))
    return frozenset(answers)
