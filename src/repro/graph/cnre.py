"""CNRE queries: conjunctions of nested regular expressions with variables.

A *target query* in the paper is a conjunction of NRE atoms using variables
only (Section 2).  An atom ``(x, r, y)`` holds under an assignment ``h`` when
``(h(x), h(y)) ∈ ⟦r⟧_G``.  As with the relational side, we additionally allow
constants (node ids) in atom positions — dependency heads need them never,
but solution checking seeds assignments with constants, and allowing them
keeps one uniform mechanism.

Evaluation runs on the join executor (:mod:`repro.join`):
:func:`graph_atoms` turns each atom into an access.  A bare (backward)
label reads the graph's adjacency indexes; any other NRE reads its
relation from a query engine — by default (``engine=None``) the shared
:class:`~repro.engine.query.QueryEngine`, so repeated graphs hit its
cross-candidate cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterator, Mapping, Sequence

from repro.errors import SchemaError
from repro.graph.database import GraphDatabase
from repro.graph.nre import NRE, Backward, Label, required_labels
from repro.join import Body, LabelAccess, PairAccess
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

    def edge_view(self) -> tuple[Term, str, Term] | None:
        """``(source_term, label, target_term)`` for a bare-label atom.

        A backward atom ``(x, a⁻, y)`` matches the edge ``(h(y), a, h(x))``,
        so its terms swap sides.  ``None`` for any other NRE.

        >>> x, y = Variable("x"), Variable("y")
        >>> CNREAtom(x, Backward("a"), y).edge_view() == (y, "a", x)
        True
        """
        if isinstance(self.nre, Label):
            return self.subject, self.nre.name, self.object
        if isinstance(self.nre, Backward):
            return self.object, self.nre.name, self.subject
        return None

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
        self._labels: frozenset[str] | None = None
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

    def required_labels(self) -> frozenset[str]:
        """The labels some atom needs (:func:`~repro.graph.nre.required_labels`),
        computed once: a graph with no edge of one of them matches nothing."""
        if self._labels is None:
            self._labels = frozenset().union(
                *(required_labels(atom.nre) for atom in self.atoms)
            )
        return self._labels

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


def graph_atoms(
    atoms: Sequence[CNREAtom], graph: GraphDatabase, engine=None
) -> list[tuple[object, tuple[Term, Term]]]:
    """The join-executor atoms of ``atoms`` over ``graph``.

    A bare (backward) label becomes a :class:`~repro.join.LabelAccess` in
    edge orientation; any other NRE a :class:`~repro.join.PairAccess` on
    ``engine.pairs(graph, nre)``.
    """
    result: list[tuple[object, tuple[Term, Term]]] = []
    for atom in atoms:
        view = atom.edge_view()
        if view is not None:
            source, label, target = view
            result.append((LabelAccess(graph, label), (source, target)))
            continue
        if engine is None:
            from repro.engine.query import default_engine

            engine = default_engine()
        access = PairAccess(engine.pairs(graph, atom.nre))
        result.append((access, (atom.subject, atom.object)))
    return result


def cnre_homomorphisms(
    query: CNREQuery,
    graph: GraphDatabase,
    seed: Mapping[Variable, Node] | None = None,
    engine=None,
) -> Iterator[Assignment]:
    """Yield every assignment of the query's variables satisfying all atoms.

    ``seed`` pre-binds variables (used when dependency bodies seed head
    checks); its bindings are part of every yielded dictionary, and each
    dictionary is fresh.  ``engine`` supplies the composite-NRE
    relations (default: the shared compiled engine).

    >>> from repro.graph.parser import parse_nre
    >>> g = GraphDatabase(edges=[("u", "a", "v"), ("v", "b", "w")])
    >>> x, y = Variable("x"), Variable("y")
    >>> q = CNREQuery([CNREAtom(x, parse_nre("a . b*"), y)])
    >>> sorted(h[y] for h in cnre_homomorphisms(q, g, seed={x: "u"}))
    ['v', 'w']
    """
    body = Body(graph_atoms(query.atoms, graph, engine), query.variables())
    yield from body.matches(seed)


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
    body = Body(graph_atoms(query.atoms, graph, engine), query.variables())
    return frozenset(body.rows(project=[body.index[v] for v in query.outputs]))
