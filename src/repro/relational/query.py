"""Conjunctive queries over relational schemas.

A *source query* in the paper is a conjunction of atoms over ``R`` that uses
only variables (Section 2).  For generality (and because s-t tgd bodies are
exactly source queries), atom arguments here may be either
:class:`Variable` objects or constants; the paper's fragment is obtained by
using variables everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.errors import SchemaError
from repro.relational.schema import RelationalSchema


@dataclass(frozen=True, order=True)
class Variable:
    """A first-order variable, identified by name.

    Variables compare and hash by name, so the same name used in two atoms
    denotes the same variable — exactly the semantics of conjunctive queries.
    """

    name: str

    def __hash__(self) -> int:
        # Hash the name directly: str objects memoise their hash, so this
        # skips the generated hash's per-call field-tuple allocation —
        # variables key every join assignment the chase builds.
        return hash(self.name)

    def __str__(self) -> str:
        return self.name


Term = object  # a Variable or a constant


def is_variable(term: Term) -> bool:
    """Return whether ``term`` is a :class:`Variable`."""
    return isinstance(term, Variable)


@dataclass(frozen=True)
class RelationalAtom:
    """An atom ``R(t1, ..., tk)`` with terms that are variables or constants."""

    relation: str
    terms: tuple[Term, ...]

    def __post_init__(self) -> None:
        # Memoised (the atom is frozen): joins ask for it per match.
        seen: dict[Variable, None] = {}
        for term in self.terms:
            if is_variable(term) and term not in seen:
                seen[term] = None
        object.__setattr__(self, "_variables", tuple(seen))

    def variables(self) -> tuple[Variable, ...]:
        """Return the variables of the atom, in order of first occurrence."""
        return self._variables  # type: ignore[attr-defined]

    def constants(self) -> frozenset[Term]:
        """Return the constants appearing in the atom."""
        return frozenset(t for t in self.terms if not is_variable(t))

    def __str__(self) -> str:
        args = ", ".join(str(t) for t in self.terms)
        return f"{self.relation}({args})"


class ConjunctiveQuery:
    """A conjunction of :class:`RelationalAtom` with a tuple of output variables.

    ``outputs`` lists the free (answer) variables; when omitted, every
    variable of the body is free, which matches how s-t tgd bodies are used
    (all body variables are universally quantified and exported to the head).

    >>> x, y = Variable("x"), Variable("y")
    >>> q = ConjunctiveQuery([RelationalAtom("R", (x, y))], outputs=(x,))
    >>> str(q)
    'R(x, y) -> (x)'
    """

    def __init__(
        self,
        atoms: Iterable[RelationalAtom],
        outputs: Sequence[Variable] | None = None,
    ):
        self.atoms: tuple[RelationalAtom, ...] = tuple(atoms)
        if not self.atoms:
            raise SchemaError("a conjunctive query needs at least one atom")
        self._hash: int | None = None
        seen: dict[Variable, None] = {}
        for atom in self.atoms:
            for var in atom.variables():
                seen.setdefault(var, None)
        # Memoised: the query is immutable, and the chases ask per match.
        self._variables: tuple[Variable, ...] = tuple(seen)
        body_vars = self._variables
        if outputs is None:
            self.outputs: tuple[Variable, ...] = body_vars
        else:
            self.outputs = tuple(outputs)
            unknown = [v for v in self.outputs if v not in body_vars]
            if unknown:
                names = ", ".join(v.name for v in unknown)
                raise SchemaError(f"output variables not in query body: {names}")

    def variables(self) -> tuple[Variable, ...]:
        """Return all body variables in order of first occurrence."""
        return self._variables

    def constants(self) -> frozenset[Term]:
        """Return all constants appearing in the body."""
        result: set[Term] = set()
        for atom in self.atoms:
            result.update(atom.constants())
        return frozenset(result)

    def validate(self, schema: RelationalSchema) -> None:
        """Check every atom against ``schema`` (existence and arity)."""
        for atom in self.atoms:
            symbol = schema[atom.relation]
            if len(atom.terms) != symbol.arity:
                raise SchemaError(
                    f"atom {atom} has {len(atom.terms)} terms, but {symbol} "
                    f"expects {symbol.arity}"
                )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConjunctiveQuery):
            return NotImplemented
        return self.atoms == other.atoms and self.outputs == other.outputs

    def __hash__(self) -> int:
        # Memoised: queries are immutable and hashed hot by caches.
        if self._hash is None:
            self._hash = hash((self.atoms, self.outputs))
        return self._hash

    def __str__(self) -> str:
        body = ", ".join(str(a) for a in self.atoms)
        heads = ", ".join(v.name for v in self.outputs)
        return f"{body} -> ({heads})"

    def __repr__(self) -> str:
        return f"ConjunctiveQuery({self})"
