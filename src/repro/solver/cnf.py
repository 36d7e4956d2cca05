"""CNF formulas with DIMACS-style integer literals.

A literal is a non-zero ``int``: ``+v`` asserts variable ``v``, ``-v`` its
negation.  Variables are numbered from 1.  :class:`CNF` also supports named
variables (:meth:`CNF.variable`), which the exchange encoder uses to map
edge atoms to SAT variables and back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

Literal = int
Clause = tuple[Literal, ...]


def canonical_clause(literals: Iterable[Literal]) -> Clause | None:
    """Canonicalise a clause at insertion time.

    Repeated literals are merged (first occurrence order preserved) and
    tautological clauses (containing both ``x`` and ``¬x``) collapse to
    ``None`` — the caller drops them.  Raises :class:`ValueError` on the
    literal 0.  :class:`~repro.solver.cdcl.CDCLSolver` and the test
    suite's DPLL oracle ingest clauses through this single canonical
    form, so they always see identical inputs.

    >>> canonical_clause([1, 2, 2, 1])
    (1, 2)
    >>> canonical_clause([1, -1, 2]) is None
    True
    """
    seen: dict[int, None] = {}
    for literal in literals:
        if literal == 0:
            raise ValueError("0 is not a literal")
        if -literal in seen:
            return None  # tautological clause: x ∨ ¬x
        seen.setdefault(literal, None)
    return tuple(seen)


@dataclass
class CNF:
    """A CNF formula: a conjunction of clauses over integer variables.

    >>> cnf = CNF()
    >>> x, y = cnf.variable("x"), cnf.variable("y")
    >>> cnf.add_clause([x, y]); cnf.add_clause([-x, y])
    >>> cnf.clause_count, cnf.variable_count
    (2, 2)
    """

    clauses: list[Clause] = field(default_factory=list)
    variable_count: int = 0
    _names: dict[object, int] = field(default_factory=dict)

    def new_variable(self) -> int:
        """Allocate and return an anonymous fresh variable."""
        self.variable_count += 1
        return self.variable_count

    def variable(self, name: object) -> int:
        """Return the variable registered for ``name``, allocating on first use.

        ``name`` may be any hashable value (the exchange encoder uses
        ``("edge", u, a, v)`` tuples); it is used directly as the registry
        key, so lookups cost one hash instead of a ``repr`` rendering.
        """
        existing = self._names.get(name)
        if existing is not None:
            return existing
        fresh = self.new_variable()
        self._names[name] = fresh
        return fresh

    def has_name(self, name: object) -> bool:
        """Return whether ``name`` is already registered."""
        return name in self._names

    def names(self) -> dict[object, int]:
        """Return a copy of the name → variable registry."""
        return dict(self._names)

    def add_clause(self, literals: Iterable[Literal]) -> None:
        """Add a clause; tautologies are dropped, duplicates deduplicated.

        Canonicalisation happens here, at insertion time (see
        :func:`canonical_clause`), so every solver reading
        :attr:`clauses` sees canonical clauses.  Raises
        :class:`ValueError` on the literal 0 or out-of-range variables.
        """
        clause = canonical_clause(literals)
        if clause is None:
            return  # tautological clause: x ∨ ¬x
        for literal in clause:
            if abs(literal) > self.variable_count:
                raise ValueError(
                    f"literal {literal} references unallocated variable "
                    f"(count={self.variable_count})"
                )
        self.clauses.append(clause)

    def add_clause_trusted(self, clause: Clause) -> None:
        """Append an already-validated clause tuple without re-checking it.

        For encoder hot paths whose literals come straight out of
        :meth:`variable`/:meth:`new_variable` and are already deduplicated
        and tautology-free — the caller vouches for all of that.
        """
        self.clauses.append(clause)

    def add_exactly_one(self, literals: Iterable[Literal]) -> None:
        """Add clauses enforcing exactly one of ``literals`` (pairwise encoding)."""
        items = list(literals)
        self.add_clause(items)
        for i, first in enumerate(items):
            for second in items[i + 1 :]:
                self.add_clause([-first, -second])

    @property
    def clause_count(self) -> int:
        """The number of clauses."""
        return len(self.clauses)

    def is_satisfied_by(self, model: Mapping[int, bool]) -> bool:
        """Return whether ``model`` (variable → truth) satisfies every clause.

        Missing variables default to ``False``.
        """
        for clause in self.clauses:
            if not any(
                model.get(abs(literal), False) == (literal > 0) for literal in clause
            ):
                return False
        return True

    def __iter__(self) -> Iterator[Clause]:
        return iter(self.clauses)

    def __len__(self) -> int:
        return len(self.clauses)

    def to_dimacs(self) -> str:
        """Render the formula in DIMACS CNF format."""
        lines = [f"p cnf {self.variable_count} {len(self.clauses)}"]
        for clause in self.clauses:
            lines.append(" ".join(str(lit) for lit in clause) + " 0")
        return "\n".join(lines)

    @classmethod
    def from_dimacs(cls, text: str) -> "CNF":
        """Parse DIMACS CNF text (comments and the problem line tolerated)."""
        cnf = cls()
        declared = 0
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("c"):
                continue
            if line.startswith("p"):
                parts = line.split()
                declared = int(parts[2])
                continue
            literals = [int(tok) for tok in line.split() if tok != "0"]
            top = max((abs(lit) for lit in literals), default=0)
            cnf.variable_count = max(cnf.variable_count, top, declared)
            cnf.add_clause(literals)
        cnf.variable_count = max(cnf.variable_count, declared)
        return cnf
