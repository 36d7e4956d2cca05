"""Relational instances: finite sets of tuples over the constant domain.

An instance of a schema ``R`` associates to each relation symbol a finite set
of tuples over the countably infinite constant domain ``V`` (paper,
Section 2).  Constants are arbitrary hashable Python values; the paper's
``c1``, ``hx`` etc. are plain strings in the scenario modules.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from repro.errors import SchemaError
from repro.relational.schema import RelationSymbol, RelationalSchema

Constant = object
Tuple = tuple

_EMPTY: frozenset = frozenset()


class RelationalInstance:
    """A finite instance of a :class:`RelationalSchema`.

    Tuples are stored per relation symbol as ``frozenset``-like sets of plain
    Python tuples.  Arity conformance is checked on every insertion.

    >>> schema = RelationalSchema()
    >>> R = schema.declare("R", 1)
    >>> instance = RelationalInstance(schema)
    >>> instance.add("R", ("c1",))
    >>> sorted(instance.tuples("R"))
    [('c1',)]
    """

    def __init__(
        self,
        schema: RelationalSchema,
        facts: Mapping[str, Iterable[Tuple]] | None = None,
    ):
        self.schema = schema
        self._data: dict[str, set[Tuple]] = {symbol.name: set() for symbol in schema}
        # relation -> first-column value -> tuples; maintained on insert so
        # join steps with a bound first position read O(matches), not O(n).
        self._by_first: dict[str, dict[Constant, set[Tuple]]] = {
            symbol.name: {} for symbol in schema
        }
        # active_domain() memo; add and remove drop it.
        self._domain: frozenset[Constant] | None = None
        if facts:
            for name, tuples in facts.items():
                for tup in tuples:
                    self.add(name, tup)

    def _symbol(self, relation: str | RelationSymbol) -> RelationSymbol:
        if isinstance(relation, RelationSymbol):
            declared = self.schema.get(relation.name)
            if declared != relation:
                raise SchemaError(f"relation {relation} is not part of the schema")
            return relation
        return self.schema[relation]

    def add(self, relation: str | RelationSymbol, values: Iterable[Constant]) -> None:
        """Insert the tuple ``values`` into ``relation``.

        Raises :class:`~repro.errors.SchemaError` on arity mismatch or on an
        undeclared relation.
        """
        symbol = self._symbol(relation)
        tup = tuple(values)
        if len(tup) != symbol.arity:
            raise SchemaError(
                f"tuple {tup!r} has arity {len(tup)}, but {symbol} expects {symbol.arity}"
            )
        self._data[symbol.name].add(tup)
        self._domain = None
        if tup:
            self._by_first[symbol.name].setdefault(tup[0], set()).add(tup)

    def remove(self, relation: str | RelationSymbol, values: Iterable[Constant]) -> bool:
        """Delete the tuple ``values`` from ``relation`` if present.

        Returns whether a tuple was actually removed (``False`` makes
        delete-of-absent a cheap no-op, which the incremental chase relies
        on to net out insert/delete churn).  The first-column index is kept
        in sync, so :meth:`tuples_with_first` stays exact after deletions.
        Raises :class:`~repro.errors.SchemaError` on arity mismatch or on
        an undeclared relation, exactly like :meth:`add`.

        >>> schema = RelationalSchema()
        >>> _ = schema.declare("R", 2)
        >>> inst = RelationalInstance(schema, {"R": [("a", "b")]})
        >>> inst.remove("R", ("a", "b")), inst.remove("R", ("a", "b"))
        (True, False)
        >>> sorted(inst.tuples("R")), sorted(inst.tuples_with_first("R", "a"))
        ([], [])
        """
        symbol = self._symbol(relation)
        tup = tuple(values)
        if len(tup) != symbol.arity:
            raise SchemaError(
                f"tuple {tup!r} has arity {len(tup)}, but {symbol} expects {symbol.arity}"
            )
        data = self._data[symbol.name]
        if tup not in data:
            return False
        data.remove(tup)
        self._domain = None
        if tup:
            index = self._by_first[symbol.name]
            bucket = index.get(tup[0])
            if bucket is not None:
                bucket.discard(tup)
                if not bucket:
                    del index[tup[0]]
        return True

    def add_all(self, relation: str | RelationSymbol, tuples: Iterable[Iterable[Constant]]) -> None:
        """Insert every tuple from ``tuples`` into ``relation``."""
        for tup in tuples:
            self.add(relation, tup)

    def tuples(self, relation: str | RelationSymbol) -> frozenset[Tuple]:
        """Return the set of tuples currently stored for ``relation``."""
        symbol = self._symbol(relation)
        return frozenset(self._data[symbol.name])

    def iter_tuples(self, relation: str | RelationSymbol) -> Iterator[Tuple]:
        """Iterate the tuples of ``relation`` without materialising a copy.

        The iterator reads the live storage: do not insert into
        ``relation`` while consuming it (use :meth:`tuples` for a
        snapshot).

        >>> schema = RelationalSchema()
        >>> _ = schema.declare("R", 2)
        >>> inst = RelationalInstance(schema, {"R": [("a", "b")]})
        >>> list(inst.iter_tuples("R"))
        [('a', 'b')]
        """
        symbol = self._symbol(relation)
        return iter(self._data[symbol.name])

    def tuples_with_first(
        self, relation: str | RelationSymbol, value: Constant
    ) -> "frozenset[Tuple] | set[Tuple]":
        """Return the tuples of ``relation`` whose first column is ``value``.

        Served from an index maintained on insertion — the fast path of
        the trigger-matching joins when the first position is bound.  The
        returned set is a live view of the index bucket: iterate it, but
        do not insert into ``relation`` while doing so (and never mutate
        the returned set itself).

        >>> schema = RelationalSchema()
        >>> _ = schema.declare("R", 2)
        >>> inst = RelationalInstance(schema, {"R": [("a", "b"), ("c", "d")]})
        >>> sorted(inst.tuples_with_first("R", "a"))
        [('a', 'b')]
        """
        symbol = self._symbol(relation)
        return self._by_first[symbol.name].get(value, _EMPTY)

    def count(self, relation: str | RelationSymbol) -> int:
        """Return the number of tuples in ``relation`` (no copying).

        >>> schema = RelationalSchema()
        >>> _ = schema.declare("R", 1)
        >>> inst = RelationalInstance(schema, {"R": [("a",), ("b",)]})
        >>> inst.count("R")
        2
        """
        symbol = self._symbol(relation)
        return len(self._data[symbol.name])

    def contains(self, relation: str | RelationSymbol, values: Iterable[Constant]) -> bool:
        """Return whether the tuple ``values`` is present in ``relation``."""
        symbol = self._symbol(relation)
        return tuple(values) in self._data[symbol.name]

    def active_domain(self) -> frozenset[Constant]:
        """Return every constant mentioned anywhere in the instance.

        Memoised until the next :meth:`add` or :meth:`remove`.
        """
        if self._domain is None:
            domain: set[Constant] = set()
            for tuples in self._data.values():
                for tup in tuples:
                    domain.update(tup)
            self._domain = frozenset(domain)
        return self._domain

    def size(self) -> int:
        """Return the total number of facts across all relations."""
        return sum(len(tuples) for tuples in self._data.values())

    def fingerprint(self) -> frozenset:
        """Return a hashable snapshot of the instance's content.

        Two instances with equal facts (per relation) produce equal
        fingerprints regardless of insertion order or object identity —
        the key the persistent SAT pipeline caches on.  Computed fresh on
        every call (the instance is mutable, so caching it here would go
        stale); cost is one pass over the facts.

        >>> schema = RelationalSchema()
        >>> _ = schema.declare("R", 1)
        >>> a = RelationalInstance(schema, {"R": [("x",), ("y",)]})
        >>> b = RelationalInstance(schema, {"R": [("y",), ("x",)]})
        >>> a.fingerprint() == b.fingerprint()
        True
        """
        return frozenset(
            (name, frozenset(tuples)) for name, tuples in self._data.items()
        )

    def __len__(self) -> int:
        return self.size()

    def __iter__(self) -> Iterator[tuple[str, Tuple]]:
        """Iterate over ``(relation_name, tuple)`` facts."""
        for name, tuples in self._data.items():
            for tup in sorted(tuples, key=repr):
                yield name, tup

    def copy(self) -> "RelationalInstance":
        """Return an independent deep copy sharing the (immutable) schema."""
        clone = RelationalInstance(self.schema)
        for name, tuples in self._data.items():
            clone._data[name] = set(tuples)
        for name, index in self._by_first.items():
            clone._by_first[name] = {value: set(tups) for value, tups in index.items()}
        return clone

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RelationalInstance):
            return NotImplemented
        return self.schema == other.schema and self._data == other._data

    def __repr__(self) -> str:
        parts = []
        for name, tuples in self._data.items():
            if tuples:
                facts = ", ".join(f"{name}{tup!r}" for tup in sorted(tuples, key=repr))
                parts.append(facts)
        return f"RelationalInstance({'; '.join(parts)})"
