"""Concrete syntax for relational atoms and conjunctive queries.

Grammar (whitespace-insensitive)::

    query     := atoms [ "->" "(" outputs ")" ]
    atoms     := atom { "," atom }
    atom      := NAME "(" term { "," term } ")"
    term      := NAME            -- a variable (lowercase start) or
                                    a constant (quoted, or uppercase/digit start)
    outputs   := NAME { "," NAME }

Identifiers starting with a lowercase letter are variables, matching the
convention of the paper (``x1``, ``y``).  Single- or double-quoted strings
are constants; so are bare tokens starting with an uppercase letter or a
digit.  Example::

    Flight(x1, x2, x3), Hotel(x1, x4)
    E(x, y), E(y, z) -> (x, z)
"""

from __future__ import annotations

import re

from repro.errors import ParseError
from repro.relational.query import ConjunctiveQuery, RelationalAtom, Variable

_TOKEN = re.compile(
    r"""\s*(?:
        (?P<arrow>->)            |
        (?P<lpar>\()             |
        (?P<rpar>\))             |
        (?P<comma>,)             |
        (?P<quoted>'[^']*'|"[^"]*") |
        (?P<name>[A-Za-z_][A-Za-z0-9_]*|\d+)
    )""",
    re.VERBOSE,
)


class _Tokens:
    """A tiny cursor over the token stream, with one-token lookahead."""

    def __init__(self, text: str):
        self.text = text
        self.items: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            match = _TOKEN.match(text, pos)
            if match is None or match.end() == pos:
                if text[pos:].strip():
                    raise ParseError("unexpected character", text, pos)
                break
            kind = match.lastgroup or ""
            self.items.append((kind, match.group(kind), match.start(kind)))
            pos = match.end()
        self.index = 0

    def peek(self) -> tuple[str, str, int] | None:
        if self.index < len(self.items):
            return self.items[self.index]
        return None

    def next(self, expected: str | None = None) -> tuple[str, str, int]:
        item = self.peek()
        if item is None:
            raise ParseError(
                f"unexpected end of input (expected {expected or 'a token'})", self.text
            )
        if expected is not None and item[0] != expected:
            raise ParseError(f"expected {expected}, found {item[1]!r}", self.text, item[2])
        self.index += 1
        return item

    def done(self) -> bool:
        return self.index >= len(self.items)


def _term_from(kind: str, value: str) -> object:
    if kind == "quoted":
        return value[1:-1]
    if value[0].islower() or value[0] == "_":
        return Variable(value)
    return value  # uppercase/digit start: a constant


def _parse_atom(tokens: _Tokens) -> RelationalAtom:
    _, name, pos = tokens.next("name")
    if not name[0].isupper():
        raise ParseError("relation names must start uppercase", tokens.text, pos)
    tokens.next("lpar")
    terms: list[object] = []
    while True:
        kind, value, _ = tokens.next()
        if kind not in ("name", "quoted"):
            raise ParseError("expected a term", tokens.text)
        terms.append(_term_from(kind, value))
        kind, _, _ = tokens.next()
        if kind == "rpar":
            break
        if kind != "comma":
            raise ParseError("expected ',' or ')'", tokens.text)
    return RelationalAtom(name, tuple(terms))


def parse_atom(text: str) -> RelationalAtom:
    """Parse a single relational atom, e.g. ``"Flight(x1, x2, x3)"``."""
    tokens = _Tokens(text)
    atom = _parse_atom(tokens)
    if not tokens.done():
        raise ParseError("trailing input after atom", text)
    return atom


def parse_cq(text: str) -> ConjunctiveQuery:
    """Parse a conjunctive query with an optional output clause.

    >>> q = parse_cq("Flight(x1, x2, x3), Hotel(x1, x4)")
    >>> len(q.atoms), len(q.outputs)
    (2, 4)
    >>> q2 = parse_cq("E(x, y), E(y, z) -> (x, z)")
    >>> [v.name for v in q2.outputs]
    ['x', 'z']
    """
    tokens = _Tokens(text)
    atoms = [_parse_atom(tokens)]
    while not tokens.done():
        kind, _, pos = tokens.peek()  # type: ignore[misc]
        if kind == "comma":
            tokens.next("comma")
            atoms.append(_parse_atom(tokens))
        elif kind == "arrow":
            break
        else:
            raise ParseError("expected ',' or '->'", text, pos)

    outputs: list[Variable] | None = None
    if not tokens.done():
        tokens.next("arrow")
        tokens.next("lpar")
        outputs = []
        while True:
            kind, value, pos = tokens.next()
            if kind != "name" or not (value[0].islower() or value[0] == "_"):
                raise ParseError("output terms must be variables", text, pos)
            outputs.append(Variable(value))
            kind, _, _ = tokens.next()
            if kind == "rpar":
                break
            if kind != "comma":
                raise ParseError("expected ',' or ')' in outputs", text)
        if not tokens.done():
            raise ParseError("trailing input after outputs", text)
    return ConjunctiveQuery(atoms, outputs)
