"""Concrete syntax for nested regular expressions.

Grammar (whitespace-insensitive)::

    expr    := term { "+" term }                 -- disjunction
    term    := factor { "." factor }             -- concatenation
    factor  := primary { "*" | "[" expr "]" }    -- postfix star / postfix nesting
    primary := NAME [ "-" ]                      -- label, optionally backward
             | "(" expr ")"                      -- grouping
             | "[" expr "]"                      -- standalone node test
             | "()" | "eps"                      -- ε

Postfix nesting mirrors the paper's notation: ``f.f*[h].f-.(f-)*`` parses as
``f · f* · [h] · f⁻ · (f⁻)*`` — the query of Example 2.2.

>>> str(parse_nre("f . f*[h] . f- . (f-)*"))
'f . f* . [h] . f- . f-*'

(``f-*`` is the unparenthesised rendering of ``(f⁻)*`` — postfix ``*``
binds to the backward atom, so the two spellings parse identically.)
"""

from __future__ import annotations

import functools
import re

from repro.errors import ParseError
from repro.graph.nre import (
    NRE,
    backward,
    concat,
    epsilon,
    label,
    nest,
    star,
    union,
)

_TOKEN = re.compile(
    r"""\s*(?:
        (?P<eps>\(\)|eps\b)        |
        (?P<name>[A-Za-z_][A-Za-z0-9_]*) |
        (?P<minus>-)               |
        (?P<plus>\+)               |
        (?P<dot>\.|·)              |
        (?P<star>\*)               |
        (?P<lpar>\()               |
        (?P<rpar>\))               |
        (?P<lbra>\[)               |
        (?P<rbra>\])
    )""",
    re.VERBOSE,
)


class _Cursor:
    def __init__(self, text: str):
        self.text = text
        self.tokens: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            match = _TOKEN.match(text, pos)
            if match is None or match.end() == pos:
                if text[pos:].strip():
                    raise ParseError("unexpected character in NRE", text, pos)
                break
            kind = match.lastgroup or ""
            self.tokens.append((kind, match.group(kind), match.start(kind)))
            pos = match.end()
        self.index = 0

    def peek(self) -> str | None:
        if self.index < len(self.tokens):
            return self.tokens[self.index][0]
        return None

    def next(self, expected: str | None = None) -> tuple[str, str, int]:
        if self.index >= len(self.tokens):
            raise ParseError(
                f"unexpected end of NRE (expected {expected or 'a token'})", self.text
            )
        item = self.tokens[self.index]
        if expected is not None and item[0] != expected:
            raise ParseError(f"expected {expected}, found {item[1]!r}", self.text, item[2])
        self.index += 1
        return item

    def done(self) -> bool:
        return self.index >= len(self.tokens)


def _parse_expr(cursor: _Cursor) -> NRE:
    parts = [_parse_term(cursor)]
    while cursor.peek() == "plus":
        cursor.next("plus")
        parts.append(_parse_term(cursor))
    return union(*parts)


def _parse_term(cursor: _Cursor) -> NRE:
    parts = [_parse_factor(cursor)]
    while cursor.peek() == "dot":
        cursor.next("dot")
        parts.append(_parse_factor(cursor))
    return concat(*parts)


def _parse_factor(cursor: _Cursor) -> NRE:
    result = _parse_primary(cursor)
    while True:
        kind = cursor.peek()
        if kind == "star":
            cursor.next("star")
            result = star(result)
        elif kind == "lbra":
            cursor.next("lbra")
            inner = _parse_expr(cursor)
            cursor.next("rbra")
            result = concat(result, nest(inner))
        else:
            return result


def _parse_primary(cursor: _Cursor) -> NRE:
    kind, value, pos = cursor.next()
    if kind == "eps":
        return epsilon()
    if kind == "name":
        if cursor.peek() == "minus":
            cursor.next("minus")
            return backward(value)
        return label(value)
    if kind == "lpar":
        inner = _parse_expr(cursor)
        cursor.next("rpar")
        return inner
    if kind == "lbra":
        inner = _parse_expr(cursor)
        cursor.next("rbra")
        return nest(inner)
    raise ParseError(f"unexpected token {value!r} in NRE", cursor.text, pos)


@functools.lru_cache(maxsize=1024)
def parse_nre(text: str) -> NRE:
    """Parse the concrete NRE syntax into an AST (memoised per string).

    NRE nodes are immutable values, so re-parsing the same text can share
    one AST; the identical object then keys the query engine's caches
    (:class:`repro.engine.query.QueryEngine`) by both identity and value.
    The syntax round-trips: ``parse_nre(str(e)) == e``
    for every AST ``e`` built from the smart constructors (pinned by the
    property suite), so caches keyed on parsed NREs hit no matter whether
    the expression arrived as text or was printed and re-read.

    >>> from repro.graph.nre import Star, Concat
    >>> r = parse_nre("a . (b* + c*) . a")
    >>> r.size()
    9
    >>> parse_nre("a . (b* + c*) . a") is r
    True
    """
    cursor = _Cursor(text)
    result = _parse_expr(cursor)
    if not cursor.done():
        kind, value, pos = cursor.tokens[cursor.index]
        raise ParseError(f"trailing input {value!r} after NRE", text, pos)
    return result
