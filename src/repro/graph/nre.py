"""Abstract syntax of nested regular expressions (NREs).

The grammar is exactly the paper's (Section 2)::

    r := ε | a (a ∈ Σ) | a⁻ (a ∈ Σ) | r + r | r · r | r* | [r]

where ``+`` is disjunction, ``·`` concatenation, ``*`` Kleene star, ``a⁻``
backward traversal of an ``a``-edge, and ``[r]`` nesting: a node test that
succeeds on ``u`` iff some ``v`` with ``(u, v) ∈ ⟦r⟧`` exists.

The paper (and [5]) writes nesting postfix, as in ``f·f*[h]``, which denotes
the concatenation of ``f·f*`` with the node test ``[h]``; in this AST the
test is the standalone :class:`Nest` combinator and postfix application is
ordinary concatenation, e.g. ``concat(concat(label("f"), star(label("f"))),
nest(label("h")))``.

All nodes are frozen dataclasses: hashable, comparable, and safe to share.
Smart constructors (:func:`union`, :func:`concat`, :func:`star`, …) apply
lightweight simplifications (associativity flattening, identity elements)
without changing the language.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from functools import reduce
from typing import Iterator


class NRE:
    """Base class of all NRE AST nodes.

    Supports operator sugar so expressions read close to the paper::

        f, h = label("f"), label("h")
        q = f * star(f) * nest(h) * backward("f")   # '*' is concatenation
        alt = f + h                                  # '+' is disjunction
    """

    def __add__(self, other: "NRE") -> "NRE":
        return union(self, other)

    def __mul__(self, other: "NRE") -> "NRE":
        return concat(self, other)

    def children(self) -> tuple["NRE", ...]:
        """Return the direct subexpressions (empty for atoms)."""
        return ()

    def walk(self) -> Iterator["NRE"]:
        """Yield this node and every descendant, pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()

    def size(self) -> int:
        """Return the number of AST nodes."""
        return sum(1 for _ in self.walk())

    def __str__(self) -> str:  # pragma: no cover - abstract
        raise NotImplementedError

    def __getstate__(self) -> dict:
        # The memoised hash of a compound node is salted per process
        # (PYTHONHASHSEED); it must never survive pickling.
        state = self.__dict__.copy()
        state.pop("_hash", None)
        return state


def _memoised_hash(node: NRE) -> int:
    """The hash of a compound node's children, computed once per node.

    Subexpression caches hash an expression on every lookup, and the
    generated dataclass hash would rehash the whole subtree each time.
    """
    cached = node.__dict__.get("_hash")
    if cached is None:
        cached = hash(node.children())
        object.__setattr__(node, "_hash", cached)
    return cached


@dataclass(frozen=True)
class Epsilon(NRE):
    """The empty word ε: ``⟦ε⟧ = {(u, u) | u ∈ V}``."""

    def __str__(self) -> str:
        return "()"


@dataclass(frozen=True)
class Label(NRE):
    """A forward edge label ``a``: ``⟦a⟧ = {(u, v) | (u, a, v) ∈ E}``."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Backward(NRE):
    """A backward edge label ``a⁻``: ``⟦a⁻⟧ = {(u, v) | (v, a, u) ∈ E}``."""

    name: str

    def __str__(self) -> str:
        return f"{self.name}-"


@dataclass(frozen=True)
class Union(NRE):
    """Disjunction ``r₁ + r₂``: union of the two relations."""

    left: NRE
    right: NRE

    __hash__ = _memoised_hash

    def children(self) -> tuple[NRE, ...]:
        """The two disjuncts."""
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} + {self.right})"


@dataclass(frozen=True)
class Concat(NRE):
    """Concatenation ``r₁ · r₂``: composition of the two relations."""

    left: NRE
    right: NRE

    __hash__ = _memoised_hash

    def children(self) -> tuple[NRE, ...]:
        """The two concatenands, in order."""
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"{self.left} . {self.right}"


@dataclass(frozen=True)
class Star(NRE):
    """Kleene star ``r*``: reflexive-transitive closure of ``⟦r⟧``."""

    inner: NRE

    __hash__ = _memoised_hash

    def children(self) -> tuple[NRE, ...]:
        """The starred body."""
        return (self.inner,)

    def __str__(self) -> str:
        inner = str(self.inner)
        if isinstance(self.inner, (Label, Backward, Epsilon, Nest)):
            return f"{inner}*"
        return f"({inner})*"


@dataclass(frozen=True)
class Nest(NRE):
    """Nesting ``[r]``: ``⟦[r]⟧ = {(u, u) | ∃v. (u, v) ∈ ⟦r⟧}``."""

    inner: NRE

    __hash__ = _memoised_hash

    def children(self) -> tuple[NRE, ...]:
        """The nested-test body."""
        return (self.inner,)

    def __str__(self) -> str:
        return f"[{self.inner}]"


# ---------------------------------------------------------------------------
# Smart constructors
# ---------------------------------------------------------------------------

_EPSILON = Epsilon()


def epsilon() -> NRE:
    """Return the ε expression (a shared singleton)."""
    return _EPSILON


@functools.lru_cache(maxsize=65536)
def label(name: str) -> Label:
    """Return the forward-label atom ``a`` (interned — Labels are frozen,
    and constructions like the reduction families mint the same label
    objects thousands of times)."""
    return Label(name)


def backward(name: str) -> Backward:
    """Return the backward-label atom ``a⁻``."""
    return Backward(name)


def _flatten(parts: tuple[NRE, ...], node_type: type) -> list[NRE]:
    """Flatten nested ``node_type`` operands (associativity normalisation)."""
    flat: list[NRE] = []
    for part in parts:
        if isinstance(part, node_type):
            flat.extend(_flatten((part.left, part.right), node_type))  # type: ignore[attr-defined]
        else:
            flat.append(part)
    return flat


def union(*parts: NRE) -> NRE:
    """Return the disjunction of ``parts``, flattened and deduplicated.

    Associativity is normalised (left-nested) so that syntactically
    different groupings of the same alternatives compare equal;
    ``r + r ≡ r`` removes duplicates.
    """
    if not parts:
        raise ValueError("union() needs at least one operand")
    unique: list[NRE] = []
    for part in _flatten(tuple(parts), Union):
        if part not in unique:
            unique.append(part)
    return reduce(lambda acc, nxt: Union(acc, nxt), unique[1:], unique[0])


def concat(*parts: NRE) -> NRE:
    """Return the concatenation of ``parts``, flattened, with ε elided.

    Associativity is normalised (left-nested): ``concat(a, concat(b, c))``
    and ``concat(concat(a, b), c)`` build the same AST.  ε is the identity
    of concatenation: ``concat(ε, r) ≡ r``.
    """
    if not parts:
        return _EPSILON
    useful = [
        p for p in _flatten(tuple(parts), Concat) if not isinstance(p, Epsilon)
    ]
    if not useful:
        return _EPSILON
    return reduce(lambda acc, nxt: Concat(acc, nxt), useful[1:], useful[0])


def star(inner: NRE) -> NRE:
    """Return ``inner*``, collapsing ``(r*)* ≡ r*`` and ``ε* ≡ ε``."""
    if isinstance(inner, Star):
        return inner
    if isinstance(inner, Epsilon):
        return _EPSILON
    return Star(inner)


def plus(inner: NRE) -> NRE:
    """Return ``inner · inner*`` — the "one or more" derived combinator.

    The paper's ``f · f*`` idiom ("a flight with possible connections") is
    exactly ``plus(label("f"))``.
    """
    return concat(inner, star(inner))


def nest(inner: NRE) -> NRE:
    """Return the node test ``[inner]``."""
    return Nest(inner)


def word(*names: str) -> NRE:
    """Return the concatenation of forward labels, e.g. ``word("a","b")`` = a·b."""
    return concat(*(label(n) for n in names))
