"""Target equality-generating dependencies (egds).

An egd is ``∀x̄. (ψ_Σ(x̄) → x₁ = x₂)`` with ψ a CNRE over the target alphabet
and x₁, x₂ among its variables (paper, Section 2, "Target constraints").
A graph satisfies the egd when every homomorphism of ψ assigns the same node
to x₁ and x₂.
"""

from __future__ import annotations

from typing import Hashable, Iterator

from repro.engine.delta import _functional_profile
from repro.engine.matcher import TriggerMatcher
from repro.errors import SchemaError
from repro.graph.cnre import CNREQuery
from repro.graph.database import GraphDatabase
from repro.relational.query import Variable

Node = Hashable


class TargetEgd:
    """An egd ``ψ_Σ(x̄) → x₁ = x₂``.

    >>> from repro.mappings.parser import parse_egd
    >>> egd = parse_egd("(x1, h, x3), (x2, h, x3) -> x1 = x2")
    >>> egd.left.name, egd.right.name
    ('x1', 'x2')
    """

    def __init__(self, body: CNREQuery, left: Variable, right: Variable, name: str = ""):
        body_vars = set(body.variables())
        for var in (left, right):
            if var not in body_vars:
                raise SchemaError(f"egd equality variable {var} not in body")
        self.body = body
        self.left = left
        self.right = right
        self.name = name
        self._hash: int | None = None

    def violations(self, graph: GraphDatabase) -> Iterator[tuple[Node, Node]]:
        """Yield pairs ``(h(x₁), h(x₂))`` with ``h(x₁) ≠ h(x₂)``, each once.

        Each yielded pair is a witness that the egd fires and is violated;
        the egd chase consumes these to decide merges.  A functional egd
        (:func:`~repro.engine.delta._functional_profile`: the key
        determines the member) first reads the adjacency index of its
        label: with no key group of two members there is nothing to yield
        and no join runs.  Matching runs on the shared indexed
        :class:`~repro.engine.matcher.TriggerMatcher`.
        """
        profile = _functional_profile(self)
        if profile is not None:
            label, direction = profile
            groups = (
                graph.backward_index(label)
                if direction == "in"
                else graph.forward_index(label)
            )
            if max(map(len, groups.values()), default=0) < 2:
                return
        seen: set[tuple[Node, Node]] = set()
        for hom in TriggerMatcher(graph).matches(self.body):
            left_value, right_value = hom[self.left], hom[self.right]
            if left_value != right_value:
                pair = (left_value, right_value)
                if pair not in seen:
                    seen.add(pair)
                    yield pair

    def is_satisfied(self, graph: GraphDatabase) -> bool:
        """Return whether ``graph`` satisfies the egd: no first violation."""
        return next(self.violations(graph), None) is None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TargetEgd):
            return NotImplemented
        return (
            self.body == other.body
            and self.left == other.left
            and self.right == other.right
        )

    def __hash__(self) -> int:
        # Memoised: the egd is immutable after construction, and hot paths
        # (lru-cached encodes, the SAT-pipeline cache key) hash whole
        # constraint tuples repeatedly.
        if self._hash is None:
            self._hash = hash((self.body, self.left, self.right))
        return self._hash

    def __str__(self) -> str:
        body = " ∧ ".join(str(a) for a in self.body.atoms)
        return f"{body} → {self.left} = {self.right}"

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"TargetEgd{label}({self})"
