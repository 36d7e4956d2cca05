"""Target tuple-generating dependencies.

A target tgd is ``∀x̄. (φ_Σ(x̄) → ∃ȳ. ψ_Σ(x̄, ȳ))`` with both sides CNREs over
the target alphabet (paper, Section 2).  sameAs constraints are the special
case in which the head is a single ``sameAs``-labeled atom between two body
variables — see :mod:`repro.mappings.sameas`.
"""

from __future__ import annotations

from typing import Hashable, Iterator

from repro.engine.matcher import TriggerMatcher
from repro.graph.cnre import CNREQuery
from repro.graph.database import GraphDatabase
from repro.relational.query import Variable

Node = Hashable


class TargetTgd:
    """A target tgd ``φ_Σ(x̄) → ∃ȳ. ψ_Σ(x̄, ȳ)``.

    The frontier (shared variables) is inferred exactly as for s-t tgds.
    """

    def __init__(self, body: CNREQuery, head: CNREQuery, name: str = ""):
        self.body = body
        self.head = head
        self.name = name
        body_vars = set(body.variables())
        head_vars = head.variables()
        self.frontier: tuple[Variable, ...] = tuple(
            v for v in head_vars if v in body_vars
        )
        self.existentials: tuple[Variable, ...] = tuple(
            v for v in head_vars if v not in body_vars
        )

    def violations(self, graph: GraphDatabase) -> Iterator[dict[Variable, Node]]:
        """Yield body homomorphisms whose head has no extension in ``graph``.

        Matching runs on the shared indexed
        :class:`~repro.engine.matcher.TriggerMatcher`.
        """
        matcher = TriggerMatcher(graph)
        yield from self.violations_among(graph, matcher.matches(self.body), matcher)

    def violations_among(
        self,
        graph: GraphDatabase,
        homs: Iterator[dict[Variable, Node]],
        matcher: TriggerMatcher | None = None,
    ) -> Iterator[dict[Variable, Node]]:
        """Filter a stream of body homomorphisms down to the violations.

        This is the single definition of the tgd's violation semantics
        (frontier projection seeding an existential head check);
        :meth:`violations` feeds it the full trigger set, while the
        semi-naive chase feeds it a delta-restricted one together with its
        own matcher.
        """
        matcher = matcher if matcher is not None else TriggerMatcher(graph)
        exists = matcher.join_plan(self.head, self.frontier).exists
        for hom in homs:
            if not exists([hom[v] for v in self.frontier]):
                yield hom

    def is_satisfied(self, graph: GraphDatabase) -> bool:
        """Return whether ``graph`` satisfies the target tgd."""
        for _ in self.violations(graph):
            return False
        return True

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TargetTgd):
            return NotImplemented
        return self.body == other.body and self.head == other.head

    def __hash__(self) -> int:
        return hash((self.body, self.head))

    def __str__(self) -> str:
        body = " ∧ ".join(str(a) for a in self.body.atoms)
        head = " ∧ ".join(str(a) for a in self.head.atoms)
        existentials = ",".join(v.name for v in self.existentials) or "∅"
        return f"{body} → ∃{existentials}. {head}"

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"TargetTgd{label}({self})"
