"""Source-to-target tuple-generating dependencies (s-t tgds).

An s-t tgd is ``∀x̄. (φ_R(x̄) → ∃ȳ. ψ_Σ(x̄, ȳ))`` where φ is a conjunctive
query over the relational source and ψ a CNRE over the target alphabet
(paper, Section 2, "Schema mappings").  The frontier — the variables of x̄
that appear in ψ — is inferred: every head variable that also occurs in the
body is universally quantified, the rest of the head variables are
existential.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Hashable, Iterator, Mapping

from repro.engine.matcher import TriggerMatcher, is_simple_query
from repro.errors import SchemaError
from repro.graph.cnre import CNREQuery
from repro.graph.database import GraphDatabase
from repro.relational.evaluate import cq_homomorphisms
from repro.relational.instance import RelationalInstance
from repro.relational.query import ConjunctiveQuery, Variable

if TYPE_CHECKING:  # annotation-only import; avoids an import cycle
    from repro.chase.result import ChaseStats

Node = Hashable


class SourceToTargetTgd:
    """An s-t tgd with a relational body and a CNRE head.

    >>> from repro.mappings.parser import parse_st_tgd
    >>> tgd = parse_st_tgd(
    ...     "Flight(x1, x2, x3), Hotel(x1, x4) -> "
    ...     "(x2, f . f*, y), (y, h, x4), (y, f . f*, x3)")
    >>> sorted(v.name for v in tgd.frontier)
    ['x2', 'x3', 'x4']
    >>> sorted(v.name for v in tgd.existentials)
    ['y']
    """

    def __init__(self, body: ConjunctiveQuery, head: CNREQuery, name: str = ""):
        self.body = body
        self.head = head
        self.name = name
        self._hash: int | None = None
        body_vars = set(body.variables())
        head_vars = head.variables()
        self.frontier: tuple[Variable, ...] = tuple(
            v for v in head_vars if v in body_vars
        )
        self.existentials: tuple[Variable, ...] = tuple(
            v for v in head_vars if v not in body_vars
        )
        if head.constants():
            raise SchemaError(
                "s-t tgd heads use variables only (paper, Section 2); "
                f"found constants {sorted(map(repr, head.constants()))}"
            )

    def body_matches(
        self, instance: RelationalInstance, stats: "ChaseStats | None" = None
    ) -> Iterator[dict[Variable, Node]]:
        """Yield homomorphisms of the body into the source instance.

        ``stats`` optionally records index hits into a
        :class:`~repro.chase.result.ChaseStats`.
        """
        yield from cq_homomorphisms(self.body, instance, stats=stats)

    def head_satisfied(
        self,
        graph: GraphDatabase,
        frontier_values: dict[Variable, Node],
    ) -> bool:
        """Return whether ∃ȳ. ψ holds in ``graph`` under ``frontier_values``."""
        seed = {v: frontier_values[v] for v in self.frontier}
        for _ in TriggerMatcher(graph).matches(self.head, seed=seed):
            return True
        return False

    def head_checker(
        self, graph: GraphDatabase
    ) -> Callable[[Mapping[Variable, Node]], bool]:
        """:meth:`head_satisfied` on ``graph``, planned once for every trigger.

        A simple head (bare labels) gets one matcher and one join order,
        reused for each body match; other heads keep the per-trigger
        check.  ``graph`` must not change while the checker is in use.
        """
        if not is_simple_query(self.head):
            return lambda match: self.head_satisfied(graph, match)
        matcher = TriggerMatcher(graph)
        plan = matcher.join_plan(self.head, self.frontier)
        frontier = self.frontier
        return lambda match: matcher.has_match(plan, {v: match[v] for v in frontier})

    def violations(
        self, instance: RelationalInstance, graph: GraphDatabase
    ) -> Iterator[dict[Variable, Node]]:
        """Yield body matches whose head is not satisfied in ``graph``."""
        holds = self.head_checker(graph)
        for match in self.body_matches(instance):
            if not holds(match):
                yield match

    def is_satisfied(
        self, instance: RelationalInstance, graph: GraphDatabase
    ) -> bool:
        """Return whether ``(instance, graph)`` satisfies the tgd."""
        for _ in self.violations(instance, graph):
            return False
        return True

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SourceToTargetTgd):
            return NotImplemented
        return self.body == other.body and self.head == other.head

    def __hash__(self) -> int:
        # Memoised: tgds are immutable after construction and hashed hot
        # (the SAT-pipeline cache keys on the full tgd tuple).
        if self._hash is None:
            self._hash = hash((self.body, self.head))
        return self._hash

    def __str__(self) -> str:
        body = ", ".join(str(a) for a in self.body.atoms)
        head = " ∧ ".join(str(a) for a in self.head.atoms)
        return f"{body} → ∃{','.join(v.name for v in self.existentials) or '∅'}. {head}"

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"SourceToTargetTgd{label}({self})"
