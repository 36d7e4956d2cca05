"""Source-to-target tuple-generating dependencies (s-t tgds).

An s-t tgd is ``∀x̄. (φ_R(x̄) → ∃ȳ. ψ_Σ(x̄, ȳ))`` where φ is a conjunctive
query over the relational source and ψ a CNRE over the target alphabet
(paper, Section 2, "Schema mappings").  The frontier — the variables of x̄
that appear in ψ — is inferred: every head variable that also occurs in the
body is universally quantified, the rest of the head variables are
existential.
"""

from __future__ import annotations

from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Hashable, Iterator

from repro.engine.matcher import TriggerMatcher
from repro.errors import SchemaError
from repro.graph.cnre import CNREQuery
from repro.graph.database import GraphDatabase
from repro.relational.evaluate import cq_homomorphisms, cq_match_rows
from repro.relational.instance import RelationalInstance
from repro.relational.query import ConjunctiveQuery, Variable, is_variable

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

    def body_rows(
        self,
        instance: RelationalInstance,
        variables: tuple[Variable, ...],
        stats: "ChaseStats | None" = None,
    ) -> list[tuple]:
        """Every body match projected onto ``variables``, one row per match.

        A single atom over distinct variables needs no join: its rows are
        the relation's tuples, permuted into ``variables`` order (a full
        scan, so no index hit, exactly like the join would count it).
        Other bodies run :func:`~repro.relational.evaluate.cq_match_rows`.
        """
        body = self.body
        terms = body.atoms[0].terms
        if (
            len(body.atoms) == 1
            and terms
            and all(is_variable(term) for term in terms)
            and len(set(terms)) == len(terms)
        ):
            body.validate(instance.schema)
            tuples = instance.iter_tuples(body.atoms[0].relation)
            order = tuple(terms.index(var) for var in variables)
            if order == tuple(range(len(terms))):
                return list(tuples)
            if len(order) >= 2:
                return list(map(itemgetter(*order), tuples))
            return [tuple(row[i] for i in order) for row in tuples]
        return cq_match_rows(body, instance, variables, stats=stats)

    def head_checker(self, graph: GraphDatabase) -> Callable[[tuple], bool]:
        """Whether ∃ȳ. ψ holds in ``graph``, compiled once for every row.

        The checker takes a row of frontier values in :attr:`frontier`
        order and memoises its verdict per row.  It is the head's join
        plan with the frontier bound
        (:meth:`~repro.engine.matcher.TriggerMatcher.join_plan`), whose
        :meth:`~repro.join.Plan.existence` tests the head one independent
        component at a time.  ``graph`` must not change while the
        checker is in use.
        """
        check = TriggerMatcher(graph).join_plan(self.head, self.frontier).existence()
        memo: dict[tuple, bool] = {}

        def holds(row: tuple) -> bool:
            verdict = memo.get(row)
            if verdict is None:
                verdict = memo[row] = check(row)
            return verdict

        return holds

    def violations(
        self,
        instance: RelationalInstance,
        graph: GraphDatabase,
        holds: Callable[[tuple], bool] | None = None,
    ) -> Iterator[dict[Variable, Node]]:
        """Yield body matches whose head is not satisfied in ``graph``.

        Matches come in :meth:`body_matches` order.  ``holds`` is a
        :meth:`head_checker` on ``graph`` to reuse, with its memo.
        """
        if holds is None:
            holds = self.head_checker(graph)
        frontier = self.frontier
        for match in self.body_matches(instance):
            if not holds(tuple(match[v] for v in frontier)):
                yield match

    def is_satisfied(
        self,
        instance: RelationalInstance,
        graph: GraphDatabase,
        holds: Callable[[tuple], bool] | None = None,
    ) -> bool:
        """Return whether ``(instance, graph)`` satisfies the tgd.

        Set at a time: the body matches are projected onto the frontier
        once, and each distinct row is checked once.
        """
        if holds is None:
            holds = self.head_checker(graph)
        return all(map(holds, set(self.body_rows(instance, self.frontier))))

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
