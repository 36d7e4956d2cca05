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

from repro.engine.matcher import TriggerMatcher, is_simple_query
from repro.errors import SchemaError
from repro.graph.cnre import CNREAtom, CNREQuery
from repro.graph.database import GraphDatabase
from repro.graph.nre import NRE, Backward, Label, Union
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
        # _plan_head's steps: None until planned, False if not plannable.
        self._head_plan: list[tuple] | bool | None = None
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

    def head_checker(self, graph: GraphDatabase) -> Callable[[tuple], bool]:
        """:meth:`head_satisfied` on ``graph``, compiled once for every row.

        The checker takes a row of frontier values in :attr:`frontier`
        order and memoises its verdict per row.  A head whose atoms are
        unions of (backward) labels compiles into three kinds of test
        (:func:`_compile_head`); any other head keeps the per-row
        :meth:`head_satisfied`.  ``graph`` must not change while the
        checker is in use.
        """
        tests = _compile_head(self, graph)
        if tests is None:
            frontier = self.frontier
            tests = [
                lambda row: self.head_satisfied(graph, dict(zip(frontier, row)))
            ]
        memo: dict[tuple, bool] = {}

        def holds(row: tuple) -> bool:
            verdict = memo.get(row)
            if verdict is None:
                verdict = True
                for test in tests:
                    if not test(row):
                        verdict = False
                        break
                memo[row] = verdict
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


RowTest = Callable[[tuple], bool]


def _edge_alternatives(atom: CNREAtom) -> list[tuple[str, object, object]] | None:
    """``(label, source_term, target_term)`` per symbol of a union-of-labels atom.

    Each alternative is in edge orientation (a backward label swaps the
    terms); ``None`` when the atom's NRE is not a union of (backward)
    labels.
    """
    alternatives: list[tuple[str, object, object]] = []
    pending: list[NRE] = [atom.nre]
    while pending:
        expr = pending.pop()
        if isinstance(expr, Union):
            pending += (expr.right, expr.left)
        elif isinstance(expr, Label):
            alternatives.append((expr.name, atom.subject, atom.object))
        elif isinstance(expr, Backward):
            alternatives.append((expr.name, atom.object, atom.subject))
        else:
            return None
    return alternatives


def _plan_head(tgd: SourceToTargetTgd) -> list[tuple] | None:
    """The graph-independent part of :func:`_compile_head`.

    One step per kind of test, with variables already turned into row
    positions: ``("probe", [(label, s, t)])``, ``("domain", [(label,
    forward, i)])`` and ``("join", query, variables, positions)``.
    ``None`` when some atom is not a union of (backward) labels, or a
    join group is not simple (:func:`is_simple_query`).
    """
    slot = {var: index for index, var in enumerate(tgd.frontier)}
    occurrences: dict[Variable, int] = {}
    for atom in tgd.head.atoms:
        for term in (atom.subject, atom.object):
            if term not in slot:
                occurrences[term] = occurrences.get(term, 0) + 1
    steps: list[tuple] = []
    groups: list[tuple[set[Variable], list[CNREAtom]]] = []
    for atom in tgd.head.atoms:
        alternatives = _edge_alternatives(atom)
        if alternatives is None:
            return None
        existentials = {t for t in (atom.subject, atom.object) if t not in slot}
        if not existentials:
            steps.append(
                ("probe", [(lab, slot[s], slot[t]) for lab, s, t in alternatives])
            )
        elif len(existentials) == 1 and occurrences[next(iter(existentials))] == 1:
            steps.append(
                (
                    "domain",
                    [
                        (lab, True, slot[s]) if s in slot else (lab, False, slot[t])
                        for lab, s, t in alternatives
                    ],
                )
            )
        else:
            linked = [group for group in groups if group[0] & existentials]
            merged = (existentials, [atom])
            for group in linked:
                groups.remove(group)
                merged[0].update(group[0])
                merged[1].extend(group[1])
            groups.append(merged)
    for _, atoms in groups:
        query = CNREQuery(atoms)
        if not is_simple_query(query):
            return None
        variables = tuple(v for v in tgd.frontier if v in query.variables())
        steps.append(("join", query, variables, [slot[v] for v in variables]))
    return steps


def _compile_head(
    tgd: SourceToTargetTgd, graph: GraphDatabase
) -> list[RowTest] | None:
    """The head of ``tgd`` on ``graph`` as tests over frontier rows.

    A head holds for a row iff every test passes:

    * an atom over frontier variables only is an index probe, one per
      symbol of its union: ``row[t] in forward_index(a).get(row[s])``
      (a backward symbol swaps ``s`` and ``t``);
    * an atom whose one existential occurs nowhere else in the head is a
      domain test: the frontier end has some ``a`` successor (or
      predecessor).  ``has_successor`` tests for a non-empty adjacency
      set, since removing an edge can leave an empty one in the index;
    * every other group of atoms linked by shared existentials runs one
      join plan through :meth:`TriggerMatcher.has_match`, memoised on
      the group's frontier values.

    Returns ``None`` for heads :func:`_plan_head` does not plan.
    """
    if tgd._head_plan is None:
        tgd._head_plan = _plan_head(tgd) or False
    if tgd._head_plan is False:
        return None
    tests: list[RowTest] = []
    matcher = None
    for step in tgd._head_plan:
        if step[0] == "probe":
            tests.append(_probe(graph, step[1]))
        elif step[0] == "domain":
            tests.append(_domain_test(graph, step[1]))
        else:
            matcher = matcher or TriggerMatcher(graph)
            tests.append(_join_test(matcher, *step[1:]))
    return tests


def _probe(graph: GraphDatabase, alternatives: list) -> RowTest:
    """An atom between frontier variables: an adjacency-set probe per symbol."""
    probes = [(graph.forward_index(lab), s, t) for lab, s, t in alternatives]
    if len(probes) == 1:
        ((index, s, t),) = probes
        return lambda row: row[t] in index.get(row[s], ())
    return lambda row: any(row[t] in index.get(row[s], ()) for index, s, t in probes)


def _domain_test(graph: GraphDatabase, alternatives: list) -> RowTest:
    """An atom with a lone existential: its frontier end has an ``a`` neighbour."""
    tests = [
        (graph.has_successor if forward else graph.has_predecessor, lab, i)
        for lab, forward, i in alternatives
    ]
    if len(tests) == 1:
        ((has, lab, i),) = tests
        return lambda row: has(row[i], lab)
    return lambda row: any(has(row[i], lab) for has, lab, i in tests)


def _join_test(
    matcher: TriggerMatcher,
    query: CNREQuery,
    variables: tuple[Variable, ...],
    positions: list[int],
) -> RowTest:
    """Atoms linked by existentials: one join plan, memoised per binding."""
    plan = matcher.join_plan(query, variables)
    memo: dict[tuple, bool] = {}

    def test(row: tuple) -> bool:
        key = tuple([row[i] for i in positions])
        found = memo.get(key)
        if found is None:
            found = memo[key] = matcher.has_match(plan, dict(zip(variables, key)))
        return found

    return test
