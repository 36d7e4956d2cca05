"""Conjunctive-query evaluation on the join executor.

The evaluator enumerates homomorphisms from the query body into the
instance (the standard semantics of CQs).  :func:`relational_body` turns
each atom into a :class:`~repro.join.TupleAccess`, and the join executor
(:mod:`repro.join`) orders the atoms greedily — most bound variables
first, then the smallest relation — and backtracks over them without
building intermediate relations.

When an atom's first position is bound, the candidate tuples are read
from the instance's first-column hash index
(:meth:`~repro.relational.instance.RelationalInstance.tuples_with_first`)
instead of scanning the whole relation; an optional
:class:`~repro.chase.result.ChaseStats` records those index hits.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Mapping

from repro.join import Body, TupleAccess
from repro.relational.instance import RelationalInstance
from repro.relational.query import ConjunctiveQuery, Variable

if TYPE_CHECKING:  # annotation-only import; avoids an import cycle
    from repro.chase.result import ChaseStats

Assignment = dict[Variable, object]


def relational_body(query: ConjunctiveQuery, instance: RelationalInstance) -> Body:
    """The body of ``query`` over ``instance``, for the join executor.

    Row values come in ``query.variables()`` order.  Validates the query
    against the instance's schema.
    """
    query.validate(instance.schema)
    return Body(
        [
            (TupleAccess(instance, atom.relation, len(atom.terms)), atom.terms)
            for atom in query.atoms
        ],
        query.variables(),
    )


def cq_homomorphisms(
    query: ConjunctiveQuery,
    instance: RelationalInstance,
    seed: Mapping[Variable, object] | None = None,
    stats: "ChaseStats | None" = None,
) -> Iterator[Assignment]:
    """Yield every homomorphism from ``query``'s body into ``instance``.

    A homomorphism maps each body variable to a constant such that every atom
    becomes a fact of the instance.  ``seed`` optionally pre-binds variables
    (used when checking dependencies: the body match seeds the head check);
    its bindings are part of every yielded dictionary.  ``stats``
    optionally records index hits into a
    :class:`~repro.chase.result.ChaseStats`.

    Homomorphisms are yielded as fresh dictionaries; mutating one does not
    affect the enumeration.  The enumeration reads the instance's live
    storage — materialise it (``list(...)``) before inserting new facts
    into the instance, as the chase engines do.
    """
    yield from relational_body(query, instance).matches(seed, stats)


def cq_match_rows(
    query: ConjunctiveQuery,
    instance: RelationalInstance,
    variables: tuple[Variable, ...],
    seed: Mapping[Variable, object] | None = None,
    stats: "ChaseStats | None" = None,
) -> list[tuple]:
    """Project every body homomorphism onto ``variables``, in one pass.

    The batch entry point of the evaluator: where
    :func:`cq_homomorphisms` yields one fresh dict per match (the right
    shape for callers that inspect individual bindings), this projects
    each match straight onto a value tuple — no per-match dict.  The
    pattern chase uses it to collect *all* fireable triggers of a tgd in
    one call and apply them as a batch.

    >>> from repro.relational import RelationalSchema, RelationalInstance
    >>> from repro.relational.parser import parse_cq
    >>> schema = RelationalSchema()
    >>> _ = schema.declare("E", 2)
    >>> inst = RelationalInstance(schema, {"E": [("a", "b"), ("b", "c")]})
    >>> q = parse_cq("E(x, y) -> (x, y)")
    >>> x, y = q.outputs
    >>> sorted(cq_match_rows(q, inst, (y, x)))
    [('b', 'a'), ('c', 'b')]
    """
    body = relational_body(query, instance)
    return list(body.rows(seed, [body.index[var] for var in variables], stats))


def evaluate_cq(
    query: ConjunctiveQuery,
    instance: RelationalInstance,
) -> frozenset[tuple]:
    """Evaluate ``query`` on ``instance`` and return the set of answer tuples.

    Each answer is the projection of a body homomorphism onto the query's
    output variables, in their declared order.

    >>> from repro.relational import RelationalSchema, RelationalInstance
    >>> from repro.relational.parser import parse_cq
    >>> schema = RelationalSchema()
    >>> _ = schema.declare("E", 2)
    >>> inst = RelationalInstance(schema, {"E": [("a", "b"), ("b", "c")]})
    >>> q = parse_cq("E(x, y), E(y, z) -> (x, z)")
    >>> sorted(evaluate_cq(q, inst))
    [('a', 'c')]
    """
    body = relational_body(query, instance)
    return frozenset(body.rows(project=[body.index[v] for v in query.outputs]))
