"""A tractable fragment for certain answers (the paper's future work).

The paper closes by asking for *tractable fragments* (Section 6).  This
module delivers one: the **Section 3.1 fragment** — s-t tgd heads that are
single symbols, target constraints that are egds — admits a polynomial
certain-answer algorithm for NRE queries.

The argument, in full:

1. In this fragment the relational chase (:mod:`repro.chase.relational_chase`)
   either fails — then no solution exists and every tuple is vacuously
   certain — or produces a graph ``U`` with labeled nulls that is a
   *universal solution*: ``U`` is itself a solution, and for every solution
   ``G`` there is a homomorphism ``h : U → G`` that is the identity on
   constants.  (Classical data exchange [11], inherited by the fragment
   because the target behaves as binary relations.)

2. NRE queries are **preserved under homomorphisms**: if ``(u, v) ∈ ⟦r⟧_U``
   and ``h : U → G`` is a homomorphism, then ``(h(u), h(v)) ∈ ⟦r⟧_G``.
   Proof sketch by induction on ``r``: edges map to edges (forward and
   backward), ε maps to ε, unions/concatenations/stars compose path images,
   and a nest witness maps to a nest witness.  (No negation, no
   inequalities — the same monotonicity that powers
   :mod:`repro.core.certain`.)

3. Hence for constants ``u, v``:  ``(u, v) ∈ cert_Ω(r, I)``  ⇔
   ``(u, v) ∈ ⟦r⟧_U``.  The ⇒ direction holds because ``U`` is a solution;
   the ⇐ direction because the homomorphism into any solution fixes ``u``
   and ``v``.  So certain answers are the *null-free* answers of the query
   on the chased universal solution — "naive evaluation", computable in
   PTIME (chase is polynomial here, NRE evaluation is polynomial).

The module cross-checks its verdicts against the general (exponential)
engine in the test suite.
"""

from __future__ import annotations

from typing import Hashable

from repro.chase.relational_chase import chase_relational
from repro.chase.result import ChaseResult
from repro.core.certain import CertainAnswers
from repro.core.setting import DataExchangeSetting
from repro.engine.query import default_engine
from repro.errors import NotSupportedError
from repro.graph.nre import NRE
from repro.patterns.pattern import is_null
from repro.relational.instance import RelationalInstance
from repro.telemetry import span

Node = Hashable


def in_tractable_fragment(setting: DataExchangeSetting) -> bool:
    """Whether the polynomial algorithm applies to ``setting``.

    Requires single-symbol s-t tgd heads and egd-only target constraints
    (the Section 3.1 fragment).
    """
    fragment = setting.fragment()
    return (
        fragment.heads_single_symbols
        and not fragment.has_sameas
        and not fragment.has_general_tgds
    )


def certain_answers_tractable(
    setting: DataExchangeSetting,
    instance: RelationalInstance,
    query: NRE,
    engine=None,
) -> CertainAnswers:
    """Certain answers by naive evaluation on the universal solution.

    Polynomial in the instance size (query complexity: the setting and
    query are fixed).  Raises :class:`~repro.errors.NotSupportedError`
    outside the fragment — use :func:`repro.core.certain.certain_answers_nre`
    there.  ``query`` is evaluated once, on the chased universal solution,
    through ``engine`` (default: the shared compiled engine).
    """
    return certain_answers_tractable_batch(setting, instance, [query], engine)[0]


def certain_answers_tractable_batch(
    setting: DataExchangeSetting,
    instance: RelationalInstance,
    queries,
    engine=None,
) -> list[CertainAnswers]:
    """Batched :func:`certain_answers_tractable`: one chase, many queries.

    The universal solution is chased once and every query is naively
    evaluated against it — the batched shape behind the service's
    ``evaluate_batch`` on fragment settings.  Answer sets equal per-query
    calls exactly (each is an independent evaluation on the same graph).
    """
    if not in_tractable_fragment(setting):
        raise NotSupportedError(
            "certain_answers_tractable requires the Section 3.1 fragment "
            "(single-symbol heads, egds only)"
        )
    query_list = list(queries)
    if not query_list:
        return []
    return answers_from_chase(chase_universal(setting, instance), query_list, engine)


def chase_universal(
    setting: DataExchangeSetting, instance: RelationalInstance
) -> ChaseResult:
    """The fragment's relational chase: the universal solution, or failure.

    Everything the fragment can be asked is read off this one result —
    certain answers by :func:`answers_from_chase`, existence by
    :func:`repro.core.existence.existence_from_chase` — so a caller that
    keeps the result answers later questions without chasing again.
    """
    return chase_relational(
        setting.st_tgds, setting.egds(), instance, alphabet=setting.alphabet
    )


def answers_from_chase(
    chase: ChaseResult, queries, engine=None
) -> list[CertainAnswers]:
    """Certain answers of ``queries`` read off a :func:`chase_universal` result.

    A failed chase means no solution, so every tuple is vacuously
    certain; otherwise each query's answers are its null-free pairs on
    the universal solution.  The chased graph is only read.
    """
    query_list = list(queries)
    if chase.failed:
        return [
            CertainAnswers(
                answers=frozenset(),
                no_solution=True,
                solutions_examined=0,
                method="naive-evaluation(chase-failed)",
            )
            for _ in query_list
        ]
    eng = engine if engine is not None else default_engine()
    universal = chase.expect_graph()
    results: list[CertainAnswers] = []
    with span("engine.evaluate", queries=len(query_list)):
        for query in query_list:
            answers = frozenset(
                (u, v)
                for u, v in eng.pairs(universal, query)
                if not is_null(u) and not is_null(v)
            )
            results.append(
                CertainAnswers(
                    answers=answers,
                    no_solution=False,
                    solutions_examined=1,
                    method="naive-evaluation(universal-solution)",
                )
            )
    return results
