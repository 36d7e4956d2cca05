"""Certain answers: ``cert_Ω(Q, I) = ⋂ {⟦Q⟧_G | G ∈ Sol_Ω(I)}``.

The engine exploits one structural fact, stated and used throughout the
module: **NRE and CNRE queries are monotone** — they contain no negation, so
extending a graph with nodes or edges can only add answers (every operator
of the NRE grammar — ε, a, a⁻, +, ·, *, [·] — denotes a monotone operation
on the edge relation, and conjunction preserves monotonicity).  Hence for a
monotone Q:

* if ``G ⊆ G′`` are both solutions, ``⟦Q⟧_G ⊆ ⟦Q⟧_G′``, so the intersection
  over all solutions equals the intersection over the ⊆-minimal ones;
* a tuple is certain iff **no** solution avoids it, and the most effective
  counterexamples are exactly the minimal solutions.

Minimal solutions are enumerated by :mod:`repro.core.search` (witness
choices for the chased pattern's NRE edges × null quotients), bounded by
``star_bound``.  Every candidate is validated through the constraint
``violations`` checks, which run on the shared indexed
:class:`~repro.engine.matcher.TriggerMatcher` — the enumeration examines
many candidate graphs, so the indexed fast path compounds here.  On the
paper's families the bounds are exact:

* Example 2.2 under Ω and Ω′ — the printed certain-answer sets are
  reproduced with ``star_bound = 2`` (tests pin both sets);
* the Corollary 4.2 / Proposition 4.3 reduction families — the minimal
  solutions are exactly the valuation graphs over the two constants, with
  no stars in any witness, so any ``star_bound ≥ 0`` is exact.

In general the result is *sound up to the bound*: every reported
counterexample is a genuine solution (so "not certain" verdicts are always
correct), while "certain" verdicts quantify over the solutions within the
bounds — increase ``star_bound``/quotient budgets to tighten.  When the
paper's query Q has a star, answers that survive all unrollings up to the
query automaton's state count survive all longer ones too (pigeonhole on
the product automaton), which is why small bounds settle these families.

By convention (matching the paper's usage in Corollary 4.2), when **no
solution exists** every tuple is certain: ``CertainAnswers.no_solution`` is
set and :meth:`CertainAnswers.is_certain` returns ``True`` for all tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable

from repro.core.search import CandidateSearchConfig, candidate_solutions
from repro.core.setting import DataExchangeSetting
from repro.core.existence import ExistenceStatus, decide_existence
from repro.engine.query import default_engine
from repro.errors import BoundExceeded
from repro.graph.database import GraphDatabase
from repro.graph.nre import NRE
from repro.relational.instance import RelationalInstance
from repro.telemetry import span

Node = Hashable
Pair = tuple[Node, Node]


@dataclass
class CertainAnswers:
    """The result of a certain-answer computation for a binary NRE query."""

    answers: frozenset[Pair]
    """The certain pairs over the source constants (empty if ``no_solution``)."""

    no_solution: bool
    """Whether ``Sol_Ω(I) = ∅`` — then *every* tuple is (vacuously) certain."""

    solutions_examined: int
    """How many distinct minimal solutions entered the intersection."""

    method: str
    """Which strategy produced the result, with its bounds."""

    def is_certain(self, pair: Pair) -> bool:
        """Whether ``pair`` is a certain answer (vacuously true if no solution)."""
        return self.no_solution or pair in self.answers


def certain_answers_nre(
    setting: DataExchangeSetting,
    instance: RelationalInstance,
    query: NRE,
    config: CandidateSearchConfig | None = None,
    engine=None,
) -> CertainAnswers:
    """Compute the certain answers of the binary NRE ``query``.

    Only pairs over the source active domain are reported (the paper's
    query answering problem asks about tuples of constants) — so each
    solution is probed with one single-source engine query per domain
    constant instead of a full all-pairs materialisation.  ``engine``
    is the evaluation back-end (default: the shared compiled
    :class:`~repro.engine.query.QueryEngine`).

    On the Section 3.1 tractable fragment the answers are read off the
    chased universal solution; on the Theorem 4.1 fragment with
    union-of-words queries the whole set is decided by one persistent
    incremental SAT solver — one assumption probe per domain pair,
    complete for the fragment (:mod:`repro.core.satpipeline`).  Only
    when neither applies does the minimal-solution enumeration run.

    Raises :class:`~repro.errors.BoundExceeded` when existence could not be
    settled and no candidate solution was found — then nothing sound can be
    said within the bounds.
    """
    eng = engine if engine is not None else default_engine()
    cfg = config if config is not None else CandidateSearchConfig(star_bound=2)
    # Section 3.1 fragment: certain answers are the null-free answers on
    # the chased universal solution — polynomial, and the only route that
    # stays feasible on the scale workloads (the SAT universe and the
    # minimal-solution enumeration are both exponential-ish in the
    # instance).  Local import: tractable imports CertainAnswers from this
    # module.
    from repro.core.tractable import (
        certain_answers_tractable,
        in_tractable_fragment,
    )

    if in_tractable_fragment(setting):
        return certain_answers_tractable(setting, instance, query, engine=eng)
    sat_result = _sat_certain_answers(setting, instance, query, eng)
    if sat_result is not _INAPPLICABLE:
        return sat_result
    return _enumerated_certain_answers(setting, instance, query, cfg, eng)


def _enumerated_certain_answers(
    setting: DataExchangeSetting,
    instance: RelationalInstance,
    query: NRE,
    cfg: CandidateSearchConfig,
    engine,
) -> CertainAnswers:
    """Certain answers by intersecting over the minimal-solution enumeration.

    The general tail of :func:`certain_answers_nre`, sound for every
    setting; the differential tests run it with the reference engine as
    the oracle for the fast paths.
    """
    existence = decide_existence(setting, instance, search_config=cfg, engine=engine)
    if existence.status is ExistenceStatus.NOT_EXISTS:
        return CertainAnswers(
            answers=frozenset(),
            no_solution=True,
            solutions_examined=0,
            method=f"no-solution({existence.method})",
        )

    domain = instance.active_domain()
    intersection: set[Pair] | None = None
    examined = 0
    with span("engine.enumerate", queries=1):
        for solution in _solutions_for_intersection(
            setting, instance, cfg, existence, engine
        ):
            answers = set(engine.answers_over(solution, query, domain))
            intersection = (
                answers if intersection is None else intersection & answers
            )
            examined += 1
            if not intersection:
                break

    if intersection is None:
        raise BoundExceeded(
            "no solution found within the search bounds although existence "
            f"was {existence.status.value}; raise the bounds"
        )
    return CertainAnswers(
        answers=frozenset(intersection),
        no_solution=False,
        solutions_examined=examined,
        method=f"minimal-solutions(star_bound={cfg.star_bound}, n={examined})",
    )


def certain_answers_batch(
    setting: DataExchangeSetting,
    instance: RelationalInstance,
    queries: Iterable[NRE],
    config: CandidateSearchConfig | None = None,
    engine=None,
) -> list[CertainAnswers]:
    """Certain answers of *many* NRE queries over one (setting, instance).

    The batched evaluation shares everything the queries have in common:

    * queries on the Theorem 4.1 fast path share the one persistent
      per-universe SAT solver (and each probe's learnt clauses benefit
      every later probe of the batch);
    * queries that need the minimal-solution enumeration share **one**
      pass over the candidate solutions — existence is decided once, each
      enumerated solution is evaluated against every still-live query, and
      a query drops out of the pass as soon as its intersection empties.

    Answer sets are exactly those of per-query :func:`certain_answers_nre`
    calls (the enumeration visits the same solutions in the same order;
    only the reported ``method``/``solutions_examined`` bookkeeping
    differs, since the shared pass cannot stop early for one query while
    another is still live).  This is the engine behind the service's
    ``evaluate_batch`` operation.
    """
    eng = engine if engine is not None else default_engine()
    cfg = config if config is not None else CandidateSearchConfig(star_bound=2)
    query_list = list(queries)
    from repro.core.tractable import (  # local import: cycle guard
        certain_answers_tractable_batch,
        in_tractable_fragment,
    )

    if in_tractable_fragment(setting):
        # One chase, every query naively evaluated on the universal
        # solution (see certain_answers_nre) — the fragment's batched
        # fast path.
        return certain_answers_tractable_batch(
            setting, instance, query_list, engine=eng
        )
    results = [
        _sat_certain_answers(setting, instance, query, eng) for query in query_list
    ]
    pending = [
        index for index, result in enumerate(results) if result is _INAPPLICABLE
    ]
    if pending:
        enumerated = _enumerated_certain_batch(
            setting, instance, [query_list[index] for index in pending], cfg, eng
        )
        for index, result in zip(pending, enumerated):
            results[index] = result
    return results  # type: ignore[return-value]


def _enumerated_certain_batch(
    setting: DataExchangeSetting,
    instance: RelationalInstance,
    queries: list[NRE],
    cfg: CandidateSearchConfig,
    engine,
) -> list[CertainAnswers]:
    """Certain answers of ``queries`` from one shared enumeration pass.

    The general tail of :func:`certain_answers_batch`, sound for every
    setting; the differential tests run it with the reference engine.
    """
    existence = decide_existence(setting, instance, search_config=cfg, engine=engine)
    if existence.status is ExistenceStatus.NOT_EXISTS:
        return [
            CertainAnswers(
                answers=frozenset(),
                no_solution=True,
                solutions_examined=0,
                method=f"no-solution({existence.method})",
            )
            for _ in queries
        ]
    domain = instance.active_domain()
    intersections: list[set[Pair] | None] = [None] * len(queries)
    live = set(range(len(queries)))
    examined = 0
    with span("engine.enumerate", queries=len(queries)):
        for solution in _solutions_for_intersection(
            setting, instance, cfg, existence, engine
        ):
            if not live:
                break
            examined += 1
            for index in sorted(live):
                answers = set(engine.answers_over(solution, queries[index], domain))
                current = intersections[index]
                current = answers if current is None else current & answers
                intersections[index] = current
                if not current:
                    live.discard(index)
    results = []
    for intersection in intersections:
        if intersection is None:
            raise BoundExceeded(
                "no solution found within the search bounds although "
                f"existence was {existence.status.value}; raise the bounds"
            )
        results.append(
            CertainAnswers(
                answers=frozenset(intersection),
                no_solution=False,
                solutions_examined=examined,
                method=(
                    f"batched-minimal-solutions(star_bound={cfg.star_bound}, "
                    f"n={examined})"
                ),
            )
        )
    return results


def _solutions_for_intersection(
    setting: DataExchangeSetting,
    instance: RelationalInstance,
    cfg: CandidateSearchConfig,
    existence,
    engine=None,
) -> Iterable[GraphDatabase]:
    """The existence witness first (guaranteed), then the minimal family."""
    seen: set[frozenset] = set()
    if existence.witness is not None:
        seen.add(frozenset(existence.witness.edges()))
        yield existence.witness
    for candidate in candidate_solutions(setting, instance, cfg, engine=engine):
        signature = frozenset(candidate.edges())
        if signature in seen:
            continue
        seen.add(signature)
        yield candidate


def certain_answers_cnre(
    setting: DataExchangeSetting,
    instance: RelationalInstance,
    query,
    config: CandidateSearchConfig | None = None,
    engine=None,
) -> CertainAnswers:
    """Certain answers of a full CNRE query (arbitrary arity).

    Same machinery as :func:`certain_answers_nre` — CNRE queries are
    conjunctions of monotone atoms, hence monotone, so the minimal-solution
    intersection argument carries over verbatim.  Answers are projections
    onto the query's output variables, restricted to tuples over the
    source active domain.
    """
    from repro.graph.cnre import evaluate_cnre

    eng = engine if engine is not None else default_engine()
    cfg = config if config is not None else CandidateSearchConfig(star_bound=2)
    existence = decide_existence(setting, instance, search_config=cfg, engine=eng)
    if existence.status is ExistenceStatus.NOT_EXISTS:
        return CertainAnswers(
            answers=frozenset(),
            no_solution=True,
            solutions_examined=0,
            method=f"no-solution({existence.method})",
        )
    domain = instance.active_domain()
    intersection: set[tuple] | None = None
    examined = 0
    for solution in _solutions_for_intersection(
        setting, instance, cfg, existence, eng
    ):
        answers = {
            row
            for row in evaluate_cnre(query, solution, engine=eng)
            if all(value in domain for value in row)
        }
        intersection = answers if intersection is None else intersection & answers
        examined += 1
        if not intersection:
            break
    if intersection is None:
        raise BoundExceeded(
            "no solution found within the search bounds although existence "
            f"was {existence.status.value}; raise the bounds"
        )
    return CertainAnswers(
        answers=frozenset(intersection),
        no_solution=False,
        solutions_examined=examined,
        method=f"minimal-solutions-cnre(star_bound={cfg.star_bound}, n={examined})",
    )


def is_certain_answer(
    setting: DataExchangeSetting,
    instance: RelationalInstance,
    query: NRE,
    pair: Pair,
    config: CandidateSearchConfig | None = None,
    engine=None,
) -> bool:
    """Decide whether ``pair ∈ cert_Ω(query, I)`` (bounded, see module doc).

    Equivalent to ``certain_answers_nre(...).is_certain(pair)`` but stops at
    the first counterexample solution.
    """
    counterexample = find_counterexample_solution(
        setting, instance, query, pair, config, engine=engine
    )
    return counterexample is None


def find_counterexample_solution(
    setting: DataExchangeSetting,
    instance: RelationalInstance,
    query: NRE,
    pair: Pair,
    config: CandidateSearchConfig | None = None,
    engine=None,
) -> GraphDatabase | None:
    """Return a solution G with ``pair ∉ ⟦query⟧_G``, or ``None``.

    A returned graph is a machine-checked solution, so it *proves* the pair
    is not certain.  ``None`` means no counterexample exists within the
    bounds (and existence settled): the pair is certain up to the bounds,
    exactly on the paper's families.

    Each solution is probed with the engine's single-pair mode — an
    early-exit product BFS — so deciding one tuple never materialises a
    full all-pairs relation.  On the Theorem 4.1 fragment with
    union-of-words queries the decision short-circuits to one *complete*
    incremental SAT probe (:func:`_sat_counterexample`) on the persistent
    per-universe solver and skips the enumeration entirely.
    """
    eng = engine if engine is not None else default_engine()
    cfg = config if config is not None else CandidateSearchConfig(star_bound=2)
    sat_verdict = _sat_counterexample(setting, instance, query, pair, eng)
    if sat_verdict is not _INAPPLICABLE:
        return sat_verdict
    return _enumerated_counterexample(setting, instance, query, pair, cfg, eng)


def _enumerated_counterexample(
    setting: DataExchangeSetting,
    instance: RelationalInstance,
    query: NRE,
    pair: Pair,
    cfg: CandidateSearchConfig,
    engine,
) -> GraphDatabase | None:
    """The first enumerated solution missing ``pair``, or ``None``.

    The general tail of :func:`find_counterexample_solution`, sound for
    every setting; the differential tests run it with the reference
    engine as the oracle for the SAT fast path.
    """
    existence = decide_existence(setting, instance, search_config=cfg, engine=engine)
    if existence.status is ExistenceStatus.NOT_EXISTS:
        return None  # vacuously certain: there is no solution at all
    found_any = existence.witness is not None
    for solution in _solutions_for_intersection(
        setting, instance, cfg, existence, engine
    ):
        found_any = True
        if not engine.holds(solution, query, pair[0], pair[1]):
            return solution
    if not found_any:
        raise BoundExceeded(
            "existence unsettled and no candidate solutions within bounds"
        )
    return None


_INAPPLICABLE = object()


def _sat_counterexample(
    setting: DataExchangeSetting,
    instance: RelationalInstance,
    query: NRE,
    pair: Pair,
    engine,
):
    """Complete incremental SAT decision of ``pair ∈ cert_Ω(query, I)``.

    Applicable when the setting is SAT-encodable (Theorem 4.1 fragment:
    union-of-symbols heads, word egds) *and* the query is a union of words.
    Then "some solution misses the pair" is one bounded-model SAT question,
    answered by the persistent per-universe solver
    (:func:`repro.core.satpipeline.pipeline_for`): the base encoding and
    everything learnt from earlier probes are reused, and the pair's
    blocking clauses enter once, guarded by an assumption literal.  A model
    decodes to a machine-checked counterexample solution; UNSAT means
    either no solution at all or every bounded solution has the pair — in
    both cases the pair is certain, matching the enumeration's verdict (the
    bounded universe is complete for this fragment, see
    :mod:`repro.solver.encode`).

    Returns the counterexample graph, ``None`` (certain), or the sentinel
    :data:`_INAPPLICABLE` when the fragment/query shape does not apply —
    the caller then falls back to the minimal-solution enumeration.
    """
    from repro.core.satpipeline import pipeline_for
    from repro.errors import NotSupportedError

    pipeline = pipeline_for(setting, instance)
    if pipeline is None:
        return _INAPPLICABLE
    try:
        witness = pipeline.probe_pair(query, pair[0], pair[1])
    except NotSupportedError:
        return _INAPPLICABLE
    if witness is None:
        return None  # no bounded solution misses the pair: certain
    if engine.holds(
        witness, query, pair[0], pair[1]
    ):  # pragma: no cover - decode/encode disagreement would be a bug;
        # fall back to the sound enumeration rather than trust it
        return _INAPPLICABLE
    return witness


def _sat_certain_answers(
    setting: DataExchangeSetting,
    instance: RelationalInstance,
    query: NRE,
    engine,
):
    """Whole-set certain answers through the persistent SAT pipeline.

    One assumption-guarded probe per domain pair on a single incremental
    solver (learnt clauses shared across the entire enumeration), complete
    for the fragment by the same argument as :func:`_sat_counterexample`.
    Returns a :class:`CertainAnswers` or :data:`_INAPPLICABLE`.
    """
    from repro.core.satpipeline import pipeline_for
    from repro.errors import NotSupportedError

    pipeline = pipeline_for(setting, instance)
    if pipeline is None:
        return _INAPPLICABLE
    try:
        if not pipeline.has_solution():
            return CertainAnswers(
                answers=frozenset(),
                no_solution=True,
                solutions_examined=0,
                method="no-solution(sat-incremental)",
            )
        domain = sorted(instance.active_domain(), key=repr)
        answers: set[Pair] = set()
        counterexamples: set[frozenset] = set()
        for u in domain:
            for v in domain:
                witness = pipeline.probe_pair(query, u, v)
                if witness is None:
                    answers.add((u, v))
                elif not engine.holds(witness, query, u, v):
                    counterexamples.add(frozenset(witness.edges()))
                else:  # pragma: no cover - decode/encode disagreement
                    raise NotSupportedError(
                        "SAT counterexample fails the engine cross-check"
                    )
    except NotSupportedError:
        return _INAPPLICABLE
    return CertainAnswers(
        answers=frozenset(answers),
        no_solution=False,
        solutions_examined=len(counterexamples),
        method=f"sat-incremental(pairs={len(domain) ** 2}, solver=cdcl)",
    )
