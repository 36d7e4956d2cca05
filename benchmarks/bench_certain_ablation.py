"""E14 (ours) — certain-answer engine ablation.

Two independent back-ends decide certainty on the Corollary 4.2 family:

* the minimal-solution enumeration of :mod:`repro.core.certain`;
* a SAT-based counterexample search: "∃ solution over {c1, c2} missing the
  a·a path", encoded by adding blocking clauses for every a·a realisation
  of the queried pair to the bounded-existence encoding.

They must agree (and they must agree with DPLL-on-the-formula); the timing
table contrasts the two.  Also ablates the coarsening-pruning switch of the
candidate search.
"""

import itertools
import random

from conftest import report
from oracles import ReferenceEngine, solve_cnf

from repro.core.certain import _enumerated_counterexample
from repro.core.search import CandidateSearchConfig
from repro.reductions.certain_hardness import certain_egd_instance
from repro.solver.encode import encode_bounded_existence
from repro.solver.generators import random_kcnf


def certain_by_sat(instance) -> bool:
    """(c1,c2) certain iff no bounded solution lacks the a·a path.

    Complete for this family: solutions live over {c1, c2} (union-of-symbol
    heads without existentials) and a·a answers are determined by edges
    among those nodes.
    """
    nodes = ["c1", "c2"]
    cnf = encode_bounded_existence(instance.setting, instance.instance, nodes)
    # Block every a·a realisation of (c1, c2): ¬(e(c1,a,m) ∧ e(m,a,c2)).
    for middle in nodes:
        first = cnf.variable(("edge", "c1", "a", middle))
        second = cnf.variable(("edge", middle, "a", "c2"))
        cnf.add_clause([-first, -second])
    return solve_cnf(cnf) is None  # no counterexample solution ⇒ certain


def make_cases(count=6):
    rng = random.Random(4242)
    cases = []
    for _ in range(count):
        n = rng.randint(2, 4)
        m = rng.randint(2 * n, 8 * n)
        cases.append(random_kcnf(n, m, k=min(3, n), rng=rng))
    return cases


def test_enumeration_backend(benchmark):
    cases = make_cases()

    def run():
        # The enumeration tail on the reference engine (the public entry
        # point would short-circuit to the SAT decision, which is what
        # test_sat_backend measures) — keeping this an honest two-back-end
        # ablation.
        return [
            _enumerated_counterexample(
                inst.setting, inst.instance, inst.query, inst.tuple,
                CandidateSearchConfig(star_bound=1), ReferenceEngine(),
            )
            is None
            for inst in map(certain_egd_instance, cases)
        ]

    verdicts = benchmark.pedantic(run, rounds=1, iterations=1)
    oracle = [solve_cnf(c) is None for c in cases]  # certain iff unsat
    report(
        "E14a / enumeration back-end",
        [("verdicts == (unsat oracle)", True, verdicts == oracle)],
    )
    assert verdicts == oracle


def test_sat_backend(benchmark):
    cases = make_cases()

    def run():
        return [certain_by_sat(certain_egd_instance(c)) for c in cases]

    verdicts = benchmark.pedantic(run, rounds=1, iterations=1)
    oracle = [solve_cnf(c) is None for c in cases]
    report(
        "E14b / SAT back-end",
        [("verdicts == (unsat oracle)", True, verdicts == oracle)],
    )
    assert verdicts == oracle


def test_pruning_ablation(benchmark):
    """Coarsening-pruning must not change certain answers (Example 2.2)."""
    from repro.core.certain import certain_answers_nre
    from repro.scenarios.flights import (
        example_query,
        flights_instance,
        paper_certain_omega,
        setting_omega,
    )

    instance = flights_instance()

    def pruned():
        return certain_answers_nre(
            setting_omega(), instance, example_query(),
            config=CandidateSearchConfig(star_bound=1, prune_coarser=True),
        )

    result_pruned = benchmark(pruned)
    result_full = certain_answers_nre(
        setting_omega(), instance, example_query(),
        config=CandidateSearchConfig(star_bound=1, prune_coarser=False),
    )
    report(
        "E14c / pruning ablation",
        [
            ("answers equal", True, result_pruned.answers == result_full.answers),
            ("pruned candidates", "fewer",
             f"{result_pruned.solutions_examined} vs {result_full.solutions_examined}"),
            ("matches paper", True,
             result_pruned.answers == paper_certain_omega()),
        ],
    )
    assert result_pruned.answers == result_full.answers == paper_certain_omega()
    assert result_pruned.solutions_examined <= result_full.solutions_examined
