"""E8 / Proposition 4.3 & Corollary 4.4 — sameAs certain answers.

Paper facts regenerated and asserted:

* existence is trivial for the sameAs variant Ω′_ρ (solutions always exist,
  whatever the formula) — the Section 4.2 constructive algorithm decides it;
* (c1, c2) ∈ cert(sameAs) iff ρ is unsatisfiable, swept over random
  formulas against DPLL.
"""

import random

from conftest import report
from oracles import solve_cnf

from repro.core.certain import is_certain_answer
from repro.core.existence import ExistenceStatus, decide_existence
from repro.core.search import CandidateSearchConfig
from repro.reductions.certain_hardness import certain_sameas_instance
from repro.solver.cnf import CNF
from repro.solver.generators import random_kcnf

CFG = CandidateSearchConfig(star_bound=1)


def unsat_formula():
    cnf = CNF()
    cnf.variable_count = 2
    for clause in ([1, 2], [1, -2], [-1, 2], [-1, -2]):
        cnf.add_clause(clause)
    return cnf


def test_sameas_certainty(benchmark):
    rng = random.Random(7)
    formulas = [unsat_formula()]
    for _ in range(4):
        n = rng.randint(2, 4)
        formulas.append(random_kcnf(n, rng.randint(n, 6 * n), k=min(3, n), rng=rng))

    def sweep():
        results = []
        for formula in formulas:
            sat = solve_cnf(formula) is not None
            instance = certain_sameas_instance(formula)
            existence = decide_existence(instance.setting, instance.instance)
            certain = is_certain_answer(
                instance.setting, instance.instance, instance.query, instance.tuple,
                config=CFG,
            )
            results.append((sat, existence.status, certain))
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    always_exists = all(status is ExistenceStatus.EXISTS for _, status, _ in results)
    agreements = sum(1 for sat, _, certain in results if certain == (not sat))
    sats = sum(1 for sat, _, _ in results if sat)

    report(
        "E8 / Proposition 4.3 (sameAs)",
        [
            ("formulas (incl. 1 forced unsat)", len(results), len(results)),
            ("satisfiable among them", "mixed", sats),
            ("solutions always exist", True, always_exists),
            ("certain ⇔ unsat agreements", f"{len(results)}/{len(results)}",
             f"{agreements}/{len(results)}"),
        ],
    )
    assert always_exists
    assert agreements == len(results)
