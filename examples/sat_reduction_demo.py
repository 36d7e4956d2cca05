#!/usr/bin/env python3
"""Theorem 4.1 live: watching NP-hardness happen.

Builds the paper's 3SAT reduction for the worked formula ρ₀ and for random
formulas, decides existence with the library's strategy stack, and
cross-checks every verdict against a direct CDCL solve of the source
formula (the reduction's equivalence: a solution exists iff the formula
is satisfiable).

Run:  python examples/sat_reduction_demo.py
"""

import random
import time

from repro import decide_existence, is_solution
from repro.reductions import (
    certain_egd_instance,
    decode_valuation,
    reduction_from_cnf,
    valuation_graph,
)
from repro.core.certain import is_certain_answer
from repro.core.search import CandidateSearchConfig
from repro.solver import CNF, random_kcnf, solve_cnf_cdcl


def show_rho0() -> None:
    print("=" * 64)
    print("The paper's ρ₀ = (x1 ∨ ¬x2 ∨ x3) ∧ (¬x1 ∨ x3 ∨ ¬x4)")
    print("=" * 64)
    rho0 = CNF()
    rho0.variable_count = 4
    rho0.add_clause([1, -2, 3])
    rho0.add_clause([-1, 3, -4])

    reduction = reduction_from_cnf(rho0)
    setting = reduction.setting
    print(f"Constructed {setting!r}")
    print(f"  alphabet Σ_ρ = {sorted(setting.alphabet)}")
    print(f"  s-t tgd: {setting.st_tgds[0]}")
    for egd in setting.egds():
        print(f"  egd [{egd.name}]: {egd}")

    # The Figure 4 valuation: x1 = x2 = true, x3 = x4 = false.
    valuation = {1: True, 2: True, 3: False, 4: False}
    figure4 = valuation_graph(reduction, valuation)
    print(f"\nFigure 4 graph is a solution: "
          f"{is_solution(reduction.instance, figure4, setting)}")

    result = decide_existence(setting, reduction.instance)
    print(f"Existence: {result.status.value} via {result.method}")
    print(f"Decoded valuation: {decode_valuation(reduction, result.witness)}")

    # Corollary 4.2: (c1, c2) ∈ cert(a·a) iff ρ unsatisfiable.
    hard = certain_egd_instance(rho0)
    certain = is_certain_answer(
        hard.setting, hard.instance, hard.query, hard.tuple,
        config=CandidateSearchConfig(star_bound=1),
    )
    print(f"(c1, c2) ∈ cert(a·a)?  {certain}  "
          f"(ρ₀ is satisfiable, so the paper predicts False)")


def random_sweep(trials: int = 10, seed: int = 2015) -> None:
    print()
    print("=" * 64)
    print(f"Random sweep: {trials} formulas, existence vs CDCL")
    print("=" * 64)
    rng = random.Random(seed)
    header = f"{'n':>3} {'m':>4} {'CDCL':>6} {'exchange':>10} {'method':>22} {'ms':>8}"
    print(header)
    print("-" * len(header))
    agreements = 0
    for _ in range(trials):
        n = rng.randint(3, 7)
        m = rng.randint(3 * n, 6 * n)
        formula = random_kcnf(n, m, rng=rng)
        sat = solve_cnf_cdcl(formula) is not None
        reduction = reduction_from_cnf(formula)
        start = time.perf_counter()
        result = decide_existence(reduction.setting, reduction.instance)
        elapsed_ms = (time.perf_counter() - start) * 1000
        verdict = result.status.value
        agreement = (verdict == "exists") == sat
        agreements += agreement
        print(
            f"{n:>3} {m:>4} {'SAT' if sat else 'UNSAT':>6} {verdict:>10} "
            f"{result.method:>22} {elapsed_ms:>8.1f}"
        )
    print(f"\nagreement with CDCL: {agreements}/{trials}")


if __name__ == "__main__":
    show_rho0()
    random_sweep()
