"""E5 / Theorem 4.1 & Figure 4 — the 3SAT reduction on the worked ρ₀.

Paper facts regenerated and asserted:

* Ω_ρ₀ has Σ of 9 symbols, one s-t tgd (5 head atoms), 4+2 egds over the
  fixed two-constant instance;
* the Figure 4 graph is a solution and decodes to the paper's valuation;
* existence holds (ρ₀ is satisfiable) and both iff directions check out
  over all 16 valuations.
"""

from conftest import report
from oracles import enumerate_models

from repro.core.existence import ExistenceStatus, decide_existence
from repro.core.solution import is_solution
from repro.reductions.three_sat import (
    decode_valuation,
    reduction_from_cnf,
    valuation_graph,
)
from repro.scenarios.figures import figure4_graph, rho0_formula


def test_rho0_reduction(benchmark):
    formula = rho0_formula()
    reduction = reduction_from_cnf(formula)
    setting, instance = reduction.setting, reduction.instance

    result = benchmark(lambda: decide_existence(setting, instance))

    figure4 = figure4_graph()
    figure4_solves = is_solution(instance, figure4, setting)
    decoded = decode_valuation(reduction, figure4)

    satisfying = {tuple(sorted(m.items())) for m in enumerate_models(formula)}
    iff_holds = True
    for bits in range(1 << 4):
        valuation = {v: bool(bits >> (v - 1) & 1) for v in range(1, 5)}
        graph = valuation_graph(reduction, valuation)
        expected = tuple(sorted(valuation.items())) in satisfying
        if is_solution(instance, graph, setting) != expected:
            iff_holds = False

    report(
        "E5 / Theorem 4.1 on ρ₀",
        [
            ("|Σ_ρ| (a + 2 per variable)", 9, len(setting.alphabet)),
            ("s-t tgds", 1, len(setting.st_tgds)),
            ("egds (4 var + 2 clause)", 6, len(setting.egds())),
            ("Figure 4 graph is a solution", True, figure4_solves),
            ("decoded valuation", "x1=x2=T, x3=x4=F",
             "".join("TF"[not decoded[v]] for v in range(1, 5))),
            ("existence (ρ₀ satisfiable)", "exists", result.status.value),
            ("deciding strategy", "sat-bounded-complete", result.method),
            ("iff over all 16 valuations", True, iff_holds),
        ],
    )
    assert result.status is ExistenceStatus.EXISTS
    assert figure4_solves and iff_holds
    assert decoded == {1: True, 2: True, 3: False, 4: False}
