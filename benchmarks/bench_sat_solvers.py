"""E15 (ours) — SAT solver back-ends: CDCL vs the DPLL oracle.

Two sweeps, both with every verdict cross-checked between the solvers
(the differential contract the pipeline relies on):

* **one-shot**: random 3-CNF at the hard ratio plus planted-satisfiable
  instances, solved cold — the regime of `decide_existence` on fresh
  settings, where two-watched-literal propagation and clause learning
  beat the chronological DPLL's rescan-everything loop;
* **incremental**: one base formula probed under a stream of assumption
  sets with blocking clauses added between solves — the certain-answer
  regime, where the CDCL solver keeps its learnt clauses across the whole
  stream while the DPLL adapter restarts from scratch each time.
"""

import random

from conftest import report
from oracles import IncrementalDPLL, solve_cnf

from repro.solver.cdcl import CDCLSolver
from repro.solver.generators import planted_kcnf, random_kcnf


def one_shot_cases():
    rng = random.Random(20150327)
    cases = []
    for n in (20, 30, 40):
        cases.append(random_kcnf(n, int(4.27 * n), rng=rng))
        cases.append(planted_kcnf(n * 2, int(4.2 * n * 2), rng=rng)[0])
    return cases


def probe_stream(rng, variables, probes):
    """A deterministic stream of assumption sets and blocking clauses."""
    stream = []
    for _ in range(probes):
        k = rng.randint(1, 4)
        chosen = rng.sample(range(1, variables + 1), k)
        assumptions = [v if rng.random() < 0.5 else -v for v in chosen]
        block = [
            -v if rng.random() < 0.5 else v
            for v in rng.sample(range(1, variables + 1), 3)
        ]
        stream.append((assumptions, block))
    return stream


def test_one_shot_sweep(benchmark):
    cases = one_shot_cases()

    def sweep():
        return [CDCLSolver(cnf).solve() is not None for cnf in cases]

    verdicts = benchmark.pedantic(sweep, rounds=5, iterations=1, warmup_rounds=1)
    oracle = [solve_cnf(cnf) is not None for cnf in cases]
    report(
        "E15a / one-shot CDCL vs DPLL oracle",
        [
            ("formulas", len(cases), len(cases)),
            ("verdict agreement", f"{len(cases)}/{len(cases)}",
             f"{sum(a == b for a, b in zip(verdicts, oracle))}/{len(cases)}"),
        ],
    )
    assert verdicts == oracle


def test_incremental_probe_stream(benchmark):
    base = random_kcnf(40, 150, rng=random.Random(8))
    stream = probe_stream(random.Random(9), 40, probes=24)

    def run_probes():
        solver = CDCLSolver(base)
        verdicts = []
        for assumptions, block in stream:
            verdicts.append(solver.solve(assumptions) is not None)
            solver.add_clause(block)
        return verdicts, solver.stats.learned

    (verdicts, learned) = benchmark.pedantic(
        run_probes, rounds=5, iterations=1, warmup_rounds=1
    )
    # Oracle pass: the stateless DPLL adapter over the same stream.
    adapter = IncrementalDPLL(base)
    oracle = []
    for assumptions, block in stream:
        oracle.append(adapter.solve(assumptions) is not None)
        adapter.add_clause(block)
    report(
        "E15b / incremental assumption stream",
        [
            ("probes", len(stream), len(stream)),
            ("verdict agreement", f"{len(stream)}/{len(stream)}",
             f"{sum(a == b for a, b in zip(verdicts, oracle))}/{len(stream)}"),
            ("clauses learnt and kept", ">= 0", learned),
        ],
    )
    assert verdicts == oracle
