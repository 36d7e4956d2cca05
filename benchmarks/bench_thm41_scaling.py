"""E6 / Theorem 4.1 scaling — existence-of-solutions across a random 3CNF grid.

The paper proves NP-hardness (query complexity: the instance is fixed, the
setting grows with the formula).  This bench sweeps random 3CNF formulas
across variable counts at the hard clause ratio (m ≈ 4.3·n), decides
existence through the reduction, and cross-checks every verdict against
DPLL on the source formula.  The wall-clock column exposes the expected
growth with formula size.
"""

import random
import time

from conftest import report
from oracles import solve_cnf

from repro.core.existence import ExistenceStatus, decide_existence
from repro.reductions.three_sat import reduction_from_cnf
from repro.solver.generators import random_kcnf

GRID = (4, 6, 8, 10)
TRIALS_PER_SIZE = 4


def run_sweep():
    rng = random.Random(20150327)  # the workshop date
    rows = []
    all_agree = True
    for n in GRID:
        m = int(4.3 * n)
        agree = 0
        sat_count = 0
        elapsed = 0.0
        for _ in range(TRIALS_PER_SIZE):
            formula = random_kcnf(n, m, rng=rng)
            sat = solve_cnf(formula) is not None
            sat_count += sat
            reduction = reduction_from_cnf(formula)
            start = time.perf_counter()
            result = decide_existence(reduction.setting, reduction.instance)
            elapsed += time.perf_counter() - start
            agree += (result.status is ExistenceStatus.EXISTS) == sat
        all_agree &= agree == TRIALS_PER_SIZE
        rows.append(
            (
                f"n={n}, m={m}",
                f"agree {TRIALS_PER_SIZE}/{TRIALS_PER_SIZE}",
                f"agree {agree}/{TRIALS_PER_SIZE}, "
                f"{sat_count} sat, {1000 * elapsed / TRIALS_PER_SIZE:.1f} ms/inst",
            )
        )
    return rows, all_agree


def test_existence_scaling(benchmark):
    rows, all_agree = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    report("E6 / Theorem 4.1 scaling (existence ≡ 3SAT)", rows)
    assert all_agree
