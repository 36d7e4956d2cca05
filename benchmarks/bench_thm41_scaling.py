"""E6 / Theorem 4.1 scaling — existence-of-solutions across a random 3CNF grid.

The paper proves NP-hardness (query complexity: the instance is fixed, the
setting grows with the formula).  This bench sweeps random 3CNF formulas
across variable counts at the hard clause ratio (m ≈ 4.3·n), decides
existence through the reduction, and cross-checks every verdict against
DPLL on the source formula.  The wall-clock column exposes the expected
growth with formula size.

The sweep runs five rounds, each asserting every verdict.  Each round
starts with no cached SAT pipeline (:func:`clear_pipelines`), so every
round encodes, solves, decodes and verifies its witnesses afresh instead
of reading the first round's cached verdicts.
"""

import random
import time

from conftest import report
from oracles import solve_cnf

from repro.core.existence import ExistenceStatus, decide_existence
from repro.core.satpipeline import clear_pipelines
from repro.reductions.three_sat import reduction_from_cnf
from repro.solver.generators import random_kcnf

GRID = (4, 6, 8, 10)
TRIALS_PER_SIZE = 4


def sweep_formulas():
    """``(n, m, formulas)`` for each size of the sweep, in order."""
    rng = random.Random(20150327)  # the workshop date
    for n in GRID:
        m = int(4.3 * n)
        yield n, m, [random_kcnf(n, m, rng=rng) for _ in range(TRIALS_PER_SIZE)]


def run_sweep():
    rows = []
    all_agree = True
    for n, m, formulas in sweep_formulas():
        agree = 0
        sat_count = 0
        elapsed = 0.0
        for formula in formulas:
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


def checked_sweep():
    """:func:`run_sweep` with its verdicts asserted."""
    rows, all_agree = run_sweep()
    assert all_agree
    return rows


def test_existence_scaling(benchmark):
    rows = benchmark.pedantic(
        checked_sweep, setup=clear_pipelines, rounds=5, iterations=1
    )
    report("E6 / Theorem 4.1 scaling (existence ≡ 3SAT)", rows)
