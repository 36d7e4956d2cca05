"""Solution verification: ``is_solution`` on chased scale tenants.

Every witness the library returns is first checked to be a solution,
``G ∈ Sol_Ω(I)`` (paper, Section 2: ``(I, G)`` satisfies M_st and ``G``
satisfies M_t); the service runs that check once per uncached
``exists``.  Almost all of its time goes to the s-t tgd heads, one head
check per distinct frontier row.  This bench times it on

* chased social 1,000 tenants (several seeds);
* chased medlit 800 tenants (several seeds);
* one chased social 1,000 tenant with a head edge removed, so the check
  fails and itemises its first violation;
* the witnesses the SAT pipeline decodes on the Theorem 4.1 sweep of
  ``bench_thm41_scaling`` (one per satisfiable formula): small graphs
  whose settings carry dozens of word egds, most over labels the
  witness has no edge of.

Each tenant's time is the best of ``REPEATS`` calls; the table reports
the median over tenants.  The file uses the public API, the scale
generators and the Theorem 4.1 reduction only, so the same file runs
against an older ``src/`` for a same-host A/B.
"""

from __future__ import annotations

import statistics
import time

from bench_thm41_scaling import sweep_formulas
from conftest import report

from repro import chase_relational, is_solution
from repro.core.existence import decide_existence
from repro.io.json_io import document_from_dict
from repro.reductions.three_sat import reduction_from_cnf
from repro.scenarios.scale import GeneratorConfig, scale_document

SEEDS = (1, 2, 3, 4, 5)
REPEATS = 5


def chased_tenant(family: str, nodes: int, seed: int):
    """``(instance, chased graph, setting)`` for one scale tenant."""
    document = scale_document(GeneratorConfig(family=family, nodes=nodes, seed=seed))
    setting, instance = document_from_dict(document)
    result = chase_relational(
        setting.st_tgds, setting.egds(), instance, alphabet=setting.alphabet
    )
    return instance, result.expect_graph(), setting


def broken_tenant(family: str, nodes: int, seed: int, label: str):
    """:func:`chased_tenant` with its first ``label`` edge removed."""
    instance, graph, setting = chased_tenant(family, nodes, seed)
    edge = min(
        ((s, lab, t) for s, lab, t in graph.live_triples() if lab == label), key=repr
    )
    graph.remove_edge(*edge)
    return instance, graph, setting


def thm41_witnesses():
    """``(instance, witness, setting)`` for each satisfiable formula of
    the Theorem 4.1 sweep, the witness as existence decides it."""
    cases = []
    for _, _, formulas in sweep_formulas():
        for formula in formulas:
            reduction = reduction_from_cnf(formula)
            witness = decide_existence(reduction.setting, reduction.instance).witness
            if witness is not None:
                cases.append((reduction.instance, witness, reduction.setting))
    return cases


def best_times(tenants, expected: bool) -> list[float]:
    """Per tenant, the best of ``REPEATS`` ``is_solution`` calls (seconds)."""
    times = []
    for instance, graph, setting in tenants:
        best = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            verdict = is_solution(instance, graph, setting)
            best = min(best, time.perf_counter() - start)
            assert verdict is expected
        times.append(best)
    return times


def run(title: str, tenants, expected: bool, benchmark) -> None:
    times = benchmark.pedantic(best_times, args=(tenants, expected), rounds=1)
    report(
        title,
        [
            (
                f"{len(tenants)} tenant(s)",
                "is_solution " + ("holds" if expected else "fails"),
                f"median {1000 * statistics.median(times):.2f} ms "
                f"(best of {REPEATS} per tenant; "
                f"range {1000 * min(times):.2f}–{1000 * max(times):.2f} ms)",
            )
        ],
    )


def test_verify_social_1000(benchmark):
    tenants = [chased_tenant("social", 1000, seed) for seed in SEEDS]
    run("Solution verification, chased social 1,000", tenants, True, benchmark)


def test_verify_medlit_800(benchmark):
    tenants = [chased_tenant("medlit", 800, seed) for seed in SEEDS]
    run("Solution verification, chased medlit 800", tenants, True, benchmark)


def test_verify_social_1000_missing_edge(benchmark):
    tenants = [broken_tenant("social", 1000, 1, "member")]
    run("Solution verification, social 1,000 less one edge", tenants, False, benchmark)


def test_verify_thm41_witnesses(benchmark):
    tenants = thm41_witnesses()
    run("Solution verification, Theorem 4.1 sweep witnesses", tenants, True, benchmark)
