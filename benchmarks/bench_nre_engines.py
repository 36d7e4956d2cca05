"""E12 (ours) — NRE engine throughput and differential correctness.

Ablation for the three-evaluator design: the set-algebraic reference
evaluator vs the (ε-free, label-indexed) product-automaton evaluator vs
the full :class:`~repro.engine.query.QueryEngine` with its caches, on
random graphs with the paper's query shape — plus single-source and
single-pair modes (the certain-answer hot path) and an independent
networkx cross-check for pure-star reachability.  Every timed evaluator is
asserted identical to the reference relation.
"""

import random

from conftest import ab_medians, report

import networkx as nx

from repro.engine.query import QueryEngine
from repro.graph.automaton import evaluate_nre_automaton
from repro.graph.eval import evaluate_nre
from repro.graph.parser import parse_nre
from repro.scenarios.generators import random_graph, random_nre

QUERY = parse_nre("f . f*[h] . f- . (f-)*")


def flight_like_graph(nodes, edges, seed):
    return random_graph(nodes, edges, alphabet=("f", "h"), rng=random.Random(seed))


def test_recursive_evaluator_throughput(benchmark):
    graph = flight_like_graph(40, 160, seed=1)
    result = benchmark(lambda: evaluate_nre(graph, QUERY))
    report(
        "E12a / set-algebraic evaluator",
        [("|V|, |E|", "40, ≤160", f"{graph.node_count()}, {graph.edge_count()}"),
         ("answer pairs", "—", len(result))],
    )
    assert result == evaluate_nre_automaton(graph, QUERY)


def test_automaton_evaluator_throughput(benchmark):
    graph = flight_like_graph(40, 160, seed=1)
    result = benchmark(lambda: evaluate_nre_automaton(graph, QUERY))
    report(
        "E12b / product-automaton evaluator",
        [("answer pairs", "—", len(result))],
    )
    assert result == evaluate_nre(graph, QUERY)


def test_query_engine_all_pairs(benchmark):
    """The QueryEngine on a fresh graph each call (no cross-call cache hits)."""
    graph = flight_like_graph(40, 160, seed=1)
    engine = QueryEngine()

    def evaluate():
        engine.clear()  # measure evaluation, not the result cache
        return engine.pairs(graph, QUERY)

    result = benchmark(evaluate)
    report(
        "E12e / QueryEngine all-pairs (cache cleared per call)",
        [("answer pairs", "—", len(result)),
         ("identical to reference", True, result == evaluate_nre(graph, QUERY))],
    )
    assert result == evaluate_nre(graph, QUERY)


def test_query_engine_single_pair(benchmark):
    """Single-pair mode — the is_certain_answer hot path — never all-pairs."""
    graph = flight_like_graph(40, 160, seed=1)
    engine = QueryEngine()
    reference = evaluate_nre(graph, QUERY)
    nodes = sorted(graph.nodes())
    probes = [(nodes[i], nodes[(i * 7 + 3) % len(nodes)]) for i in range(len(nodes))]

    def evaluate():
        engine.clear()
        return [engine.holds(graph, QUERY, u, v) for u, v in probes]

    verdicts = benchmark(evaluate)
    expected = [(u, v) in reference for u, v in probes]
    report(
        "E12f / QueryEngine single-pair sweep (40 probes)",
        [("probes", len(probes), len(verdicts)),
         ("identical to reference", True, verdicts == expected)],
    )
    assert verdicts == expected


def test_query_engine_codegen_single_pair(benchmark):
    """The generated-code search on the single-pair hot path.

    Warm steady state (automata compiled and lowered to specialized code
    once, before the timed region): a CSR engine answers every ``holds``
    probe with the codegen search's unrolled per-state branches.  Asserts
    verdicts identical to the reference evaluator on both backends and
    reports the dict engine's median alongside for scale.
    """
    graph = flight_like_graph(40, 160, seed=1)
    reference = evaluate_nre(graph, QUERY)
    nodes = sorted(graph.nodes())
    probes = [(nodes[i], nodes[(i * 7 + 3) % len(nodes)]) for i in range(len(nodes))]
    engines = {name: QueryEngine(backend=name) for name in ("csr", "dict")}

    def sweep(name):
        engine = engines[name]

        def run():
            engine.clear()
            return [engine.holds(graph, QUERY, u, v) for u, v in probes]

        return run

    expected = [(u, v) in reference for u, v in probes]
    verdicts = {name: sweep(name)() for name in engines}  # also warms compiles
    codegen_median, dict_median = ab_medians(sweep("csr"), sweep("dict"), rounds=5)
    benchmark.pedantic(sweep("csr"), rounds=5, iterations=1, warmup_rounds=1)
    report(
        "E12g / codegen single-pair sweep (40 probes, warm)",
        [
            ("identical to reference", True,
             all(verdicts[name] == expected for name in engines)),
            ("codegen (csr) median (ms)", "—", f"{codegen_median * 1000:.3f}"),
            ("dict median (ms)", "—", f"{dict_median * 1000:.3f}"),
        ],
    )
    for name in engines:
        assert verdicts[name] == expected, f"{name} backend diverged"


def test_differential_sweep(benchmark):
    def sweep():
        rng = random.Random(99)
        disagreements = 0
        cases = 0
        for _ in range(40):
            graph = random_graph(
                rng.randint(3, 10), rng.randint(0, 25), rng=random.Random(rng.random())
            )
            expr = random_nre(depth=3, rng=rng)
            if evaluate_nre(graph, expr) != evaluate_nre_automaton(graph, expr):
                disagreements += 1
            cases += 1
        return cases, disagreements

    cases, disagreements = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report(
        "E12c / differential sweep",
        [("cases", 40, cases), ("evaluator disagreements", 0, disagreements)],
    )
    assert disagreements == 0


def test_networkx_cross_check(benchmark):
    """a* reachability must agree with networkx descendants()."""
    graph = random_graph(30, 90, alphabet=("a",), rng=random.Random(3))

    def ours():
        return evaluate_nre(graph, parse_nre("a*"))

    pairs = benchmark(ours)

    digraph = nx.DiGraph()
    digraph.add_nodes_from(graph.nodes())
    for edge in graph.edges():
        digraph.add_edge(edge.source, edge.target)
    expected = set()
    for node in digraph.nodes:
        expected.add((node, node))
        for reachable in nx.descendants(digraph, node):
            expected.add((node, reachable))

    report(
        "E12d / networkx cross-check (a*)",
        [("reachable pairs", len(expected), len(pairs)),
         ("sets equal", True, set(pairs) == expected)],
    )
    assert set(pairs) == expected
