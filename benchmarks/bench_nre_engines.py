"""E12 (ours) — NRE engine throughput and differential correctness.

The successor-map relation algebra (:mod:`repro.graph.eval`) is the one
NRE evaluator; it is timed bare and behind the full
:class:`~repro.engine.query.QueryEngine` with its caches, on random
graphs with the paper's query shape, on a chased medlit tenant and on a
live ``IncrementalChase`` medlit tenant (the certain-answer read) — in
whole-relation and single-pair modes (the pair's source pushed into the
query) — plus an independent networkx cross-check for pure-star
reachability.
Every timed evaluator is asserted identical to the seed's set-algebraic
pair-set oracle (``tests/oracles/reference_eval.py``).
"""

import random

from conftest import ab_medians, report

import networkx as nx

from oracles.reference_eval import evaluate_nre as reference_pairs
from repro.chase.relational_chase import chase_relational
from repro.engine.incremental import IncrementalChase
from repro.engine.query import QueryEngine
from repro.graph.eval import evaluate_nre
from repro.graph.parser import parse_nre
from repro.scenarios.generators import random_graph, random_nre
from repro.scenarios.scale import (
    GeneratorConfig,
    generate_instance,
    scale_setting,
    update_stream,
    workload_queries,
)

QUERY = parse_nre("f . f*[h] . f- . (f-)*")


def flight_like_graph(nodes, edges, seed):
    return random_graph(nodes, edges, alphabet=("f", "h"), rng=random.Random(seed))


def test_recursive_evaluator_throughput(benchmark):
    graph = flight_like_graph(40, 160, seed=1)
    result = benchmark(lambda: evaluate_nre(graph, QUERY))
    report(
        "E12a / successor-map relation algebra",
        [("|V|, |E|", "40, ≤160", f"{graph.node_count()}, {graph.edge_count()}"),
         ("answer pairs", "—", len(result))],
    )
    assert result == reference_pairs(graph, QUERY)


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
         ("identical to reference", True, result == reference_pairs(graph, QUERY))],
    )
    assert result == reference_pairs(graph, QUERY)


def test_query_engine_single_pair(benchmark):
    """Single-pair mode — the is_certain_answer hot path — one row per source.

    The cache is cleared per call, so each sweep evaluates the query's
    unrestricted subexpressions once and then one row per probed source.
    """
    graph = flight_like_graph(40, 160, seed=1)
    engine = QueryEngine()
    reference = reference_pairs(graph, QUERY)
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


def test_query_engine_frozen_single_pair(benchmark):
    """The single-pair hot path on a frozen graph vs its dict twin.

    One ``holds`` per probe through the relation algebra, which reads the
    frozen graph's per-label indexes like the dict graph's; the cache is
    cleared per sweep, as in E12f.  Asserts verdicts identical to the
    reference evaluator on both graphs and reports both medians.
    """
    graph = flight_like_graph(40, 160, seed=1)
    graphs = {"frozen": graph.freeze(), "dict": graph}
    reference = reference_pairs(graph, QUERY)
    nodes = sorted(graph.nodes())
    probes = [(nodes[i], nodes[(i * 7 + 3) % len(nodes)]) for i in range(len(nodes))]
    engine = QueryEngine()

    def sweep(name):
        target = graphs[name]

        def run():
            engine.clear()
            return [engine.holds(target, QUERY, u, v) for u, v in probes]

        return run

    expected = [(u, v) in reference for u, v in probes]
    verdicts = {name: sweep(name)() for name in graphs}
    frozen_median, dict_median, _ = ab_medians(sweep("frozen"), sweep("dict"), rounds=5)
    benchmark.pedantic(sweep("frozen"), rounds=5, iterations=1, warmup_rounds=1)
    report(
        "E12g / frozen-graph single-pair sweep (40 probes)",
        [
            ("identical to reference", True,
             all(verdicts[name] == expected for name in graphs)),
            ("frozen graph median (ms)", "—", f"{frozen_median * 1000:.3f}"),
            ("dict graph median (ms)", "—", f"{dict_median * 1000:.3f}"),
        ],
    )
    for name in graphs:
        assert verdicts[name] == expected, f"{name} graph diverged"


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
            expected = reference_pairs(graph, expr)
            if evaluate_nre(graph, expr) != expected:
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


def test_query_engine_whole_relation_medlit(benchmark):
    """Bulk's read shape: five ``pairs`` on a chased, frozen medlit 800 tenant.

    Whole relations run the successor-map algebra: one relation per
    query (a deterministic counter, gated).  The timings of the algebra
    and the pair-set oracle are measured in interleaved rounds and
    reported, not gated.
    """
    setting = scale_setting("medlit")
    instance = generate_instance(GeneratorConfig(family="medlit", nodes=800, seed=1))
    graph = chase_relational(
        setting.st_tgds, setting.egds(), instance, alphabet=setting.alphabet
    ).expect_graph()
    frozen = graph.freeze()
    queries = [parse_nre(text) for text in workload_queries("medlit")]
    expected = [reference_pairs(graph, query) for query in queries]
    engine = QueryEngine()
    answers = [engine.pairs(frozen, query) for query in queries]
    stats = engine.stats

    def algebra():
        fresh = QueryEngine()
        return [fresh.pairs(frozen, query) for query in queries]

    def oracle():
        return [reference_pairs(graph, query) for query in queries]

    medians = ab_medians(algebra, oracle, rounds=5)
    benchmark.pedantic(algebra, rounds=5, iterations=1, warmup_rounds=1)
    report(
        "E12h / medlit 800 whole-relation reads (five pairs, frozen)",
        [
            ("|V|, |E|", "—", f"{frozen.node_count()}, {frozen.edge_count()}"),
            ("identical to oracle", True, answers == expected),
            ("relations_evaluated", 5, stats.relations_evaluated),
            ("algebra median (ms)", "—", f"{medians[0] * 1000:.2f}"),
            ("pair-set oracle median (ms)", "—", f"{medians[1] * 1000:.2f}"),
        ],
    )
    assert answers == expected
    assert stats.relations_evaluated == 5


def test_query_engine_answers_medlit(benchmark):
    """Stream's read shape: five ``answers_over`` on a live medlit 1,000 tenant.

    The tenant is one ``update_stream`` batch past bootstrap, read on the
    incremental chase's merged graph, which has no fingerprint, over the
    source active domain.  Each read is one relation evaluation decoded
    within ``domain × domain`` (deterministic counters, gated), checked
    against the pair-set oracle restricted to the domain.  ``answers_over``
    and ``pairs`` on the same graph are timed in interleaved rounds and
    reported, not gated.
    """
    config = GeneratorConfig(family="medlit", nodes=1000, seed=1)
    live = IncrementalChase(scale_setting("medlit"), generate_instance(config))
    live.apply_updates(next(iter(update_stream(config, 1, 40, 0.4))))
    graph, domain = live._merged, live.instance.active_domain()
    queries = [parse_nre(text) for text in workload_queries("medlit")]
    expected = [
        frozenset((u, v) for u, v in reference_pairs(graph, query)
                  if u in domain and v in domain)
        for query in queries
    ]
    engine = QueryEngine()
    answers = [engine.answers_over(graph, query, domain) for query in queries]
    stats = engine.stats

    def answers_over():
        fresh = QueryEngine()
        return [fresh.answers_over(graph, query, domain) for query in queries]

    def pairs():
        fresh = QueryEngine()
        return [fresh.pairs(graph, query) for query in queries]

    medians = ab_medians(answers_over, pairs, rounds=5)
    benchmark.pedantic(answers_over, rounds=5, iterations=1, warmup_rounds=1)
    report(
        "E12i / medlit 1,000 live certain-answer reads (five answers_over)",
        [
            ("|V|, |E|, |domain|", "—",
             f"{graph.node_count()}, {graph.edge_count()}, {len(domain)}"),
            ("identical to oracle", True, answers == expected),
            ("relations_evaluated", 5, stats.relations_evaluated),
            ("uncacheable_graphs", 5, stats.uncacheable_graphs),
            ("answers_over median (ms)", "—", f"{medians[0] * 1000:.2f}"),
            ("pairs median (ms)", "—", f"{medians[1] * 1000:.2f}"),
            ("answers_over / pairs", "—", f"{1 / medians[2]:.2f}"),
        ],
    )
    assert answers == expected
    assert stats.relations_evaluated == 5
    assert stats.uncacheable_graphs == 5
