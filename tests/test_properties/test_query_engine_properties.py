"""Differential property tests for the compiled query engine.

Three independent implementations answer the same questions:

* the set-algebraic reference evaluator (:mod:`repro.graph.eval`);
* the compiled engine (:class:`repro.engine.query.QueryEngine`), in all
  three of its modes — all-pairs, single-source, and single-pair;
* networkx reachability, for the pure-star fragment where the NRE
  semantics coincide with plain digraph reachability.

Any disagreement on a random graph/NRE is a bug in one of them.
"""

import random

import networkx as nx
from hypothesis import given, settings, strategies as st

from oracles import ReferenceEngine
from repro.engine.query import QueryEngine
from repro.graph.database import GraphDatabase
from repro.graph.eval import evaluate_nre
from repro.graph.parser import parse_nre
from repro.scenarios.generators import random_graph, random_nre


@st.composite
def graph_and_nre(draw):
    seed = draw(st.integers(min_value=0, max_value=1_000_000))
    rng = random.Random(seed)
    graph = random_graph(
        rng.randint(2, 12), rng.randint(0, 30), rng=random.Random(rng.random())
    )
    expr = random_nre(depth=draw(st.integers(min_value=1, max_value=4)), rng=rng)
    return graph, expr


class TestCompiledVsReference:
    @settings(max_examples=80, deadline=None)
    @given(graph_and_nre())
    def test_all_pairs_agree(self, case):
        graph, expr = case
        engine = QueryEngine()
        assert engine.pairs(graph, expr) == evaluate_nre(graph, expr)

    @settings(max_examples=60, deadline=None)
    @given(graph_and_nre())
    def test_single_source_agrees(self, case):
        graph, expr = case
        engine = QueryEngine()
        reference = evaluate_nre(graph, expr)
        for source in graph.nodes():
            expected = frozenset(v for u, v in reference if u == source)
            assert engine.reachable(graph, expr, source) == expected

    @settings(max_examples=40, deadline=None)
    @given(graph_and_nre())
    def test_single_pair_agrees(self, case):
        graph, expr = case
        engine = QueryEngine()
        reference = evaluate_nre(graph, expr)
        nodes = sorted(graph.nodes())
        for u in nodes:
            for v in nodes:
                assert engine.holds(graph, expr, u, v) == ((u, v) in reference)

    @settings(max_examples=40, deadline=None)
    @given(graph_and_nre())
    def test_reference_engine_is_the_oracle(self, case):
        graph, expr = case
        assert QueryEngine().pairs(graph, expr) == ReferenceEngine().pairs(
            graph, expr
        )

    @settings(max_examples=40, deadline=None)
    @given(graph_and_nre())
    def test_cache_does_not_change_answers(self, case):
        """Asking twice (second time cached) must return the same relation."""
        graph, expr = case
        engine = QueryEngine()
        first = engine.pairs(graph, expr)
        clone = GraphDatabase(
            alphabet=graph.alphabet,
            nodes=graph.nodes(),
            edges=[(e.source, e.label, e.target) for e in graph.edges()],
        )
        assert engine.pairs(clone, expr) == first
        assert engine.pairs(graph, expr) == first


class TestNetworkxCrossCheck:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_star_reachability(self, seed):
        """``a*`` must equal reflexive-transitive digraph reachability."""
        rng = random.Random(seed)
        graph = random_graph(
            rng.randint(2, 12), rng.randint(0, 30), alphabet=("a",), rng=rng
        )
        expr = parse_nre("a*")
        engine = QueryEngine()

        digraph = nx.DiGraph()
        digraph.add_nodes_from(graph.nodes())
        for edge in graph.edges():
            digraph.add_edge(edge.source, edge.target)
        expected = set()
        for node in digraph.nodes:
            expected.add((node, node))
            for reachable in nx.descendants(digraph, node):
                expected.add((node, reachable))

        assert set(engine.pairs(graph, expr)) == expected
        source = sorted(graph.nodes())[0]
        assert engine.reachable(graph, expr, source) == frozenset(
            {source} | nx.descendants(digraph, source)
        )
