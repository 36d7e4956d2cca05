"""Property-based round-trip tests for the JSON serialization layer."""

import json
import random

from hypothesis import given, settings, strategies as st

from repro.core.tractable import chase_universal
from repro.graph.database import GraphDatabase
from repro.io.json_io import (
    _node_to_json,
    document_from_dict,
    graph_from_dict,
    graph_to_dict,
    nre_from_dict,
    nre_to_dict,
)
from repro.patterns.pattern import Null
from repro.scenarios.generators import random_graph, random_nre
from repro.scenarios.scale import GeneratorConfig, scale_document


@st.composite
def graphs(draw):
    seed = draw(st.integers(min_value=0, max_value=100_000))
    nodes = draw(st.integers(min_value=1, max_value=8))
    edges = draw(st.integers(min_value=0, max_value=20))
    return random_graph(nodes, edges, rng=random.Random(seed))


@st.composite
def nres(draw):
    seed = draw(st.integers(min_value=0, max_value=100_000))
    depth = draw(st.integers(min_value=0, max_value=4))
    return random_nre(depth=depth, rng=random.Random(seed))


class TestGraphRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(graphs())
    def test_dict_round_trip(self, graph):
        assert graph_from_dict(graph_to_dict(graph)) == graph

    @settings(max_examples=60, deadline=None)
    @given(graphs())
    def test_json_text_round_trip(self, graph):
        text = json.dumps(graph_to_dict(graph))
        assert graph_from_dict(json.loads(text)) == graph

    @settings(max_examples=60, deadline=None)
    @given(graphs())
    def test_serialization_is_deterministic(self, graph):
        assert json.dumps(graph_to_dict(graph)) == json.dumps(graph_to_dict(graph))


def edge_object_encoding(graph) -> dict:
    """The encoder as it read the graph through ``Edge`` objects."""
    return {
        "alphabet": sorted(graph.alphabet),
        "nodes": sorted((_node_to_json(n) for n in graph.nodes()), key=repr),
        "edges": sorted(
            (
                [_node_to_json(e.source), e.label, _node_to_json(e.target)]
                for e in graph.edges()
            ),
            key=repr,
        ),
    }


NODE_POOL = ("u", "v", "w", "x1", "N1", Null("N1"), Null("N2"), Null("N10"))

pool_edges = st.tuples(
    st.sampled_from(NODE_POOL), st.sampled_from(("a", "b")), st.sampled_from(NODE_POOL)
)


class TestWitnessEncodeIsByteIdentical:
    """``graph_to_dict`` reads plain triples; the bytes must not move."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(pool_edges, max_size=14),
        st.lists(st.integers(0, 13), max_size=3),
        st.lists(st.tuples(st.sampled_from(NODE_POOL), st.sampled_from(NODE_POOL)), max_size=2),
        st.booleans(),
    )
    def test_journal_and_index_paths(self, edges, removals, renames, frozen):
        graph = GraphDatabase(edges=edges)  # journal path: no removal yet
        assert json.dumps(graph_to_dict(graph)) == json.dumps(
            edge_object_encoding(graph)
        )
        for index in removals:  # index path: the journal outgrows the edges
            if index < len(edges):
                graph.remove_edge(*edges[index])
        for old, new in renames:
            graph.rename_node(old, new)
        if frozen:
            graph = graph.freeze()
        assert json.dumps(graph_to_dict(graph)) == json.dumps(
            edge_object_encoding(graph)
        )

    def test_chased_tenants_with_nulls(self):
        for family in ("social", "medlit"):
            document = scale_document(GeneratorConfig(family=family, nodes=80, seed=3))
            setting, instance = document_from_dict(document)
            graph = chase_universal(setting, instance).expect_graph()
            encoded = graph_to_dict(graph)
            assert any(isinstance(node, dict) for node in encoded["nodes"])
            assert json.dumps(encoded) == json.dumps(edge_object_encoding(graph))


class TestNreRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(nres())
    def test_dict_round_trip(self, expr):
        assert nre_from_dict(nre_to_dict(expr)) == expr

    @settings(max_examples=100, deadline=None)
    @given(nres())
    def test_text_syntax_round_trip(self, expr):
        """str() output re-parses to the same AST (parser ↔ printer)."""
        from repro.graph.parser import parse_nre

        assert parse_nre(str(expr)) == expr

    @settings(max_examples=60, deadline=None)
    @given(nres())
    def test_semantics_preserved(self, expr):
        """The round-tripped NRE evaluates identically on a fixed graph."""
        from repro.graph.eval import evaluate_nre

        graph = random_graph(5, 12, rng=random.Random(7))
        back = nre_from_dict(nre_to_dict(expr))
        assert evaluate_nre(graph, back) == evaluate_nre(graph, expr)
