"""Unit tests for the edge-labeled graph database."""

import pytest

from oracles.graph_homomorphism import is_isomorphic
from repro.errors import SchemaError
from repro.graph.database import Edge, GraphDatabase


class TestBasics:
    def test_empty(self):
        g = GraphDatabase()
        assert g.node_count() == 0
        assert g.edge_count() == 0

    def test_add_edge_adds_endpoints(self):
        g = GraphDatabase()
        g.add_edge("u", "a", "v")
        assert g.nodes() == {"u", "v"}
        assert g.has_edge("u", "a", "v")

    def test_add_isolated_node(self):
        g = GraphDatabase()
        g.add_node("lonely")
        assert "lonely" in g
        assert g.edge_count() == 0

    def test_duplicate_edges_collapse(self):
        g = GraphDatabase()
        g.add_edge("u", "a", "v")
        g.add_edge("u", "a", "v")
        assert g.edge_count() == 1

    def test_parallel_labels_are_distinct(self):
        g = GraphDatabase()
        g.add_edge("u", "a", "v")
        g.add_edge("u", "b", "v")
        assert g.edge_count() == 2

    def test_self_loop(self):
        g = GraphDatabase()
        g.add_edge("u", "a", "u")
        assert g.has_edge("u", "a", "u")
        assert g.node_count() == 1


class TestAlphabet:
    def test_declared_alphabet_enforced(self):
        g = GraphDatabase(alphabet={"a"})
        with pytest.raises(SchemaError):
            g.add_edge("u", "b", "v")

    def test_open_alphabet_grows(self):
        g = GraphDatabase()
        g.add_edge("u", "a", "v")
        g.add_edge("u", "b", "v")
        assert g.alphabet == {"a", "b"}

    def test_declared_alphabet_reported_even_if_unused(self):
        g = GraphDatabase(alphabet={"a", "b"})
        assert g.alphabet == {"a", "b"}

    def test_with_alphabet_widens(self):
        g = GraphDatabase(alphabet={"a"}, edges=[("u", "a", "v")])
        widened = g.with_alphabet({"a", "sameAs"})
        widened.add_edge("u", "sameAs", "v")
        assert widened.edge_count() == 2
        assert g.edge_count() == 1


class TestAdjacency:
    @pytest.fixture
    def g(self):
        return GraphDatabase(
            edges=[("u", "a", "v"), ("u", "a", "w"), ("x", "a", "v"), ("u", "b", "v")]
        )

    def test_successors(self, g):
        assert g.successors("u", "a") == {"v", "w"}

    def test_predecessors(self, g):
        assert g.predecessors("v", "a") == {"u", "x"}

    def test_successors_missing_label(self, g):
        assert g.successors("u", "zzz") == frozenset()

    def test_edges_with_label(self, g):
        assert g.edges_with_label("b") == {("u", "v")}

    def test_remove_edge(self, g):
        g.remove_edge("u", "a", "v")
        assert not g.has_edge("u", "a", "v")
        assert "v" in g  # endpoint stays
        assert g.successors("u", "a") == {"w"}

    def test_remove_missing_edge_is_noop(self, g):
        g.remove_edge("u", "a", "zzz")
        assert g.edge_count() == 4


class TestCopyExtend:
    def test_copy_independent(self):
        g = GraphDatabase(edges=[("u", "a", "v")])
        clone = g.copy()
        clone.add_edge("v", "a", "u")
        assert g.edge_count() == 1

    def test_grown_copy_leaves_original(self):
        g = GraphDatabase(edges=[("u", "a", "v")])
        bigger = g.copy()
        bigger.add_edge("v", "a", "w")
        assert bigger.edge_count() == 2
        assert g.edge_count() == 1

    def test_equality(self):
        one = GraphDatabase(edges=[("u", "a", "v")])
        two = GraphDatabase(edges=[("u", "a", "v")])
        assert one == two

    def test_inequality_on_isolated_nodes(self):
        one = GraphDatabase(edges=[("u", "a", "v")])
        two = GraphDatabase(edges=[("u", "a", "v")], nodes=["extra"])
        assert one != two


class TestIsomorphism:
    def test_isomorphic_renamed(self):
        one = GraphDatabase(edges=[("u", "a", "v"), ("v", "b", "w")])
        two = GraphDatabase(edges=[("1", "a", "2"), ("2", "b", "3")])
        assert is_isomorphic(one, two)

    def test_not_isomorphic_different_labels(self):
        one = GraphDatabase(edges=[("u", "a", "v")])
        two = GraphDatabase(edges=[("u", "b", "v")])
        assert not is_isomorphic(one, two)

    def test_not_isomorphic_different_shape(self):
        one = GraphDatabase(edges=[("u", "a", "v"), ("u", "a", "w")])
        two = GraphDatabase(edges=[("u", "a", "v"), ("v", "a", "w")])
        assert not is_isomorphic(one, two)

    def test_size_mismatch_fast_path(self):
        one = GraphDatabase(edges=[("u", "a", "v")])
        two = GraphDatabase(edges=[("u", "a", "v"), ("v", "a", "u")])
        assert not is_isomorphic(one, two)

    def test_self_isomorphism(self):
        g = GraphDatabase(
            edges=[("c1", "f", "N"), ("c3", "f", "N"), ("N", "f", "c2")]
        )
        assert is_isomorphic(g, g.copy())


class TestEdgeValue:
    def test_edge_ordering_and_str(self):
        edge = Edge("u", "a", "v")
        assert str(edge) == "(u -a-> v)"
        assert Edge("a", "a", "a") < Edge("b", "a", "a")

    def test_iteration_is_deterministic(self):
        g = GraphDatabase(edges=[("u", "a", "v"), ("a", "b", "c")])
        assert list(g) == list(g)
