"""Unit tests for the successor-map NRE evaluator (:mod:`repro.graph.eval`)."""

import pytest

from repro.graph.database import GraphDatabase
from repro.graph.eval import (
    _preimage,
    evaluate_nre,
    evaluate_relation,
    nre_holds,
    nre_reachable,
    touched_sources,
)
from repro.graph.parser import parse_nre


@pytest.fixture
def chain():
    """u ─a→ v ─a→ w ─b→ x, plus u ─b→ x."""
    return GraphDatabase(
        edges=[("u", "a", "v"), ("v", "a", "w"), ("w", "b", "x"), ("u", "b", "x")]
    )


class TestAtoms:
    def test_label(self, chain):
        assert evaluate_nre(chain, parse_nre("a")) == {("u", "v"), ("v", "w")}

    def test_backward(self, chain):
        assert evaluate_nre(chain, parse_nre("a-")) == {("v", "u"), ("w", "v")}

    def test_epsilon_is_identity(self, chain):
        result = evaluate_nre(chain, parse_nre("()"))
        assert result == {(n, n) for n in chain.nodes()}

    def test_missing_label_empty(self, chain):
        assert evaluate_nre(chain, parse_nre("zzz")) == frozenset()


class TestCombinators:
    def test_concat(self, chain):
        assert evaluate_nre(chain, parse_nre("a . a")) == {("u", "w")}

    def test_concat_mixed_direction(self, chain):
        # u -b-> x, then back along b: x's b-predecessors are u and w.
        assert evaluate_nre(chain, parse_nre("b . b-")) == {
            ("u", "u"),
            ("u", "w"),
            ("w", "w"),
            ("w", "u"),
        }

    def test_union(self, chain):
        expected = evaluate_nre(chain, parse_nre("a")) | evaluate_nre(
            chain, parse_nre("b")
        )
        assert evaluate_nre(chain, parse_nre("a + b")) == expected

    def test_star_includes_reflexive_pairs(self, chain):
        result = evaluate_nre(chain, parse_nre("a*"))
        assert ("x", "x") in result  # every node, even ones with no a-edges
        assert ("u", "w") in result

    def test_star_zero_one_many(self):
        g = GraphDatabase(edges=[("1", "a", "2"), ("2", "a", "3"), ("3", "a", "4")])
        result = evaluate_nre(g, parse_nre("a*"))
        assert ("1", "4") in result
        assert ("1", "1") in result
        assert ("4", "1") not in result

    def test_nest_selects_nodes_with_witness(self, chain):
        result = evaluate_nre(chain, parse_nre("[a]"))
        assert result == {("u", "u"), ("v", "v")}

    def test_nest_is_a_filter_in_context(self, chain):
        # a-step to a node that has an outgoing b edge.
        result = evaluate_nre(chain, parse_nre("a[b]"))
        assert result == {("v", "w")}

    def test_nested_nest(self):
        g = GraphDatabase(
            edges=[("u", "a", "v"), ("v", "b", "w"), ("w", "c", "z")]
        )
        # a-step to a node with a b-path to a node with a c-edge
        assert evaluate_nre(g, parse_nre("a[b[c]]")) == {("u", "v")}

    def test_star_of_union(self, chain):
        result = evaluate_nre(chain, parse_nre("(a + b)*"))
        assert ("u", "x") in result
        assert ("u", "w") in result


class TestCycles:
    def test_cycle_star(self):
        g = GraphDatabase(edges=[("1", "a", "2"), ("2", "a", "1")])
        result = evaluate_nre(g, parse_nre("a*"))
        assert result == {("1", "1"), ("1", "2"), ("2", "1"), ("2", "2")}

    def test_self_loop(self):
        g = GraphDatabase(edges=[("1", "a", "1")])
        assert evaluate_nre(g, parse_nre("a . a . a")) == {("1", "1")}


class TestHelpers:
    def test_nre_reachable(self, chain):
        assert nre_reachable(chain, parse_nre("a . a"), "u") == {"w"}

    def test_nre_holds(self, chain):
        assert nre_holds(chain, parse_nre("a"), "u", "v")
        assert not nre_holds(chain, parse_nre("a"), "v", "u")

    def test_cache_shared_between_subexpressions(self, chain):
        cache = {}
        evaluate_nre(chain, parse_nre("a . a"), _cache=cache)
        assert parse_nre("a") in cache


class TestPaperSemantics:
    def test_example22_query_on_g1(self):
        from repro.scenarios.flights import example_query, graph_g1, paper_answers_g1

        assert evaluate_nre(graph_g1(), example_query()) == paper_answers_g1()

    def test_example22_query_on_g2(self):
        from repro.scenarios.flights import example_query, graph_g2, paper_answers_g2

        assert evaluate_nre(graph_g2(), example_query()) == paper_answers_g2()

    def test_ff_star_is_nonempty_path(self):
        g = GraphDatabase(edges=[("c1", "f", "N"), ("N", "f", "c2")])
        result = evaluate_nre(g, parse_nre("f . f*"))
        assert ("c1", "N") in result
        assert ("c1", "c2") in result
        assert ("c1", "c1") not in result  # f·f* needs at least one step


class TestRelationAlgebra:
    """The successor-map representation itself."""

    def test_labels_read_the_graph_index_without_a_copy(self, chain):
        relation = evaluate_relation(chain, parse_nre("a"))
        assert relation.succ is chain.forward_index("a")
        assert evaluate_relation(chain, parse_nre("a-")).succ is chain.backward_index("a")

    def test_star_keeps_the_identity_as_a_flag(self, chain):
        relation = evaluate_relation(chain, parse_nre("b*"))
        assert relation.reflexive
        assert set(relation.succ) == {"u", "w"}  # only nodes with a b-edge

    def test_closure_shares_one_set_per_component(self):
        g = GraphDatabase(edges=[(f"n{i}", "a", f"n{(i + 1) % 4}") for i in range(4)])
        relation = evaluate_relation(g, parse_nre("a*"))
        assert len({id(targets) for targets in relation.succ.values()}) == 1
        assert relation.succ["n0"] == {"n0", "n1", "n2", "n3"}

    def test_closure_of_a_long_chain_is_iterative(self):
        length = 3000  # far past the interpreter's recursion limit
        g = GraphDatabase(edges=[(i, "a", i + 1) for i in range(length)])
        assert nre_reachable(g, parse_nre("a*"), 0) == frozenset(range(length + 1))

    def test_sources_restrict_the_leftmost_operand(self, chain):
        full = evaluate_relation(chain, parse_nre("a . a*"))
        assert set(full.succ) == {"u", "v"}
        relation = evaluate_relation(chain, parse_nre("a . a*"), sources={"v"})
        assert set(relation.succ) == {"v"}
        assert relation.targets(["v"]) == {"v": {"w"}}

    def test_nest_after_identity_is_the_tested_domain(self, chain):
        assert evaluate_nre(chain, parse_nre("() . [b]")) == {("u", "u"), ("w", "w")}
        assert evaluate_nre(chain, parse_nre("a . [()]")) == evaluate_nre(
            chain, parse_nre("a")
        )

    def test_only_a_star_lets_compose_skip_covered_middles(self):
        """``r · s*`` skips a middle already in the row; ``r · (s + ())`` must not.

        Small ints iterate in order, so middle 1 is read before middle 2,
        which its row already holds; only a transitive right side may
        skip 2's own row.
        """
        g = GraphDatabase(
            edges=[(0, "a", 1), (0, "a", 2), (1, "b", 2), (2, "b", 3)]
        )
        assert nre_reachable(g, parse_nre("a . (b + ())"), 0) == {1, 2, 3}
        assert nre_reachable(g, parse_nre("a . b*"), 0) == {1, 2, 3}
        assert evaluate_nre(g, parse_nre("a . (b + ())")) == {
            (0, 1), (0, 2), (0, 3)
        }


class TestChangedRows:
    """Pre-images and touched sources, the answer layer's changed-row sets."""

    def test_preimage_of_a_nest_tests_the_whole_body(self, chain):
        # u and v both have an a-successor, but only v's reaches a b-edge.
        assert _preimage(chain, parse_nre("[a . b]"), {"u", "v", "w"}) == {"v"}
        assert _preimage(chain, parse_nre("[a* . b]"), {"u", "v", "x"}) == {"u", "v"}

    def test_preimage_of_a_star_walks_back_only_from_the_targets(self, chain):
        assert _preimage(chain, parse_nre("a*"), {"v"}) == {"u", "v"}
        assert _preimage(chain, parse_nre("a*"), {"ghost"}) == set()

    def test_a_new_node_touches_every_reflexive_part(self, chain):
        chain.add_edge("x", "c", "y")  # y is new; its c edge is not read
        touched = touched_sources(chain, parse_nre("a* . ()"), [("x", "c", "y")], {"y"})
        assert touched == {"y"}
        assert touched_sources(chain, parse_nre("[()]"), [], {"y"}) == {"y"}
        touched = touched_sources(chain, parse_nre("a . b"), [("x", "c", "y")], {"y"})
        assert touched == set()

    def test_a_changed_edge_touches_the_sources_that_reach_it(self, chain):
        edge = ("w", "b", "x")
        touched = touched_sources(chain, parse_nre("a* . b"), [edge], set())
        assert touched == {"u", "v", "w"}
        assert touched_sources(chain, parse_nre("b- . a-"), [edge], set()) == {"x"}
