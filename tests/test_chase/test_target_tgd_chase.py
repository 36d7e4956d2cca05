"""Unit tests for the bounded target-tgd chase."""

import pytest

from repro.chase.target_tgd_chase import chase_target_tgds
from repro.errors import BoundExceeded
from repro.graph.database import GraphDatabase
from repro.mappings.parser import parse_target_tgd


class TestBasicChase:
    def test_satisfied_input_untouched(self):
        tgd = parse_target_tgd("(x, a, y) -> (y, b, z)")
        g = GraphDatabase(edges=[("u", "a", "v"), ("v", "b", "w")])
        result = chase_target_tgds(g, [tgd])
        assert result.expect_graph().edge_count() == 2
        assert result.stats.tgd_applications == 0

    def test_single_repair(self):
        tgd = parse_target_tgd("(x, a, y) -> (y, b, z)")
        g = GraphDatabase(edges=[("u", "a", "v")])
        result = chase_target_tgds(g, [tgd])
        chased = result.expect_graph()
        assert tgd.is_satisfied(chased)
        assert result.stats.tgd_applications == 1

    def test_input_not_mutated(self):
        tgd = parse_target_tgd("(x, a, y) -> (y, b, z)")
        g = GraphDatabase(edges=[("u", "a", "v")])
        chase_target_tgds(g, [tgd])
        assert g.edge_count() == 1

    def test_transitive_closure_terminates(self):
        tgd = parse_target_tgd("(x, a, y), (y, a, z) -> (x, a, z)")
        g = GraphDatabase(
            edges=[("1", "a", "2"), ("2", "a", "3"), ("3", "a", "4")]
        )
        result = chase_target_tgds(g, [tgd])
        chased = result.expect_graph()
        assert chased.has_edge("1", "a", "4")
        assert tgd.is_satisfied(chased)

    def test_destructive_input_chases_like_a_fresh_one(self):
        """Delta rounds read the working copy's journal, not the input's."""
        tgd = parse_target_tgd("(x, a, y), (y, a, z) -> (x, a, z)")
        edges = [("1", "a", "2"), ("2", "a", "3"), ("3", "a", "4"), ("4", "a", "5")]
        fresh = GraphDatabase(edges=edges)
        worn = GraphDatabase(edges=edges + [("5", "a", "6")])
        worn.remove_edge("5", "a", "6")
        worn.discard_node("6")
        assert worn.destructive and worn == fresh
        chased = chase_target_tgds(worn, [tgd]).expect_graph()
        assert chased == chase_target_tgds(fresh, [tgd]).expect_graph()
        assert chased.has_edge("1", "a", "5")

    def test_fresh_nodes_for_existentials(self):
        tgd = parse_target_tgd("(x, a, y) -> (x, b, z)")
        g = GraphDatabase(edges=[("u", "a", "v")])
        chased = chase_target_tgds(g, [tgd]).expect_graph()
        assert chased.node_count() == 3  # u, v, one fresh

    def test_star_head_takes_one_step_between_distinct_nodes(self):
        tgd = parse_target_tgd("(x, a, y) -> (y, b . b*, x)")
        g = GraphDatabase(edges=[("u", "a", "v")])
        chased = chase_target_tgds(g, [tgd]).expect_graph()
        assert chased.has_edge("v", "b", "u")


class TestNonTermination:
    def test_diverging_chase_raises(self):
        # Every a-target spawns a fresh a-target: classic divergence.
        tgd = parse_target_tgd("(x, a, y) -> (y, a, z)")
        g = GraphDatabase(edges=[("u", "a", "v")])
        with pytest.raises(BoundExceeded):
            chase_target_tgds(g, [tgd], max_rounds=5)

    def test_lenient_mode_returns_partial(self):
        tgd = parse_target_tgd("(x, a, y) -> (y, a, z)")
        g = GraphDatabase(edges=[("u", "a", "v")])
        result = chase_target_tgds(g, [tgd], max_rounds=5, strict=False)
        assert result.expect_graph().edge_count() > 1
        assert result.stats.rounds == 5


class TestAlphabetHandling:
    def test_head_labels_added_to_alphabet(self):
        tgd = parse_target_tgd("(x, a, y) -> (x, brandnew, y)")
        g = GraphDatabase(alphabet={"a"}, edges=[("u", "a", "v")])
        chased = chase_target_tgds(g, [tgd]).expect_graph()
        assert "brandnew" in chased.alphabet
        assert chased.has_edge("u", "brandnew", "v")
