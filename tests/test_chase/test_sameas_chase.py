"""Unit tests for the sameAs constructive solution (Section 4.2)."""

from repro.chase.sameas_chase import saturate_sameas, solve_with_sameas
from repro.core.solution import is_solution
from repro.graph.database import GraphDatabase
from repro.mappings.parser import parse_sameas
from repro.mappings.sameas import SAME_AS_LABEL
from repro.scenarios.flights import (
    flights_instance,
    hotel_sameas,
    flights_st_tgd,
    setting_omega_prime,
)


class TestSaturate:
    def test_adds_required_edges(self):
        g = GraphDatabase(edges=[("a", "h", "hx"), ("b", "h", "hx")])
        saturated = saturate_sameas(g, [hotel_sameas()])
        assert saturated.has_edge("a", SAME_AS_LABEL, "b")
        assert saturated.has_edge("b", SAME_AS_LABEL, "a")

    def test_input_not_mutated(self):
        g = GraphDatabase(edges=[("a", "h", "hx"), ("b", "h", "hx")])
        saturate_sameas(g, [hotel_sameas()])
        assert g.edge_count() == 2

    def test_idempotent_when_satisfied(self):
        g = GraphDatabase(edges=[("a", "h", "hx")])
        saturated = saturate_sameas(g, [hotel_sameas()])
        assert saturated.edge_count() == 1

    def test_constants_get_sameas_edges(self):
        """The crux of Section 4.2: constants can be sameAs-related."""
        g = GraphDatabase(edges=[("c1", "h", "hx"), ("c2", "h", "hx")])
        saturated = saturate_sameas(g, [hotel_sameas()])
        assert saturated.has_edge("c1", SAME_AS_LABEL, "c2")

    def test_cascade_through_sameas_bodies(self):
        """Bodies mentioning sameAs trigger further rounds."""
        transitive = parse_sameas(
            "(x, sameAs, z), (z, sameAs, y) -> (x, sameAs, y)"
        )
        g = GraphDatabase(
            alphabet={"h", SAME_AS_LABEL},
            edges=[("a", SAME_AS_LABEL, "b"), ("b", SAME_AS_LABEL, "c")],
        )
        saturated = saturate_sameas(g, [transitive])
        assert saturated.has_edge("a", SAME_AS_LABEL, "c")

    def test_destructive_input_saturates_like_a_fresh_one(self):
        """Delta rounds read the working copy's journal, not the input's."""
        transitive = parse_sameas(
            "(x, sameAs, z), (z, sameAs, y) -> (x, sameAs, y)"
        )
        edges = [
            ("a", "h", "hx"),
            ("b", "h", "hx"),
            ("b", SAME_AS_LABEL, "c"),
            ("c", SAME_AS_LABEL, "d"),
        ]
        fresh = GraphDatabase(alphabet={"h", SAME_AS_LABEL}, edges=edges)
        worn = GraphDatabase(
            alphabet={"h", SAME_AS_LABEL}, edges=edges + [("e", "h", "hy")]
        )
        worn.remove_edge("e", "h", "hy")
        worn.discard_node("e")
        worn.discard_node("hy")
        assert worn.destructive and worn == fresh
        constraints = [hotel_sameas(), transitive]
        saturated = saturate_sameas(worn, constraints)
        assert saturated == saturate_sameas(fresh, constraints)
        assert saturated.has_edge("a", SAME_AS_LABEL, "d")

    def test_alphabet_widened(self):
        g = GraphDatabase(alphabet={"h"}, edges=[("a", "h", "hx"), ("b", "h", "hx")])
        saturated = saturate_sameas(g, [hotel_sameas()])
        assert SAME_AS_LABEL in saturated.alphabet


class TestSolveWithSameAs:
    def test_produces_solution(self):
        result = solve_with_sameas(
            [flights_st_tgd()], [hotel_sameas()], flights_instance(),
            alphabet={"f", "h"},
        )
        assert is_solution(
            flights_instance(), result.expect_graph(), setting_omega_prime()
        )

    def test_carries_pattern_and_graph(self):
        result = solve_with_sameas(
            [flights_st_tgd()], [hotel_sameas()], flights_instance(),
            alphabet={"f", "h"},
        )
        assert result.pattern is not None
        assert result.graph is not None

    def test_stats_track_added_edges(self):
        result = solve_with_sameas(
            [flights_st_tgd()], [hotel_sameas()], flights_instance(),
            alphabet={"f", "h"},
        )
        # Canonical instantiation keeps the three cities distinct; hx's two
        # cities need a sameAs edge each way.
        assert result.stats.sameas_edges_added == 2

    def test_always_succeeds(self):
        result = solve_with_sameas(
            [flights_st_tgd()], [hotel_sameas()], flights_instance(),
            alphabet={"f", "h"},
        )
        assert result.succeeded
