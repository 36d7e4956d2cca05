"""Unit tests for graph-to-graph homomorphisms, including the universal-
solution property of the Section 3.1 chase."""

import pytest

from repro.graph.database import GraphDatabase
from oracles.graph_homomorphism import (
    find_graph_homomorphism,
    graph_homomorphisms,
    is_homomorphic,
)


class TestBasics:
    def test_identity(self):
        g = GraphDatabase(edges=[("u", "a", "v")])
        hom = find_graph_homomorphism(g, g, frozen=["u", "v"])
        assert hom == {"u": "u", "v": "v"}

    def test_edge_preservation_required(self):
        source = GraphDatabase(edges=[("u", "a", "v")])
        target = GraphDatabase(edges=[("x", "b", "y")])
        assert not is_homomorphic(source, target)

    def test_collapse_allowed(self):
        source = GraphDatabase(edges=[("u", "a", "v")])
        target = GraphDatabase(edges=[("x", "a", "x")])
        hom = find_graph_homomorphism(source, target)
        assert hom == {"u": "x", "v": "x"}

    def test_frozen_pins_nodes(self):
        source = GraphDatabase(edges=[("u", "a", "v")])
        target = GraphDatabase(edges=[("u", "a", "w"), ("x", "a", "v")])
        hom = find_graph_homomorphism(source, target, frozen=["u"])
        assert hom["u"] == "u"
        assert hom["v"] == "w"

    def test_frozen_node_missing_from_target(self):
        source = GraphDatabase(edges=[("u", "a", "v")])
        target = GraphDatabase(edges=[("x", "a", "y")])
        assert not is_homomorphic(source, target, frozen=["u"])

    def test_all_homomorphisms(self):
        source = GraphDatabase(edges=[("u", "a", "v")])
        target = GraphDatabase(edges=[("1", "a", "2"), ("3", "a", "4")])
        homs = list(graph_homomorphisms(source, target))
        assert len(homs) == 2

    def test_cycle_into_loop(self):
        cycle = GraphDatabase(edges=[("1", "a", "2"), ("2", "a", "1")])
        loop = GraphDatabase(edges=[("x", "a", "x")])
        assert is_homomorphic(cycle, loop)
        assert not is_homomorphic(loop, GraphDatabase(edges=[("1", "a", "2")]))


class TestUniversalSolutionProperty:
    """The Section 3.1 chased graph maps into every solution, identity on
    constants — the defining property of universal solutions [11]."""

    def test_chased_graph_maps_into_known_solutions(self):
        from repro.chase.relational_chase import chase_relational
        from repro.scenarios.figures import example31_setting
        from repro.scenarios.flights import flights_instance

        setting = example31_setting()
        instance = flights_instance()
        universal = chase_relational(
            setting.st_tgds, setting.egds(), instance, alphabet=setting.alphabet
        ).expect_graph()

        # A hand-built solution of the single-symbol setting: all cities
        # collapse into one hub.
        hub = GraphDatabase(
            alphabet={"f", "h"},
            edges=[
                ("c1", "f", "HUB"), ("c3", "f", "HUB"), ("HUB", "f", "c2"),
                ("HUB", "h", "hx"), ("HUB", "h", "hy"),
            ],
        )
        constants = instance.active_domain()
        hom = find_graph_homomorphism(universal, hub, frozen=constants)
        assert hom is not None
        for constant in constants:
            if constant in universal.nodes():
                assert hom[constant] == constant

    def test_chased_graph_maps_into_candidate_solutions(self):
        from repro.chase.relational_chase import chase_relational
        from repro.core.search import CandidateSearchConfig, candidate_solutions
        from repro.scenarios.figures import example31_setting
        from repro.scenarios.flights import flights_instance

        setting = example31_setting()
        instance = flights_instance()
        universal = chase_relational(
            setting.st_tgds, setting.egds(), instance, alphabet=setting.alphabet
        ).expect_graph()
        constants = instance.active_domain()
        checked = 0
        for solution in candidate_solutions(
            setting, instance, CandidateSearchConfig(star_bound=1, max_candidates=5)
        ):
            assert is_homomorphic(universal, solution, frozen=constants)
            checked += 1
        assert checked > 0
