"""Unit tests for source-to-target tgds."""

import pytest

from repro.errors import SchemaError
from repro.graph.cnre import CNREAtom, CNREQuery
from repro.graph.database import GraphDatabase
from repro.graph.parser import parse_nre
from repro.mappings.parser import parse_st_tgd
from repro.relational.instance import RelationalInstance
from repro.relational.parser import parse_cq
from repro.relational.query import Variable
from repro.relational.schema import RelationalSchema
from repro.mappings.stt import SourceToTargetTgd


@pytest.fixture
def schema():
    s = RelationalSchema()
    s.declare("R", 2)
    return s


@pytest.fixture
def instance(schema):
    return RelationalInstance(schema, {"R": [("u", "v"), ("v", "w")]})


class TestFrontier:
    def test_frontier_and_existentials(self):
        tgd = parse_st_tgd("R(x, y) -> (x, a, z), (z, b, y)")
        assert set(tgd.frontier) == {Variable("x"), Variable("y")}
        assert tgd.existentials == (Variable("z"),)

    def test_no_existentials(self):
        tgd = parse_st_tgd("R(x, y) -> (x, a, y)")
        assert tgd.existentials == ()

    def test_head_constants_rejected(self):
        body = parse_cq("R(x, y)")
        head = CNREQuery([CNREAtom(Variable("x"), parse_nre("a"), "c1")])
        with pytest.raises(SchemaError, match="variables only"):
            SourceToTargetTgd(body, head)


class TestSatisfaction:
    def test_satisfied_when_edges_present(self, instance):
        tgd = parse_st_tgd("R(x, y) -> (x, a, y)")
        g = GraphDatabase(edges=[("u", "a", "v"), ("v", "a", "w")])
        assert tgd.is_satisfied(instance, g)

    def test_violated_when_edge_missing(self, instance):
        tgd = parse_st_tgd("R(x, y) -> (x, a, y)")
        g = GraphDatabase(edges=[("u", "a", "v")])
        assert not tgd.is_satisfied(instance, g)
        violations = list(tgd.violations(instance, g))
        assert len(violations) == 1
        assert violations[0][Variable("x")] == "v"

    def test_existential_witnessed_by_any_node(self, instance):
        tgd = parse_st_tgd("R(x, y) -> (x, a, z)")
        g = GraphDatabase(edges=[("u", "a", "anything"), ("v", "a", "u")])
        assert tgd.is_satisfied(instance, g)

    def test_star_head_satisfied_by_path(self, instance):
        tgd = parse_st_tgd("R(x, y) -> (x, a . a*, y)")
        g = GraphDatabase(
            edges=[("u", "a", "mid"), ("mid", "a", "v"), ("v", "a", "w")]
        )
        assert tgd.is_satisfied(instance, g)
        holds = tgd.head_checker(g)
        assert holds(("u", "v")) and holds(("u", "w")) and holds(("v", "w"))
        assert not holds(("w", "u"))

    def test_empty_instance_vacuously_satisfied(self, schema):
        tgd = parse_st_tgd("R(x, y) -> (x, a, y)")
        empty = RelationalInstance(schema)
        assert tgd.is_satisfied(empty, GraphDatabase())

    def test_shared_existential_across_atoms(self, instance):
        tgd = parse_st_tgd("R(x, y) -> (x, a, z), (z, b, y)")
        good = GraphDatabase(
            edges=[
                ("u", "a", "m1"), ("m1", "b", "v"),
                ("v", "a", "m2"), ("m2", "b", "w"),
            ]
        )
        bad = GraphDatabase(
            edges=[
                ("u", "a", "m1"), ("m2", "b", "v"),  # different witnesses
                ("v", "a", "m3"), ("m3", "b", "w"),
            ]
        )
        assert tgd.is_satisfied(instance, good)
        assert not tgd.is_satisfied(instance, bad)


class TestPaperTgd:
    def test_mst_on_g1(self):
        from repro.scenarios.flights import (
            flights_instance,
            flights_st_tgd,
            graph_g1,
        )

        assert flights_st_tgd().is_satisfied(flights_instance(), graph_g1())

    def test_mst_violated_without_hotel_edges(self):
        from repro.scenarios.flights import flights_instance, flights_st_tgd

        g = GraphDatabase(
            edges=[("c1", "f", "N"), ("c3", "f", "N"), ("N", "f", "c2")]
        )
        assert not flights_st_tgd().is_satisfied(flights_instance(), g)

    def test_str_mentions_existential(self):
        tgd = parse_st_tgd("R(x, y) -> (x, a, z)")
        assert "∃z" in str(tgd)
