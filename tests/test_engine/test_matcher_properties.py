"""Property-style tests: the indexed engine agrees with brute force.

Every indexed search of :mod:`repro.engine` has a slow, obviously-correct
counterpart: the nested-loop CNRE search (``oracles.cnre_search``) for
trigger matching, every tuple combination for CQ joins,
rebuild-from-scratch for the graph indexes.  These tests drive both
sides with randomly generated instances (:mod:`repro.scenarios.generators`)
and assert exact agreement.
"""

import random

import pytest

from oracles.cnre_search import cnre_homomorphisms
from repro.engine.matcher import TriggerMatcher, is_simple_query
from repro.graph.cnre import CNREAtom, CNREQuery
from repro.graph.database import GraphDatabase
from repro.graph.nre import Backward, Label
from repro.relational.evaluate import cq_homomorphisms
from repro.relational.query import Variable
from repro.scenarios.generators import random_flights_instance, random_graph
from test_engine.test_join_properties import brute_force, random_body, random_instance

X, Y, Z, W = Variable("x"), Variable("y"), Variable("z"), Variable("w")
ALPHABET = ("a", "b", "c")


def random_simple_query(rng: random.Random) -> CNREQuery:
    """A random conjunction of 1–3 forward/backward label atoms."""
    variables = [X, Y, Z, W]
    atoms = []
    for _ in range(rng.randint(1, 3)):
        nre = (Label if rng.random() < 0.7 else Backward)(rng.choice(ALPHABET))
        atoms.append(CNREAtom(rng.choice(variables), nre, rng.choice(variables)))
    return CNREQuery(atoms)


def hom_set(homs, query):
    return {tuple(h[v] for v in query.variables()) for h in homs}


class TestIndexedMatchingEqualsBruteForce:
    @pytest.mark.parametrize("trial", range(25))
    def test_full_matches_agree(self, trial):
        rng = random.Random(trial)
        graph = random_graph(rng.randint(2, 12), rng.randint(0, 30), ALPHABET, rng)
        query = random_simple_query(rng)
        assert is_simple_query(query)
        indexed = hom_set(TriggerMatcher(graph).matches(query), query)
        brute = hom_set(cnre_homomorphisms(query, graph), query)
        assert indexed == brute

    @pytest.mark.parametrize("trial", range(15))
    def test_seeded_matches_agree(self, trial):
        rng = random.Random(100 + trial)
        graph = random_graph(rng.randint(2, 10), rng.randint(1, 25), ALPHABET, rng)
        query = random_simple_query(rng)
        nodes = sorted(graph.nodes(), key=repr)
        seed = {query.variables()[0]: rng.choice(nodes)}
        indexed = hom_set(TriggerMatcher(graph).matches(query, seed=seed), query)
        brute = hom_set(cnre_homomorphisms(query, graph, seed=seed), query)
        assert indexed == brute

    @pytest.mark.parametrize("trial", range(15))
    def test_delta_matches_are_exactly_the_new_homomorphisms(self, trial):
        rng = random.Random(200 + trial)
        graph = random_graph(rng.randint(3, 10), rng.randint(1, 20), ALPHABET, rng)
        query = random_simple_query(rng)
        before = hom_set(cnre_homomorphisms(query, graph), query)
        version = graph.version
        nodes = sorted(graph.nodes(), key=repr)
        for _ in range(rng.randint(1, 5)):
            graph.add_edge(rng.choice(nodes), rng.choice(ALPHABET), rng.choice(nodes))
        after = hom_set(cnre_homomorphisms(query, graph), query)
        delta = hom_set(TriggerMatcher(graph).delta_matches(query, version), query)
        assert delta == after - before

    def test_composite_queries_fall_back_to_reference(self):
        from repro.graph.parser import parse_nre

        graph = GraphDatabase(edges=[("u", "a", "v"), ("v", "b", "w")])
        query = CNREQuery([CNREAtom(X, parse_nre("a . b"), Y)])
        assert not is_simple_query(query)
        assert hom_set(TriggerMatcher(graph).matches(query), query) == {("u", "w")}
        # Delta enumeration stays sound (full scan) for composites.
        assert hom_set(TriggerMatcher(graph).delta_matches(query, 0), query) == {("u", "w")}


class TestRelationalIndex:
    @pytest.mark.parametrize("trial", range(40))
    def test_indexed_cq_join_equals_full_scan(self, trial):
        """The flights s-t tgd body (trials 0–9), then random 1–3 atom
        bodies with constants and repeated variables."""
        from repro.scenarios.flights import flights_st_tgd

        rng = random.Random(400 + trial)
        if trial < 10:
            instance = random_flights_instance(
                rng.randint(1, 15), cities=rng.randint(2, 6),
                hotels=rng.randint(1, 5), rng=rng,
            )
            query = flights_st_tgd().body
        else:
            instance, query = random_instance(rng), random_body(rng)
        indexed = hom_set(cq_homomorphisms(query, instance), query)
        assert indexed == brute_force(query, instance)
        assert len(list(cq_homomorphisms(query, instance))) == len(indexed)

    def test_first_column_index_maintained_on_insert(self):
        from repro.relational.instance import RelationalInstance
        from repro.relational.schema import RelationalSchema

        schema = RelationalSchema()
        schema.declare("R", 2)
        instance = RelationalInstance(schema)
        instance.add("R", ("a", "b"))
        instance.add("R", ("a", "c"))
        instance.add("R", ("d", "e"))
        assert instance.tuples_with_first("R", "a") == {("a", "b"), ("a", "c")}
        assert instance.tuples_with_first("R", "missing") == frozenset()
        clone = instance.copy()
        clone.add("R", ("a", "z"))
        assert ("a", "z") not in instance.tuples_with_first("R", "a")
        assert ("a", "z") in clone.tuples_with_first("R", "a")


class TestGraphIndexConsistency:
    @pytest.mark.parametrize("trial", range(10))
    def test_rename_node_matches_rebuild(self, trial):
        rng = random.Random(500 + trial)
        graph = random_graph(rng.randint(3, 10), rng.randint(2, 25), ALPHABET, rng)
        nodes = sorted(graph.nodes(), key=repr)
        old, new = rng.choice(nodes), rng.choice(nodes)
        rebuilt = GraphDatabase(alphabet=graph.alphabet)
        for node in graph.nodes():
            rebuilt.add_node(new if node == old else node)
        for edge in graph.edges():
            rebuilt.add_edge(
                new if edge.source == old else edge.source,
                edge.label,
                new if edge.target == old else edge.target,
            )
        if old != new:
            graph.rename_node(old, new)
        assert graph == rebuilt
        # The incident indexes stay consistent with the edge set.
        for node in graph.nodes():
            assert graph.edges_from(node) == frozenset(
                e for e in graph.edges() if e.source == node
            )
            assert graph.edges_to(node) == frozenset(
                e for e in graph.edges() if e.target == node
            )

    def test_journal_versions_are_monotone_and_complete(self):
        graph = GraphDatabase()
        v0 = graph.version
        graph.add_edge("u", "a", "v")
        graph.add_edge("u", "a", "v")  # duplicate: no new version
        v1 = graph.version
        assert v1 == v0 + 1
        graph.add_edge("v", "b", "w")
        added = graph.edges_since(v1)
        assert [str(e) for e in added] == ["(v -b-> w)"]


class TestFrozenViews:
    """The matcher's joins read a frozen graph's CSR views like dict indexes.

    Witness verification of snapshot-loaded graphs runs here, so every
    join shape — the functional-egd self-join included — must give the
    dict graph's answers on the frozen twin.
    """

    @pytest.mark.parametrize("trial", range(20))
    def test_pair_join_on_frozen_equals_dict_and_brute(self, trial):
        rng = random.Random(300 + trial)
        graph = random_graph(rng.randint(2, 10), rng.randint(0, 30), ALPHABET, rng)
        frozen = graph.freeze()
        labels = [rng.choice(ALPHABET)]
        labels.append(labels[0] if trial % 2 == 0 else rng.choice(ALPHABET))
        atoms = []
        for free, lab in zip((X, Y), labels):
            if rng.random() < 0.5:
                atoms.append(CNREAtom(free, Label(lab), Z))
            else:
                atoms.append(CNREAtom(Z, Label(lab), free))
        query = CNREQuery(atoms)
        brute = {(h[X], h[Y]) for h in cnre_homomorphisms(query, graph)}
        assert TriggerMatcher(graph).pair_matches(query, X, Y) == brute
        assert TriggerMatcher(frozen).pair_matches(query, X, Y) == brute
        assert TriggerMatcher(frozen).pair_matches(query, Y, X) == {
            (b, a) for a, b in brute
        }

    @pytest.mark.parametrize("trial", range(10))
    def test_full_matches_on_frozen_equal_dict(self, trial):
        rng = random.Random(400 + trial)
        graph = random_graph(rng.randint(2, 12), rng.randint(0, 30), ALPHABET, rng)
        query = random_simple_query(rng)
        assert hom_set(TriggerMatcher(graph.freeze()).matches(query), query) == (
            hom_set(TriggerMatcher(graph).matches(query), query)
        )
