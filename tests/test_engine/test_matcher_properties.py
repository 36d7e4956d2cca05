"""Property-style tests: the indexed engine agrees with brute force.

Every fast path of :mod:`repro.engine` has a slow, obviously-correct
counterpart: full CNRE evaluation for trigger matching, full relation scans
for CQ joins, rebuild-from-scratch for the graph indexes.  These tests
drive both sides with randomly generated instances
(:mod:`repro.scenarios.generators`) and assert exact agreement.
"""

import random

import pytest

from repro.engine.matcher import TriggerMatcher, is_simple_query
from repro.graph.cnre import CNREAtom, CNREQuery, cnre_homomorphisms
from repro.graph.database import GraphDatabase
from repro.graph.nre import Backward, Label
from repro.relational.evaluate import cq_homomorphisms
from repro.relational.query import Variable
from repro.scenarios.generators import random_flights_instance, random_graph

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

    @pytest.mark.parametrize("trial", range(15))
    def test_matches_touching_cover_all_homs_through_a_node(self, trial):
        rng = random.Random(300 + trial)
        graph = random_graph(rng.randint(3, 10), rng.randint(2, 20), ALPHABET, rng)
        query = random_simple_query(rng)
        node = rng.choice(sorted(graph.nodes(), key=repr))
        touching = hom_set(TriggerMatcher(graph).matches_touching(query, node), query)
        full = hom_set(cnre_homomorphisms(query, graph), query)
        # Sound: a subset of all matches…
        assert touching <= full
        # …and complete: it contains every hom routing an atom through `node`.
        incident = graph.incident_edges(node)
        for hom in cnre_homomorphisms(query, graph):
            uses_node = False
            for atom in query.atoms:
                if isinstance(atom.nre, Label):
                    u, lab, v = hom.get(atom.subject, atom.subject), atom.nre.name, hom.get(atom.object, atom.object)
                else:
                    u, lab, v = hom.get(atom.object, atom.object), atom.nre.name, hom.get(atom.subject, atom.subject)
                if any(e.source == u and e.label == lab and e.target == v for e in incident):
                    uses_node = True
            if uses_node:
                assert tuple(hom[v] for v in query.variables()) in touching

    def test_composite_queries_fall_back_to_reference(self):
        from repro.graph.parser import parse_nre

        graph = GraphDatabase(edges=[("u", "a", "v"), ("v", "b", "w")])
        query = CNREQuery([CNREAtom(X, parse_nre("a . b"), Y)])
        assert not is_simple_query(query)
        assert hom_set(TriggerMatcher(graph).matches(query), query) == {("u", "w")}
        # Delta/touching enumeration stays sound (full scan) for composites.
        assert hom_set(TriggerMatcher(graph).delta_matches(query, 0), query) == {("u", "w")}


class TestRelationalIndex:
    @pytest.mark.parametrize("trial", range(10))
    def test_indexed_cq_join_equals_full_scan(self, trial):
        from repro.scenarios.flights import flights_st_tgd

        rng = random.Random(400 + trial)
        instance = random_flights_instance(
            rng.randint(1, 15), cities=rng.randint(2, 6), hotels=rng.randint(1, 5), rng=rng
        )
        query = flights_st_tgd().body
        indexed = {
            tuple(sorted((v.name, repr(h[v])) for v in h))
            for h in cq_homomorphisms(query, instance)
        }
        brute = set()
        # Brute force: enumerate every tuple combination per atom.
        from itertools import product

        atom_tuples = [sorted(instance.tuples(a.relation)) for a in query.atoms]
        for combo in product(*atom_tuples):
            assignment = {}
            ok = True
            for atom, tup in zip(query.atoms, combo):
                for term, value in zip(atom.terms, tup):
                    if term in assignment and assignment[term] != value:
                        ok = False
                    elif not isinstance(term, Variable) and term != value:
                        ok = False
                    elif isinstance(term, Variable):
                        assignment.setdefault(term, value)
                if not ok:
                    break
            if ok:
                brute.add(tuple(sorted((v.name, repr(c)) for v, c in assignment.items())))
        assert indexed == brute

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
