"""Differential suites for the join executor (:mod:`repro.join`).

Every search mode is pinned against a brute force that shares none of
its code:

* CNRE bodies with composite atoms (star, union, nest, backward),
  constants, repeated variables and seeds — against the nested-loop
  ``oracles.cnre_search``;
* :meth:`~repro.join.Plan.exists`, which tests a body one independent
  component at a time — against the same oracle, on each shape a
  component rule treats apart and on random bodies over graphs whose
  removed edges leave empty adjacency sets;
* seeded relational bodies of 1–3 atoms with constants and repeated
  variables — against every tuple combination (the unseeded joins are
  ``test_matcher_properties.TestRelationalIndex``'s random inputs);
* pattern homomorphisms — against the candidate/assign
  ``oracles.pattern_search``;
* the relational delta mode — against full re-enumeration minus the
  matches that existed before the insertions.
"""

import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from oracles.cnre_search import cnre_homomorphisms as reference_homs
from oracles.pattern_search import all_homomorphisms as reference_pattern_homs
from repro.engine.matcher import TriggerMatcher
from repro.graph.cnre import CNREAtom, CNREQuery, cnre_homomorphisms, evaluate_cnre
from repro.graph.database import GraphDatabase
from repro.graph.nre import Backward, Label, Nest, Star, Union
from repro.join import _components
from repro.patterns.homomorphism import all_homomorphisms, has_homomorphism
from repro.patterns.pattern import GraphPattern
from repro.relational.evaluate import cq_homomorphisms, relational_body
from repro.relational.instance import RelationalInstance
from repro.relational.query import ConjunctiveQuery, RelationalAtom, Variable
from repro.relational.schema import RelationalSchema
from repro.scenarios.generators import random_graph, random_nre

X, Y, Z, W = Variable("x"), Variable("y"), Variable("z"), Variable("w")
ALPHABET = ("a", "b")
DOMAIN = ("d0", "d1", "d2")
seeds = st.integers(min_value=0, max_value=10**6)


def composite(rng: random.Random):
    """A random NRE, wrapped so that composite shapes always occur."""
    inner = random_nre(depth=rng.randint(0, 2), alphabet=ALPHABET, rng=rng)
    wrap = rng.randrange(5)
    if wrap == 0:
        return Star(inner)
    if wrap == 1:
        return Union(inner, Backward(rng.choice(ALPHABET)))
    if wrap == 2:
        return Nest(inner)
    if wrap == 3:
        return Backward(rng.choice(ALPHABET))
    return inner


def random_case(seed: int):
    """A small graph, a 1–3 atom CNRE body over it, and a seed mapping."""
    rng = random.Random(seed)
    graph = random_graph(rng.randint(1, 6), rng.randint(0, 12), ALPHABET, rng)
    nodes = sorted(graph.nodes(), key=repr)
    terms = [X, Y, Z, X, Y, rng.choice(nodes), "missing"]
    atoms = [
        CNREAtom(rng.choice(terms), composite(rng), rng.choice(terms))
        for _ in range(rng.randint(1, 3))
    ]
    if not any(isinstance(t, Variable) for a in atoms for t in (a.subject, a.object)):
        atoms.append(CNREAtom(X, Label(rng.choice(ALPHABET)), Y))
    query = CNREQuery(atoms)
    variables = query.variables()
    seed_map = {v: rng.choice(nodes) for v in variables if rng.random() < 0.3}
    return graph, query, seed_map


def hom_set(homs, variables):
    return {tuple(h[v] for v in variables) for h in homs}


class TestCompositeCnreBodies:
    @settings(max_examples=150, deadline=None)
    @given(seeds)
    def test_homomorphisms_equal_nested_loop(self, seed):
        graph, query, seed_map = random_case(seed)
        variables = query.variables()
        expected = hom_set(reference_homs(query, graph, seed=seed_map), variables)
        found = list(cnre_homomorphisms(query, graph, seed=seed_map))
        assert hom_set(found, variables) == expected
        assert len(found) == len(expected)  # each homomorphism once
        matcher = TriggerMatcher(graph.freeze())
        assert hom_set(matcher.matches(query, seed=seed_map), variables) == expected

    @settings(max_examples=100, deadline=None)
    @given(seeds)
    def test_projections_and_probes_equal_nested_loop(self, seed):
        graph, query, seed_map = random_case(seed)
        variables = query.variables()
        full = hom_set(reference_homs(query, graph), variables)
        assert evaluate_cnre(query, graph) == full
        left, right = variables[0], variables[-1]
        pairs = {(row[0], row[-1]) for row in full}
        assert TriggerMatcher(graph).pair_matches(query, left, right) == pairs
        bound = list(seed_map)
        plan = TriggerMatcher(graph).join_plan(query, bound)
        seeded = hom_set(reference_homs(query, graph, seed=seed_map), variables)
        assert plan.exists([seed_map[v] for v in bound]) == bool(seeded)


def emptied_graph() -> GraphDatabase:
    """A small graph whose removed edges leave empty adjacency sets behind:
    ``d2`` keeps an empty ``a`` successor set, ``d0`` an empty ``a``
    predecessor set, and label ``c`` has no edge left."""
    graph = GraphDatabase(
        alphabet={"a", "b", "c"},
        edges=[
            ("d0", "a", "d1"), ("d1", "a", "d1"), ("d1", "b", "d2"),
            ("d2", "b", "d0"), ("d2", "a", "d0"), ("d0", "c", "d1"),
        ],
    )
    graph.backward_index("a")
    graph.remove_edge("d2", "a", "d0")
    graph.remove_edge("d0", "c", "d1")
    return graph


A, B, C = Label("a"), Label("b"), Label("c")

# (atoms, bound variables, the kinds of their components)
SHAPES = {
    "two independent existential groups": (
        [CNREAtom(X, A, Z), CNREAtom(Z, B, Y), CNREAtom(Y, B, W), CNREAtom(W, A, X)],
        [X, Y],
        ["search", "search"],
    ),
    "a search over some of the bound variables": (
        [CNREAtom(X, A, Z), CNREAtom(Z, A, X), CNREAtom(X, B, Y)],
        [X, Y],
        ["membership", "search"],
    ),
    "groups sharing only a bound variable": (
        [CNREAtom(X, A, Z), CNREAtom(X, B, W), CNREAtom(Y, A, X)],
        [X, Y],
        ["membership", "non-empty", "non-empty"],
    ),
    "a lone atom with both ends unbound": (
        [CNREAtom(X, B, Y), CNREAtom(Z, A, W)],
        [X, Y],
        ["membership", "non-empty"],
    ),
    "a lone atom over a label with no edge left": (
        [CNREAtom(X, B, Y), CNREAtom(Z, C, W)],
        [X, Y],
        ["membership", "non-empty"],
    ),
    "emptied adjacency sets": (
        [CNREAtom(X, A, Z), CNREAtom(W, A, Y)],
        [X, Y],
        ["non-empty", "non-empty"],
    ),
    "a repeated unbound variable": (
        [CNREAtom(Z, A, Z), CNREAtom(X, A, X)],
        [X],
        ["membership", "search"],
    ),
    "constants": (
        [CNREAtom(X, A, "d1"), CNREAtom("d2", B, Z), CNREAtom(Y, B, "d0")],
        [X, Y],
        ["membership", "membership", "non-empty"],
    ),
    "a union atom": (
        [CNREAtom(X, Union(A, Backward("b")), Z), CNREAtom(X, Union(A, B), Y)],
        [X, Y],
        ["membership", "non-empty"],
    ),
    "a backward label": (
        [
            CNREAtom(X, Backward("a"), Z),
            CNREAtom(Z, B, Y),
            CNREAtom(Y, Backward("b"), W),
        ],
        [X, Y],
        ["non-empty", "search"],
    ),
}


class TestExistsByComponent:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_every_binding_equals_nested_loop(self, shape):
        atoms, bound, kinds = SHAPES[shape]
        query = CNREQuery(atoms)
        graph = emptied_graph()
        values = ["d0", "d1", "d2", "missing"]
        for stored in (graph, graph.freeze()):
            plan = TriggerMatcher(stored).join_plan(query, bound)
            assert [kind for kind, _ in _components(plan.body, plan.bound)] == kinds
            for row in product(values, repeat=len(bound)):
                expected = reference_homs(query, stored, seed=dict(zip(bound, row)))
                assert plan.exists(row) == any(True for _ in expected), row

    @settings(max_examples=150, deadline=None)
    @given(seeds)
    def test_random_bodies_equal_nested_loop(self, seed):
        rng = random.Random(seed)
        graph = random_graph(rng.randint(1, 5), rng.randint(0, 12), ALPHABET, rng)
        triples = sorted(graph.live_triples())
        for triple in rng.sample(triples, min(len(triples), rng.randint(0, 3))):
            graph.remove_edge(*triple)
        nodes = sorted(graph.nodes(), key=repr)
        terms = [X, Y, Z, W, X, Y, rng.choice(nodes)]
        expressions = [A, B, Backward("a"), Union(A, Backward("b")), Star(B)]
        atoms = [
            CNREAtom(rng.choice(terms), rng.choice(expressions), rng.choice(terms))
            for _ in range(rng.randint(1, 4))
        ]
        query = CNREQuery(atoms + [CNREAtom(X, A, Y)] * (rng.random() < 0.2))
        variables = query.variables()
        bound = [v for v in variables if rng.random() < 0.5]
        row = [rng.choice(nodes + ["missing"]) for _ in bound]
        expected = reference_homs(query, graph, seed=dict(zip(bound, row)))
        plan = TriggerMatcher(graph).join_plan(query, bound)
        assert plan.exists(row) == any(True for _ in expected)


def random_instance(rng: random.Random) -> RelationalInstance:
    schema = RelationalSchema()
    for name, arity in (("R", 2), ("S", 3), ("T", 1)):
        schema.declare(name, arity)
    instance = RelationalInstance(schema)
    for _ in range(rng.randint(0, 14)):
        add_random_fact(rng, instance)
    return instance


def add_random_fact(rng: random.Random, instance: RelationalInstance) -> None:
    name, arity = rng.choice((("R", 2), ("S", 3), ("T", 1)))
    instance.add(name, tuple(rng.choice(DOMAIN) for _ in range(arity)))


def random_body(rng: random.Random) -> ConjunctiveQuery:
    """1–3 atoms over R/2, S/3, T/1; terms repeat variables and use constants."""
    atoms = []
    for _ in range(rng.randint(1, 3)):
        name, arity = rng.choice((("R", 2), ("S", 3), ("T", 1)))
        terms = tuple(
            rng.choice(DOMAIN) if rng.random() < 0.2 else rng.choice((X, Y, Z))
            for _ in range(arity)
        )
        atoms.append(RelationalAtom(name, terms))
    return ConjunctiveQuery(atoms)


def brute_force(query: ConjunctiveQuery, instance) -> set[tuple]:
    """Every tuple combination per atom, as rows in ``query.variables()`` order."""
    variables = query.variables()
    rows = set()
    for combo in product(*(sorted(instance.tuples(a.relation)) for a in query.atoms)):
        assignment = {}
        if all(
            assignment.setdefault(term, value) == value
            if isinstance(term, Variable)
            else term == value
            for atom, tup in zip(query.atoms, combo)
            for term, value in zip(atom.terms, tup)
        ):
            rows.add(tuple(assignment[v] for v in variables))
    return rows


class TestRelationalBodies:
    @settings(max_examples=150, deadline=None)
    @given(seeds)
    def test_seeded_joins_equal_filtered_brute_force(self, seed):
        """Full joins are pinned by ``TestRelationalIndex``; here seeds."""
        rng = random.Random(seed)
        instance = random_instance(rng)
        query = random_body(rng)
        variables = query.variables()
        expected = brute_force(query, instance)
        seed_map = {v: rng.choice(DOMAIN) for v in variables if rng.random() < 0.5}
        seeded = hom_set(cq_homomorphisms(query, instance, seed=seed_map), variables)
        index = {v: i for i, v in enumerate(variables)}
        assert seeded == {
            row for row in expected
            if all(row[index[v]] == value for v, value in seed_map.items())
        }

    @settings(max_examples=150, deadline=None)
    @given(seeds)
    def test_delta_rows_are_exactly_the_new_matches(self, seed):
        rng = random.Random(seed)
        instance = random_instance(rng)
        query = random_body(rng)
        before = brute_force(query, instance)
        added: dict[str, list[tuple]] = {}
        for _ in range(rng.randint(1, 4)):
            previous = set(instance)
            add_random_fact(rng, instance)
            for relation, values in set(instance) - previous:
                added.setdefault(relation, []).append(values)
        after = brute_force(query, instance)
        body = relational_body(query, instance)
        rows = list(body.delta_rows(lambda i: added.get(body.atoms[i][0].relation)))
        assert len(rows) == len(set(rows))
        assert set(rows) == after - before


@st.composite
def pattern_cases(draw):
    """A pattern of constants and nulls (some isolated) and a small graph."""
    rng = random.Random(draw(seeds))
    graph = random_graph(rng.randint(1, 5), rng.randint(0, 10), ALPHABET, rng)
    pattern = GraphPattern(alphabet=set(ALPHABET))
    nulls = [pattern.fresh_null() for _ in range(rng.randint(0, 3))]
    nodes = nulls + sorted(graph.nodes(), key=repr)[:2] + ["c9"] * (rng.random() < 0.1)
    for _ in range(rng.randint(0, 3)):
        expr = random_nre(depth=rng.randint(0, 2), alphabet=ALPHABET, rng=rng)
        pattern.add_edge(rng.choice(nodes), expr, rng.choice(nodes))
    for null in nulls:
        pattern.add_node(null)
    return pattern, graph


class TestPatternHomomorphisms:
    @settings(max_examples=150, deadline=None)
    @given(pattern_cases())
    def test_all_homomorphisms_equal_candidate_search(self, case):
        pattern, graph = case
        expected = {
            frozenset(h.items()) for h in reference_pattern_homs(pattern, graph)
        }
        found = [frozenset(h.items()) for h in all_homomorphisms(pattern, graph)]
        assert set(found) == expected
        assert len(found) == len(expected)
        assert has_homomorphism(pattern, graph) == bool(expected)
