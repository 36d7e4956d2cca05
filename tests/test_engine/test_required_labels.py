"""Required labels: the labels every word of an NRE uses.

:func:`repro.graph.nre.required_labels` lets
:class:`~repro.engine.matcher.TriggerMatcher` answer a body with no rows
when one of its atoms needs a label the graph has no edge of.  Pinned
here against code it does not share:

* on random NREs and graphs, a missing required label leaves the
  set-algebraic ``oracles.reference_eval.evaluate_nre`` empty;
* on random bodies over graphs that lack some labels (never drawn, or
  drawn and then removed), ``TriggerMatcher.matches`` and
  ``pair_matches`` equal the nested-loop ``oracles.cnre_search``;
* nests, unions and stars by hand: ``a . [b]`` needs ``b``, ``a + b``
  with only ``a`` absent is not empty, and ``a*`` needs nothing.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles.cnre_search import cnre_homomorphisms as reference_homs
from oracles.reference_eval import evaluate_nre
from repro.engine.matcher import TriggerMatcher
from repro.graph.cnre import CNREAtom, CNREQuery
from repro.graph.database import GraphDatabase
from repro.graph.parser import parse_nre
from repro.graph.nre import required_labels
from repro.relational.query import Variable
from repro.scenarios.generators import random_graph, random_nre

X, Y, Z = Variable("x"), Variable("y"), Variable("z")
ALPHABET = ("a", "b", "c")
seeds = st.integers(min_value=0, max_value=10**6)


def lacking_graph(rng: random.Random) -> GraphDatabase:
    """A random graph with no edge of some labels: some are never drawn,
    and the edges of one more may be removed, leaving emptied sets."""
    present = tuple(label for label in ALPHABET if rng.random() < 0.6) or ("a",)
    graph = random_graph(rng.randint(1, 5), rng.randint(0, 12), present, rng)
    if rng.random() < 0.4:
        gone = rng.choice(present)
        graph.forward_index(gone)
        graph.backward_index(gone)
        for triple in [t for t in graph.live_triples() if t[1] == gone]:
            graph.remove_edge(*triple)
    return graph


def rows(matches, variables) -> list[tuple]:
    """The matches as value rows, sorted."""
    return sorted((tuple(h[v] for v in variables) for h in matches), key=repr)


def absent(graph: GraphDatabase) -> set[str]:
    return {label for label in ALPHABET if not graph.label_count(label)}


class TestRequiredLabels:
    @pytest.mark.parametrize(
        "text, labels",
        [
            ("a", {"a"}),
            ("a-", {"a"}),
            ("()", set()),
            ("a . b-", {"a", "b"}),
            ("a . [b]", {"a", "b"}),
            ("[a . b*]", {"a"}),
            ("a + b", set()),
            ("a . b + b . c", {"b"}),
            ("a*", set()),
            ("(a . b)* . c", {"c"}),
        ],
    )
    def test_by_hand(self, text, labels):
        assert required_labels(parse_nre(text)) == labels

    @settings(max_examples=300, deadline=None)
    @given(seeds)
    def test_a_missing_required_label_empties_the_relation(self, seed):
        rng = random.Random(seed)
        expr = random_nre(depth=rng.randint(0, 3), alphabet=ALPHABET, rng=rng)
        graph = lacking_graph(rng)
        needed = required_labels(expr)
        labels = {node.name for node in expr.walk() if hasattr(node, "name")}
        assert needed <= labels
        if needed & absent(graph):
            assert evaluate_nre(graph, expr) == frozenset()


class TestMatcherOnLackingGraphs:
    @settings(max_examples=200, deadline=None)
    @given(seeds)
    def test_random_bodies_equal_nested_loop(self, seed):
        rng = random.Random(seed)
        graph = lacking_graph(rng)
        nodes = sorted(graph.nodes(), key=repr)
        terms = [X, Y, Z, X, Y, rng.choice(nodes)]
        atoms = [
            CNREAtom(
                rng.choice(terms),
                random_nre(depth=rng.randint(0, 2), alphabet=ALPHABET, rng=rng),
                rng.choice(terms),
            )
            for _ in range(rng.randint(1, 3))
        ]
        query = CNREQuery(atoms + [CNREAtom(X, parse_nre("a*"), Y)])
        variables = query.variables()
        expected = rows(reference_homs(query, graph), variables)
        for stored in (graph, graph.freeze()):
            matcher = TriggerMatcher(stored)
            assert rows(matcher.matches(query), variables) == expected
            pairs = {(row[0], row[-1]) for row in expected}
            assert matcher.pair_matches(query, variables[0], variables[-1]) == pairs

    @pytest.mark.parametrize(
        "text, empty",
        [
            ("b . [c]", True),  # the nest needs c
            ("b . [b-]", False),
            ("a + b", False),  # only a is absent
            ("(a . c) + b", False),
            ("a*", False),  # a star needs nothing
            ("b . (a . c)*", False),
            ("c . b*", True),
            ("b- . (a + c)", True),  # b edges exist, neither a nor c does
        ],
    )
    def test_nests_unions_and_stars(self, text, empty):
        graph = GraphDatabase(
            alphabet=set(ALPHABET), edges=[("u", "b", "v"), ("v", "c", "u")]
        )
        graph.remove_edge("v", "c", "u")  # c keeps emptied adjacency sets; no a
        query = CNREQuery([CNREAtom(X, parse_nre(text), Y)])
        found = rows(TriggerMatcher(graph).matches(query), (X, Y))
        assert found == rows(reference_homs(query, graph), (X, Y))
        assert (not found) == empty

    def test_a_missing_label_asks_no_engine_for_a_relation(self):
        class Refusing:
            def pairs(self, graph, expr):
                raise AssertionError(f"asked for {expr}")

        graph = GraphDatabase(alphabet=set(ALPHABET), edges=[("u", "a", "v")])
        query = CNREQuery(
            [CNREAtom(X, parse_nre("a . a*"), Y), CNREAtom(Y, parse_nre("b . c-"), Z)]
        )
        matcher = TriggerMatcher(graph, engine=Refusing())
        assert list(matcher.matches(query)) == []
        assert matcher.pair_matches(query, X, Z) == set()
