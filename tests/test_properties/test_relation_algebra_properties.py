"""Differential properties of the successor-map relation algebra.

Every read of :class:`~repro.engine.query.QueryEngine` runs the algebra
of :mod:`repro.graph.eval`: whole relations for ``pairs`` and
``answers_over``, one source pushed into the leftmost operand for
``reachable`` and ``holds``.  Each read — through the engine, and
:func:`evaluate_relation` with a source set pushed into it — must agree
with the seed's set-algebraic pair-set oracle
(``oracles.reference_eval``), which shares no code with it.

Expressions are built from the raw AST constructors, so the shapes the
smart constructors would simplify away — ε, nested stars, unions with ε,
nests inside stars, backward labels — reach the evaluators as written.
Pinned examples put ``r* · s`` over a graph whose condensation chains
multi-node components, once for each shape that carries ``⟦s⟧`` up the
condensation and once for each right side that keeps the closure, and
``r · s*`` over the same graph.
Graphs are read as built (with removed edges, whose emptied index rows
stay behind), frozen, and reloaded from a snapshot.  Source sets and
domains include nodes absent from the graph.

Also pinned: bulk's pass shape — an 800-node medlit (and social) chase,
frozen, read by the family's five workload queries — against the
oracle, with the engine's work counters.
"""

import os
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles.reference_eval import evaluate_nre as oracle_pairs
from repro.chase.relational_chase import chase_relational
from repro.engine.query import EvalStats, QueryEngine
from repro.graph.database import GraphDatabase
from repro.graph.eval import evaluate_relation
from repro.graph.nre import Backward, Concat, Epsilon, Label, Nest, Star, Union
from repro.graph.parser import parse_nre
from repro.graph.snapshot import load_snapshot, save_snapshot
from repro.scenarios.scale import (
    GeneratorConfig,
    generate_instance,
    scale_setting,
    workload_queries,
)

ALPHABET = ("a", "b", "c")
NODES = tuple(f"n{i}" for i in range(7))
ABSENT = ("ghost", 7)

atoms = st.one_of(
    st.sampled_from([Label(name) for name in ALPHABET]),
    st.sampled_from([Backward(name) for name in ALPHABET]),
    st.just(Epsilon()),
)
nres = st.recursive(
    atoms,
    lambda inner: st.one_of(
        st.builds(Union, inner, inner),
        st.builds(Concat, inner, inner),
        st.builds(Star, inner),
        st.builds(Nest, inner),
    ),
    max_leaves=8,
)
edges = st.tuples(
    st.sampled_from(NODES), st.sampled_from(ALPHABET), st.sampled_from(NODES)
)


@st.composite
def graphs(draw):
    """A graph over a few nodes; some edges added and removed again."""
    graph = GraphDatabase(alphabet=ALPHABET)
    for node in draw(st.lists(st.sampled_from(NODES), max_size=3)):
        graph.add_node(node)
    added = draw(st.lists(edges, max_size=14))
    for source, label, target in added:
        graph.add_edge(source, label, target)
    if added:
        for source, label, target in draw(st.lists(st.sampled_from(added), max_size=3)):
            graph.remove_edge(source, label, target)
    return graph


def forms(graph):
    """``graph`` as built, frozen, and reloaded from a snapshot."""
    yield "dict", graph
    frozen = graph.freeze()
    yield "frozen", frozen
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "graph.snap")
        save_snapshot(frozen, path)
        yield "snapshot", load_snapshot(path)


def rebuilt(graph):
    """A journal-only copy of ``graph``: same content, cacheable."""
    copy = GraphDatabase(alphabet=ALPHABET)
    for node in graph.nodes():
        copy.add_node(node)
    for edge in graph.edges():
        copy.add_edge(edge.source, edge.label, edge.target)
    assert copy.fingerprint() is not None
    return copy


def oracle_targets(relation, source):
    return frozenset(v for u, v in relation if u == source)


probes = st.lists(st.sampled_from(NODES + ABSENT), max_size=6)
STAR_SHAPES = [
    Star(Star(Label("a"))),
    Star(Nest(Star(Label("b")))),
    Star(Union(Label("a"), Epsilon())),
    Concat(Star(Concat(Label("a"), Nest(Backward("b")))), Label("c")),
    Nest(Epsilon()),
    Concat(Epsilon(), Star(Backward("a"))),
]
CYCLE = GraphDatabase(
    edges=[("n0", "a", "n1"), ("n1", "a", "n2"), ("n2", "a", "n0"),
           ("n2", "b", "n3"), ("n3", "c", "n3"), ("n1", "b", "n1")]
)
WALK_SHAPES = [  # r* · s with ⟦s⟧ not reflexive: carried up the condensation
    Concat(Star(Label("a")), Label("b")),
    Concat(Star(Backward("a")), Label("b")),
    Concat(Star(Union(Label("a"), Label("b"))), Label("c")),
    Star(Concat(Star(Label("a")), Label("b"))),
]
CLOSURE_SHAPES = [  # r* · s whose right side keeps the closure
    Concat(Star(Label("a")), Star(Label("b"))),
    Concat(Star(Label("a")), Epsilon()),
    Concat(Star(Label("a")), Nest(Label("b"))),
]
STAR_RIGHT_SHAPES = [  # r · s*: middles already in the row are skipped
    Concat(Label("b"), Star(Label("a"))),
    Concat(Label("c"), Star(Union(Backward("a"), Label("b")))),
    Concat(Union(Label("b"), Epsilon()), Star(Backward("a"))),
]
# Under a (and a-) the components {n0, n1} and {n2, n3} chain into the
# sink n4; under a + b, n0..n4 are one component.  Every member has its
# own b and c rows, so each row and each carried set shows in an answer.
CONDENSED = GraphDatabase(
    edges=[("n0", "a", "n1"), ("n1", "a", "n0"), ("n1", "a", "n2"),
           ("n2", "a", "n3"), ("n3", "a", "n2"), ("n3", "a", "n4"),
           ("n0", "b", "n5"), ("n1", "b", "n6"), ("n2", "b", "n0"),
           ("n3", "b", "n6"), ("n4", "b", "n1"),
           ("n0", "c", "n3"), ("n1", "c", "n4"), ("n2", "c", "n6"),
           ("n3", "c", "n5"), ("n5", "c", "n5")]
)


def condensation_examples(*probe_lists):
    """Pin every r* · s and r · s* shape on ``CONDENSED``, with each probe list."""
    extras = [(probe_list,) for probe_list in probe_lists] or [()]

    def decorate(test):
        for expr in WALK_SHAPES + CLOSURE_SHAPES + STAR_RIGHT_SHAPES:
            for extra in extras:
                test = example(CONDENSED, expr, *extra)(test)
        return test
    return decorate


class TestDifferential:
    @settings(max_examples=120, deadline=None)
    @given(graphs(), nres)
    @example(CYCLE, STAR_SHAPES[0])
    @example(CYCLE, STAR_SHAPES[1])
    @example(CYCLE, STAR_SHAPES[2])
    @example(CYCLE, STAR_SHAPES[3])
    @condensation_examples()
    def test_pairs(self, graph, expr):
        expected = oracle_pairs(graph, expr)
        for name, form in forms(graph):
            assert QueryEngine().pairs(form, expr) == expected, name

    @settings(max_examples=120, deadline=None)
    @given(graphs(), nres, probes)
    @example(CYCLE, STAR_SHAPES[4], ["n0", "ghost"])
    @example(CYCLE, STAR_SHAPES[5], ["n3", 7, "n2"])
    def test_reachable(self, graph, expr, sources):
        relation = oracle_pairs(graph, expr)
        expected = {s: oracle_targets(relation, s) for s in sources}
        for name, form in forms(graph):
            engine = QueryEngine()
            for source in sources:
                found = engine.reachable(form, expr, source)
                assert found == expected[source], (name, source)

    @settings(max_examples=120, deadline=None)
    @given(graphs(), nres, probes)
    @example(CYCLE, STAR_SHAPES[3], ["n0", "n1", "n3", "ghost"])
    @condensation_examples(["n0", "n2", "n4", "n5", "n6", "ghost"])
    def test_answers_over(self, graph, expr, domain):
        members = set(domain)
        expected = frozenset(
            (u, v) for u, v in oracle_pairs(graph, expr)
            if u in members and v in members
        )
        for name, form in forms(graph):
            assert QueryEngine().answers_over(form, expr, domain) == expected, name

    @settings(max_examples=80, deadline=None)
    @given(graphs(), nres, probes)
    @condensation_examples(["n0", "n4", "ghost"], ["n2", "n5"], ["n3", "n6"])
    def test_restricted_relation_rows(self, graph, expr, sources):
        """Pushing sources into the leftmost operand keeps their rows exact."""
        relation = oracle_pairs(graph, expr)
        present = {s for s in sources if s in graph}
        rows = evaluate_relation(graph, expr, present).targets(present)
        assert rows == {s: oracle_targets(relation, s) for s in present}

    @settings(max_examples=60, deadline=None)
    @given(graphs(), nres)
    def test_reads_after_pairs_use_the_cached_relation(self, graph, expr):
        """``reachable`` and ``holds`` after ``pairs`` evaluate nothing new."""
        graph = rebuilt(graph)  # removals void the fingerprint the cache keys on
        relation = oracle_pairs(graph, expr)
        stats = EvalStats()
        engine = QueryEngine(stats=stats)
        engine.pairs(graph, expr)
        for source in graph.nodes():
            assert engine.reachable(graph, expr, source) == oracle_targets(relation, source)
            for target in NODES:
                assert engine.holds(graph, expr, source, target) == (
                    (source, target) in relation
                )
        assert stats.relations_evaluated == 1


class TestBulkPassShape:
    """chase → freeze → five ``pairs`` on an 800-node tenant, as bulk runs it."""

    @pytest.mark.parametrize("family", ["medlit", "social"])
    def test_800_node_pairs_match_the_oracle(self, family):
        setting = scale_setting(family)
        instance = generate_instance(
            GeneratorConfig(family=family, nodes=800, seed=1)
        )
        chased = chase_relational(
            setting.st_tgds, setting.egds(), instance, alphabet=setting.alphabet
        )
        graph = chased.expect_graph()
        frozen = graph.freeze()
        engine = QueryEngine()
        for text in workload_queries(family):
            query = parse_nre(text)
            answers = engine.pairs(frozen, query)
            assert answers, text
            assert answers == oracle_pairs(graph, query), text
        assert engine.stats.relations_evaluated == 5
