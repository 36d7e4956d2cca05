"""Unit tests for the compiled query engine (:mod:`repro.engine.query`)."""

import pytest

from oracles import ReferenceEngine
from oracles.reference_eval import evaluate_nre
from repro.engine.query import EvalStats, QueryEngine, default_engine
from repro.graph.automaton import automaton_holds, compile_nre
from repro.graph.database import GraphDatabase
from repro.graph.parser import parse_nre


@pytest.fixture
def graph():
    return GraphDatabase(
        edges=[
            ("u", "a", "v"),
            ("v", "a", "w"),
            ("w", "b", "x"),
            ("u", "b", "x"),
            ("x", "a", "u"),
        ]
    )


@pytest.fixture
def engine():
    return QueryEngine()


QUERIES = ["a", "a-", "()", "a . a", "a + b", "a*", "(a + b)*", "a[b]", "[a . b]*"]


class TestAgreementWithReference:
    @pytest.mark.parametrize("text", QUERIES)
    def test_pairs(self, graph, engine, text):
        expr = parse_nre(text)
        assert engine.pairs(graph, expr) == evaluate_nre(graph, expr)

    @pytest.mark.parametrize("text", QUERIES)
    def test_reachable(self, graph, engine, text):
        expr = parse_nre(text)
        reference = evaluate_nre(graph, expr)
        for node in graph.nodes():
            expected = frozenset(v for u, v in reference if u == node)
            assert engine.reachable(graph, expr, node) == expected

    @pytest.mark.parametrize("text", QUERIES)
    def test_holds(self, graph, engine, text):
        expr = parse_nre(text)
        reference = evaluate_nre(graph, expr)
        for u in graph.nodes():
            for v in graph.nodes():
                assert engine.holds(graph, expr, u, v) == ((u, v) in reference)

    def test_reference_engine_same_api(self, graph):
        reference = ReferenceEngine()
        expr = parse_nre("a . a")
        assert reference.pairs(graph, expr) == evaluate_nre(graph, expr)
        assert reference.holds(graph, expr, "u", "w")
        assert reference.reachable(graph, expr, "u") == {"w"}


class TestAbsentNodes:
    """Sources/targets outside V have no answers — even for ε-like queries."""

    @pytest.mark.parametrize("text", ["()", "a*", "a"])
    def test_absent_source(self, graph, engine, text):
        expr = parse_nre(text)
        assert engine.reachable(graph, expr, "zz") == frozenset()
        assert not engine.holds(graph, expr, "zz", "zz")
        assert not engine.holds(graph, expr, "u", "zz")

    def test_automaton_reachable_matches(self, graph):
        from repro.graph.automaton import automaton_reachable

        assert automaton_reachable(graph, parse_nre("a*"), "zz") == frozenset()


class TestAnswersOver:
    def test_restricts_to_domain(self, graph, engine):
        expr = parse_nre("a . a")
        reference = evaluate_nre(graph, expr)
        domain = {"u", "w"}
        expected = frozenset(
            (a, b) for a, b in reference if a in domain and b in domain
        )
        assert engine.answers_over(graph, expr, domain) == expected

    def test_domain_nodes_outside_graph_ignored(self, graph, engine):
        assert engine.answers_over(graph, parse_nre("()"), {"u", "nope"}) == {
            ("u", "u")
        }


class TestWholeRelationReads:
    def test_answers_over_caches_its_answers_not_source_sets(self, graph):
        """One relation per (graph, expr, domain); ``reachable`` later searches."""
        stats = EvalStats()
        engine = QueryEngine(stats=stats)
        expr = parse_nre("a*")
        for _ in range(2):
            assert engine.answers_over(graph, expr, {"u", "w"}) == {
                ("u", "u"), ("u", "w"), ("w", "w")
            }
        assert stats.relations_evaluated == 1
        assert engine.answers_over(graph, expr, ["v", "w"]) == {
            ("v", "v"), ("v", "w"), ("w", "w")
        }
        assert stats.relations_evaluated == 2
        assert stats.batched_source_queries == 6
        assert engine.reachable(graph, expr, "u") == {"u", "v", "w"}
        assert stats.automata_compiled == 1

    def test_reachable_after_pairs_answers_every_source_from_the_relation(
        self, graph
    ):
        """Sources with no row, and sources outside V, read as empty."""
        stats = EvalStats()
        engine = QueryEngine(stats=stats)
        expr = parse_nre("a . a")
        assert engine.pairs(graph, expr) == {("u", "w"), ("x", "v")}
        answers = {
            source: engine.reachable(graph, expr, source)
            for source in ["x", "zz", "v", "u", "x"]
        }
        assert answers == {
            "x": {"v"}, "zz": frozenset(), "v": frozenset(), "u": {"w"}
        }
        assert stats.relations_evaluated == 1
        assert stats.automata_compiled == 0

    def test_reads_trace_relation_and_decode_spans(self, graph, engine):
        from repro import telemetry

        telemetry.set_enabled(True)
        try:
            with telemetry.span("test.root") as root:
                engine.pairs(graph, parse_nre("a*"))
                engine.answers_over(graph, parse_nre("a . b"), {"u", "x"})
        finally:
            telemetry.set_enabled(None)
        assert [child.name for child in root.children] == [
            "query.relation", "query.decode",  # pairs
            "query.relation", "query.decode",  # answers_over
        ]


class TestCrossCandidateCache:
    def test_content_equal_graphs_share_state(self, engine):
        expr = parse_nre("a . a")
        first = GraphDatabase(edges=[("u", "a", "v"), ("v", "a", "w")])
        second = GraphDatabase(edges=[("u", "a", "v"), ("v", "a", "w")])
        engine.pairs(first, expr)
        misses = engine.stats.graph_cache_misses
        engine.pairs(second, expr)
        assert engine.stats.graph_cache_misses == misses  # served from cache
        assert engine.stats.graph_cache_hits >= 1

    def test_mutated_graphs_are_not_cached(self, engine):
        expr = parse_nre("a")
        g = GraphDatabase(edges=[("u", "a", "v")])
        g.remove_edge("u", "a", "v")
        assert g.fingerprint() is None
        assert engine.pairs(g, expr) == frozenset()
        assert engine.stats.uncacheable_graphs >= 1

    def test_mutation_after_caching_is_safe(self, engine):
        expr = parse_nre("a")
        g = GraphDatabase(edges=[("u", "a", "v")])
        assert engine.pairs(g, expr) == {("u", "v")}
        g.rename_node("v", "z")  # destructive: fingerprint gone
        assert g.fingerprint() is None
        assert engine.pairs(g, expr) == {("u", "z")}
        # A fresh graph with the ORIGINAL content still gets the old answer.
        fresh = GraphDatabase(edges=[("u", "a", "v")])
        assert engine.pairs(fresh, expr) == {("u", "v")}

    def test_append_only_growth_changes_fingerprint(self, engine):
        expr = parse_nre("a")
        g = GraphDatabase(edges=[("u", "a", "v")])
        assert engine.pairs(g, expr) == {("u", "v")}
        g.add_edge("v", "a", "w")
        assert engine.pairs(g, expr) == {("u", "v"), ("v", "w")}

    def test_lru_eviction_bounds_memory(self):
        engine = QueryEngine(max_graphs=2)
        expr = parse_nre("a")
        for i in range(5):
            engine.pairs(GraphDatabase(edges=[(f"u{i}", "a", f"v{i}")]), expr)
        assert len(engine._cache) <= 2


class TestStats:
    def test_counters_populate(self, graph):
        stats = EvalStats()
        engine = QueryEngine(stats=stats)
        expr = parse_nre("a*[b]")
        engine.pairs(graph, expr)
        # A whole relation runs the algebra: no automaton, no nested test.
        assert stats.relations_evaluated == 1
        assert stats.automata_compiled == 0
        assert stats.nested_tests == 0
        engine.holds(graph, expr, "u", "v")  # served by the cached relation
        single = parse_nre("a[b]")
        engine.holds(graph, single, "u", "v")  # the product search
        assert stats.all_pairs_queries == 1
        assert stats.single_pair_queries == 2
        assert stats.automata_compiled == 1
        assert stats.automaton_states == compile_nre(single).state_count
        assert stats.nested_tests > 0
        assert "all_pairs_queries=1" in stats.summary()

    def test_nested_test_memoisation(self, graph):
        stats = EvalStats()
        engine = QueryEngine(stats=stats)
        expr = parse_nre("a*[b]")
        for node in graph.nodes():
            engine.reachable(graph, expr, node)
        # Every node is tested at most once; repeats hit the memo table.
        assert stats.nested_tests <= graph.node_count()


class TestSinglePairEarlyExit:
    def test_holds_uses_cached_broader_results(self, graph):
        stats = EvalStats()
        engine = QueryEngine(stats=stats)
        expr = parse_nre("a . a")
        engine.pairs(graph, expr)
        assert engine.holds(graph, expr, "u", "w")  # via the pairs cache
        assert engine.holds(graph, expr, "u", "u") is False

    def test_automaton_holds_function(self, graph):
        assert automaton_holds(graph, parse_nre("a . a"), "u", "w")
        assert not automaton_holds(graph, parse_nre("a . a"), "w", "u")


class TestDefaultEngine:
    def test_default_engine_is_shared(self):
        assert default_engine() is default_engine()

    def test_live_engines_is_the_one_default_engine(self):
        from repro.engine.query import live_engines

        assert live_engines() == [default_engine()]

    def test_default_engine_takes_no_backend(self):
        with pytest.raises(TypeError):
            default_engine("csr")
