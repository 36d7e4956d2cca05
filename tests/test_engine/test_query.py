"""Unit tests for the compiled query engine (:mod:`repro.engine.query`)."""

import pytest

from oracles import ReferenceEngine
from oracles.reference_eval import evaluate_nre
from repro.engine.query import EvalStats, QueryEngine, default_engine
from repro.graph.database import GraphDatabase
from repro.graph.eval import nre_holds, nre_reachable
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

    def test_nre_reachable_matches(self, graph):
        assert nre_reachable(graph, parse_nre("a*"), "zz") == frozenset()


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
        """One relation per (graph, expr, domain); ``reachable`` evaluates its row."""
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
        assert stats.relations_evaluated == 3
        assert stats.single_source_queries == 1

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
        assert stats.single_source_queries == 5

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

    def test_rebind_drops_relations_of_a_mutated_graph(self, engine):
        """A content-equal graph never reads the cached state's old indexes.

        Probes cache the label relations of ``a*[b]`` (the star's body and
        the nested test), which share the first graph's index sets.  That
        graph is then mutated in place; a fresh graph with its original
        content hits the cached state and must answer from its own indexes.
        """
        edges = [("u", "a", "v"), ("v", "a", "w"), ("w", "b", "x"), ("v", "b", "x")]
        expr = parse_nre("a*[b]")
        first = GraphDatabase(edges=edges)
        assert engine.reachable(first, expr, "u") == {"v", "w"}
        first.remove_edge("v", "a", "w")
        first.rename_node("x", "y")
        first.remove_edge("v", "b", "y")
        assert first.fingerprint() is None
        second = GraphDatabase(edges=edges)
        hits = engine.stats.graph_cache_hits
        reference = evaluate_nre(second, expr)
        for u in second.nodes():
            expected = frozenset(v for s, v in reference if s == u)
            assert engine.reachable(second, expr, u) == expected, u
            for v in second.nodes():
                assert engine.holds(second, expr, u, v) == ((u, v) in reference)
        assert engine.stats.graph_cache_hits > hits

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
        assert stats.relations_evaluated == 1
        engine.holds(graph, expr, "u", "v")  # served by the cached relation
        assert stats.relations_evaluated == 1
        single = parse_nre("a[b]")
        engine.holds(graph, single, "u", "v")  # the source's row
        assert stats.all_pairs_queries == 1
        assert stats.single_pair_queries == 2
        assert stats.single_source_queries == 0
        assert stats.relations_evaluated == 2
        assert "all_pairs_queries=1" in stats.summary()

    def test_probes_share_subexpression_relations(self, graph):
        """One row per source; the star's body and the test are evaluated once."""
        stats = EvalStats()
        engine = QueryEngine(stats=stats)
        expr = parse_nre("a*[b]")
        for node in graph.nodes():
            engine.reachable(graph, expr, node)
        assert stats.relations_evaluated == graph.node_count()
        [state] = engine._cache.values()
        assert set(state.relations) == {parse_nre("a"), parse_nre("b")}


class TestSinglePair:
    def test_holds_uses_cached_broader_results(self, graph):
        stats = EvalStats()
        engine = QueryEngine(stats=stats)
        expr = parse_nre("a . a")
        engine.pairs(graph, expr)
        assert engine.holds(graph, expr, "u", "w")  # via the pairs cache
        assert engine.holds(graph, expr, "u", "u") is False
        assert stats.relations_evaluated == 1

    def test_holds_evaluates_each_source_once(self, graph):
        stats = EvalStats()
        engine = QueryEngine(stats=stats)
        expr = parse_nre("a . a")
        verdicts = {v: engine.holds(graph, expr, "u", v) for v in graph.nodes()}
        assert {v for v, verdict in verdicts.items() if verdict} == {"w"}
        assert stats.single_pair_queries == graph.node_count()
        assert stats.single_source_queries == 0
        assert stats.relations_evaluated == 1

    def test_nre_holds_function(self, graph):
        assert nre_holds(graph, parse_nre("a . a"), "u", "w")
        assert not nre_holds(graph, parse_nre("a . a"), "w", "u")


class TestDefaultEngine:
    def test_default_engine_is_shared(self):
        assert default_engine() is default_engine()

    def test_live_engines_is_the_one_default_engine(self):
        from repro.engine.query import live_engines

        assert live_engines() == [default_engine()]

    def test_default_engine_takes_no_backend(self):
        with pytest.raises(TypeError):
            default_engine("csr")
