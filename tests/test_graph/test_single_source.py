"""Single-source and single-pair NRE reads through the relation algebra.

``nre_reachable``, ``nre_holds`` and :meth:`QueryEngine.reachable` /
:meth:`QueryEngine.holds` push one source into the expression's leftmost
operand.  Every read here is checked against the set-algebraic oracle,
source by source, so a restriction that drops or invents a row shows.
"""

import gc
import pickle

import pytest

from oracles.reference_eval import evaluate_nre
from repro.engine.query import EvalStats, QueryEngine
from repro.graph.database import GraphDatabase
from repro.graph.eval import evaluate_relation, nre_holds, nre_reachable
from repro.graph.parser import parse_nre

EXPRESSIONS = [
    "a",
    "a-",
    "()",
    "a . a",
    "a + b",
    "a*",
    "(a + b)*",
    "[a]",
    "a[b]",
    "b . b-",
    "a . (b* + a*) . b",
    "f . f*[h] . f- . (f-)*",
]


@pytest.fixture
def chain():
    return GraphDatabase(
        edges=[("u", "a", "v"), ("v", "a", "w"), ("w", "b", "x"), ("u", "b", "x")]
    )


def _rows(reference, source):
    return frozenset(v for u, v in reference if u == source)


class TestAgreementWithReference:
    """Every source's row and every pair agree with the oracle."""

    @pytest.mark.parametrize("text", EXPRESSIONS)
    def test_reachable_and_holds(self, chain, text):
        expr = parse_nre(text)
        reference = evaluate_nre(chain, expr)
        for u in chain.nodes():
            assert nre_reachable(chain, expr, u) == _rows(reference, u), u
            for v in chain.nodes():
                assert nre_holds(chain, expr, u, v) == ((u, v) in reference)

    @pytest.mark.parametrize("text", EXPRESSIONS)
    def test_engine_probes(self, chain, text):
        # One engine answers every probe, so later probes read the
        # subexpression relations earlier ones cached.
        engine = QueryEngine()
        expr = parse_nre(text)
        reference = evaluate_nre(chain, expr)
        for u in chain.nodes():
            for v in chain.nodes():
                assert engine.holds(chain, expr, u, v) == ((u, v) in reference)
            assert engine.reachable(chain, expr, u) == _rows(reference, u), u

    def test_on_paper_graphs(self):
        from repro.scenarios.flights import example_query, graph_g1, graph_g2

        q = example_query()
        for graph in (graph_g1(), graph_g2()):
            reference = evaluate_nre(graph, q)
            engine = QueryEngine()
            for u in graph.nodes():
                assert engine.reachable(graph, q, u) == _rows(reference, u), u
                assert nre_reachable(graph, q, u) == _rows(reference, u), u


class TestSingleSource:
    def test_reachable_from_source(self, chain):
        assert nre_reachable(chain, parse_nre("a . a"), "u") == {"w"}

    def test_reachable_star_includes_self(self, chain):
        assert "u" in nre_reachable(chain, parse_nre("a*"), "u")

    def test_reachable_empty(self, chain):
        assert nre_reachable(chain, parse_nre("zzz"), "u") == frozenset()

    def test_source_outside_the_graph(self, chain):
        assert nre_reachable(chain, parse_nre("a*"), "nowhere") == frozenset()
        assert QueryEngine().reachable(chain, parse_nre("a*"), "nowhere") == frozenset()
        assert not nre_holds(chain, parse_nre("()"), "nowhere", "nowhere")

    def test_star_row_only_walks_the_reachable_space(self):
        g = GraphDatabase(
            edges=[("u", "a", "v")] + [(f"m{i}", "a", f"m{i+1}") for i in range(50)]
        )
        relation = evaluate_relation(g, parse_nre("a*"), {"u"})
        assert set(relation.succ) <= {"u", "v"}
        assert relation.targets(["u"])["u"] == {"u", "v"}


class TestSharedRelations:
    def test_nested_test_evaluated_once_across_probes(self):
        # The same nested test is relevant at many nodes.
        edges = [(f"n{i}", "a", f"n{i+1}") for i in range(20)]
        edges += [(f"n{i}", "h", "hotel") for i in range(0, 20, 2)]
        g = GraphDatabase(edges=edges)
        expr = parse_nre("a*[h]")
        reference = evaluate_nre(g, expr)
        stats = EvalStats()
        engine = QueryEngine(stats=stats)
        for u in g.nodes():
            assert engine.reachable(g, expr, u) == _rows(reference, u), u
        assert stats.relations_evaluated == g.node_count()
        [state] = engine._cache.values()
        assert set(state.relations) == {parse_nre("a"), parse_nre("h")}

    def test_equal_expressions_share_one_entry(self, chain):
        # Relations are keyed by NRE value: a re-parsed expression reads
        # what the first parse cached and adds no entry.
        engine = QueryEngine()
        engine.reachable(chain, parse_nre("a*[b]"), "u")
        [state] = engine._cache.values()
        cached = dict(state.relations)
        engine.reachable(chain, parse_nre("a*[b]"), "v")
        assert state.relations.keys() == cached.keys()
        assert all(state.relations[k] is cached[k] for k in cached)

    def test_pickled_expression_hits_the_same_entries(self, chain):
        engine = QueryEngine()
        expr = parse_nre("a . b*")
        engine.reachable(chain, expr, "u")
        [state] = engine._cache.values()
        keys = set(state.relations)
        restored = pickle.loads(pickle.dumps(expr))
        assert restored == expr and hash(restored) == hash(expr)
        assert engine.reachable(chain, restored, "u") == nre_reachable(chain, expr, "u")
        assert set(state.relations) == keys

    def test_no_stale_relations_across_reparses(self):
        # Alternate two structurally different nested tests through one
        # engine state while collecting garbage: an entry keyed by object
        # identity would serve one expression the other's relation.
        edges = [(f"n{i}", "a", f"n{i+1}") for i in range(6)]
        edges += [("n2", "h", "hotel"), ("n4", "f", "flight")]
        g = GraphDatabase(edges=edges)
        engine = QueryEngine()
        for _ in range(20):
            for expr_text in ("a*[h]", "a*[f]"):
                expr = parse_nre(expr_text)
                reference = evaluate_nre(g, expr)
                for u in g.nodes():
                    assert engine.reachable(g, expr, u) == _rows(reference, u)
                del expr
                gc.collect()

    def test_pairs_after_probes_agree(self, chain):
        # A whole-relation read after probes decodes the same answers.
        engine = QueryEngine()
        expr = parse_nre("a*[b] . b")
        for u in chain.nodes():
            engine.reachable(chain, expr, u)
        assert engine.pairs(chain, expr) == evaluate_nre(chain, expr)
