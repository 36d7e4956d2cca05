"""Differential suite for the storage backends (dict vs interned CSR).

Random mutation/query interleavings drive a dict-backed graph; at every
observation point the graph is frozen and the two backends must agree on
every observable — nodes, edges, adjacency in both directions, journal,
fingerprint — and the compiled query engine must return identical answers
and share fingerprint-keyed cache entries across them.  Freeze/thaw and
snapshot save/load round-trips are asserted exact.
"""

import os
import random
import tempfile
from array import array
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro import kernels

from repro.engine.query import QueryEngine
from repro.errors import FrozenGraphError
from repro.graph.backends import CsrBackend, DictBackend, StorageBackend
from repro.graph.database import GraphDatabase
from repro.graph.snapshot import load_snapshot, save_snapshot
from repro.patterns.pattern import Null
from repro.scenarios.generators import random_nre

LABELS = ("a", "b", "c")
NODES = tuple(f"n{i}" for i in range(6)) + tuple(Null(f"N{i}") for i in range(4))


@st.composite
def mutation_script(draw):
    """A random interleaving of graph mutations over a small universe."""
    steps = draw(
        st.lists(
            st.one_of(
                st.tuples(
                    st.just("add_edge"),
                    st.sampled_from(NODES),
                    st.sampled_from(LABELS),
                    st.sampled_from(NODES),
                ),
                st.tuples(st.just("add_node"), st.sampled_from(NODES)),
                st.tuples(
                    st.just("remove_edge"),
                    st.sampled_from(NODES),
                    st.sampled_from(LABELS),
                    st.sampled_from(NODES),
                ),
                st.tuples(
                    st.just("rename_node"),
                    st.sampled_from(NODES),
                    st.sampled_from(NODES),
                ),
            ),
            min_size=0,
            max_size=40,
        )
    )
    return steps


def apply_script(steps) -> GraphDatabase:
    graph = GraphDatabase(alphabet=LABELS)
    for step in steps:
        getattr(graph, step[0])(*step[1:])
    return graph


def assert_observably_equal(dict_graph: GraphDatabase, csr_graph: GraphDatabase):
    """Every read observable must agree between the two backends."""
    assert csr_graph.nodes() == dict_graph.nodes()
    assert csr_graph.edges() == dict_graph.edges()
    assert csr_graph.node_count() == dict_graph.node_count()
    assert csr_graph.edge_count() == dict_graph.edge_count()
    assert csr_graph.alphabet == dict_graph.alphabet
    assert csr_graph.version == dict_graph.version
    assert csr_graph.fingerprint() == dict_graph.fingerprint()
    assert csr_graph == dict_graph and dict_graph == csr_graph
    for node in NODES:
        assert (node in csr_graph) == (node in dict_graph)
        assert csr_graph.edges_from(node) == dict_graph.edges_from(node)
        assert csr_graph.edges_to(node) == dict_graph.edges_to(node)
        assert csr_graph.incident_edges(node) == dict_graph.incident_edges(node)
        for lab in LABELS:
            assert csr_graph.successors(node, lab) == dict_graph.successors(node, lab)
            assert csr_graph.predecessors(node, lab) == dict_graph.predecessors(
                node, lab
            )
            assert csr_graph.has_successor(node, lab) == dict_graph.has_successor(
                node, lab
            )
            assert csr_graph.has_predecessor(node, lab) == dict_graph.has_predecessor(
                node, lab
            )
    for lab in LABELS + ("zz",):
        assert csr_graph.label_count(lab) == dict_graph.label_count(lab)
        assert set(csr_graph.iter_label_pairs(lab)) == set(
            dict_graph.iter_label_pairs(lab)
        )
        assert csr_graph.edges_with_label(lab) == dict_graph.edges_with_label(lab)
        fwd_c, fwd_d = csr_graph.forward_index(lab), dict_graph.forward_index(lab)
        assert {u: frozenset(vs) for u, vs in fwd_c.items() if vs} == {
            u: frozenset(vs) for u, vs in fwd_d.items() if vs
        }
        bwd_c, bwd_d = csr_graph.backward_index(lab), dict_graph.backward_index(lab)
        assert {u: frozenset(vs) for u, vs in bwd_c.items() if vs} == {
            u: frozenset(vs) for u, vs in bwd_d.items() if vs
        }
    for edge in dict_graph.edges():
        assert csr_graph.has_edge(edge.source, edge.label, edge.target)
    assert not csr_graph.has_edge("ghost", "a", "ghost")


class TestBackendEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(mutation_script())
    def test_freeze_preserves_every_observable(self, steps):
        graph = apply_script(steps)
        assert_observably_equal(graph, graph.freeze())

    @settings(max_examples=60, deadline=None)
    @given(mutation_script())
    def test_freeze_thaw_round_trip(self, steps):
        graph = apply_script(steps)
        thawed = graph.freeze().thaw()
        assert thawed == graph
        assert not thawed.is_frozen
        assert thawed.fingerprint() == graph.fingerprint()
        # The thawed copy is mutable and independent.
        thawed.add_edge("fresh", "a", "fresh2")
        assert not graph.has_edge("fresh", "a", "fresh2")

    @settings(max_examples=25, deadline=None)
    @given(mutation_script())
    def test_snapshot_round_trip(self, steps):
        graph = apply_script(steps)
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "graph.snap")
            save_snapshot(graph, path)
            loaded = load_snapshot(path)
        assert loaded.is_frozen
        assert_observably_equal(graph, loaded)

    @settings(max_examples=40, deadline=None)
    @given(mutation_script(), st.integers(min_value=0, max_value=1_000_000))
    def test_query_answers_identical_across_backends(self, steps, seed):
        graph = apply_script(steps)
        frozen = graph.freeze()
        rng = random.Random(seed)
        for _ in range(3):
            expr = random_nre(depth=rng.randint(1, 3), rng=rng, alphabet=LABELS)
            assert QueryEngine().pairs(graph, expr) == QueryEngine().pairs(
                frozen, expr
            )
            for node in rng.sample(NODES, 3):
                assert QueryEngine().reachable(
                    graph, expr, node
                ) == QueryEngine().reachable(frozen, expr, node)


class TestBufferTypes:
    """CSR builds and snapshot loads with numpy present and masked.

    Without numpy the buffers are :class:`array.array` values built in
    pure Python; every read must still agree with the dict backend, and a
    snapshot written under either buffer type must load under either.
    """

    @settings(max_examples=40, deadline=None)
    @given(mutation_script())
    def test_freeze_without_numpy_preserves_every_observable(self, steps):
        graph = apply_script(steps)
        with mock.patch.object(kernels, "NUMPY", None):
            frozen = graph.freeze()
        assert all(
            isinstance(buffer, array) for buffer in frozen.csr._fwd_targets.values()
        )
        assert_observably_equal(graph, frozen)

    @pytest.mark.parametrize("written", ["numpy", "masked"])
    @pytest.mark.parametrize("loaded", ["numpy", "masked"])
    def test_snapshot_loads_across_buffer_types(self, written, loaded, tmp_path):
        if kernels.NUMPY is None:
            pytest.skip("numpy unavailable")
        graph = apply_script(
            [("add_edge", NODES[i % 7], LABELS[i % 3], NODES[(i * 3) % 10])
             for i in range(30)]
        )
        path = str(tmp_path / "graph.snap")
        with mock.patch.object(
            kernels, "NUMPY", kernels.NUMPY if written == "numpy" else None
        ):
            save_snapshot(graph, path)
        with mock.patch.object(
            kernels, "NUMPY", kernels.NUMPY if loaded == "numpy" else None
        ):
            restored = load_snapshot(path)
        assert_observably_equal(graph, restored)
        expected_type = kernels.NUMPY.ndarray if "numpy" in (written, loaded) else array
        assert all(
            isinstance(buffer, expected_type)
            for buffer in restored.csr._fwd_targets.values()
        )

    def test_views_are_decoded_once_per_label(self):
        frozen = apply_script(
            [("add_edge", "n0", "a", "n1"), ("add_edge", "n1", "a", "n2")]
        ).freeze()
        assert frozen.forward_index("a") is frozen.forward_index("a")
        assert frozen.backward_index("a") is frozen.backward_index("a")
        assert frozen.forward_index("a") == {
            "n0": frozenset({"n1"}), "n1": frozenset({"n2"})
        }
        assert frozen.forward_index("zz") == {}


class TestFingerprintKeyedCacheBehaviour:
    def test_frozen_twin_hits_the_same_cache_entry(self):
        graph = GraphDatabase(
            alphabet=LABELS, edges=[("n0", "a", "n1"), ("n1", "b", "n2")]
        )
        frozen = graph.freeze()
        engine = QueryEngine()
        expr = random_nre(depth=2, rng=random.Random(3), alphabet=LABELS)
        engine.pairs(graph, expr)
        assert engine.stats.graph_cache_misses == 1
        engine.pairs(frozen, expr)
        assert engine.stats.graph_cache_hits == 1
        assert engine.stats.graph_cache_misses == 1

    def test_destructive_graphs_stay_uncacheable(self):
        graph = GraphDatabase(alphabet=LABELS, edges=[("n0", "a", "n1")])
        graph.remove_edge("n0", "a", "n1")
        engine = QueryEngine()
        expr = random_nre(depth=2, rng=random.Random(5), alphabet=LABELS)
        engine.pairs(graph, expr)
        assert engine.stats.uncacheable_graphs == 1
        assert not engine._cache


class TestFrozenSemantics:
    def test_every_mutation_raises(self):
        frozen = GraphDatabase(alphabet=LABELS, edges=[("n0", "a", "n1")]).freeze()
        with pytest.raises(FrozenGraphError):
            frozen.add_edge("x", "a", "y")
        with pytest.raises(FrozenGraphError):
            frozen.add_node("x")
        with pytest.raises(FrozenGraphError):
            frozen.remove_edge("n0", "a", "n1")
        with pytest.raises(FrozenGraphError):
            frozen.rename_node("n0", "n9")

    def test_copy_and_extended_return_mutable_graphs(self):
        frozen = GraphDatabase(alphabet=LABELS, edges=[("n0", "a", "n1")]).freeze()
        clone = frozen.copy()
        assert not clone.is_frozen and clone == frozen
        extended = frozen.extended([("n1", "b", "n2")])
        assert extended.has_edge("n1", "b", "n2") and not frozen.has_edge(
            "n1", "b", "n2"
        )

    def test_backend_protocol_conformance(self):
        graph = GraphDatabase(alphabet=LABELS, edges=[("n0", "a", "n1")])
        assert isinstance(graph.backend, DictBackend)
        assert isinstance(graph.backend, StorageBackend)
        frozen = graph.freeze()
        assert isinstance(frozen.backend, CsrBackend)
        assert isinstance(frozen.backend, StorageBackend)
        assert graph.backend_name == "dict" and frozen.backend_name == "csr"
        assert frozen.csr is frozen.backend and graph.csr is None

    def test_destructive_freeze_keeps_content_but_not_fingerprint(self):
        graph = GraphDatabase(alphabet=LABELS, edges=[("n0", "a", "n1")])
        graph.rename_node("n1", "n2")
        frozen = graph.freeze()
        assert frozen == graph
        assert frozen.fingerprint() is None
        assert frozen.thaw() == graph


class TestDiscardNode:
    def test_discards_isolated_nodes_only(self):
        from repro.errors import SchemaError

        graph = GraphDatabase(
            alphabet=LABELS, nodes=["lonely"], edges=[("n0", "a", "n1")]
        )
        graph.discard_node("lonely")
        graph.discard_node("never-there")  # absent: a no-op
        assert graph.nodes() == frozenset({"n0", "n1"})
        with pytest.raises(SchemaError):
            graph.discard_node("n0")

    def test_discard_is_destructive_and_frozen_rejects_it(self):
        graph = GraphDatabase(alphabet=LABELS, nodes=["lonely"])
        graph.discard_node("lonely")
        assert graph.fingerprint() is None
        frozen = GraphDatabase(alphabet=LABELS, nodes=["x"]).freeze()
        with pytest.raises(FrozenGraphError):
            frozen.discard_node("x")
