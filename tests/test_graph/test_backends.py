"""Differential suite for a graph and its frozen, thawed and reloaded copies.

Random mutation scripts (removals and renames included) drive a mutable
graph; the graph is then frozen, frozen and thawed, and saved and
reloaded as a snapshot, and each copy must agree with it on every
observable — nodes, edges, adjacency in both directions, journal,
``destructive`` flag, fingerprint — while the compiled query engine
returns identical answers and shares fingerprint-keyed cache entries
across them.

``freeze()``, ``thaw()``, ``copy()`` and ``with_alphabet()`` share the
storage until one side mutates, and bulk loads derive a label's backward
index on its first read: the copy-on-write and lazy-index suites mutate
one side of a share, read the other (backward reads first among them),
and pin which indexes the §3.1 materialise path builds.
"""

import os
import random
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.query import QueryEngine
from repro.errors import FrozenGraphError
from repro.graph.database import FrozenGraphDatabase, GraphDatabase
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


def derived_built(graph: GraphDatabase) -> bool:
    """Whether the graph has built its derived ``Edge`` set and incident maps."""
    return graph._edges is not None


def backward_built(graph: GraphDatabase) -> set:
    """The labels whose backward index the graph holds."""
    return set(graph._bwd)


STORAGE = ("_nodes", "_fwd", "_label_counts", "_journal")
"""The containers a twin shares until one side mutates."""


def shares_storage(graph: GraphDatabase, twin: GraphDatabase) -> bool:
    """Whether the two graphs hold the very same storage containers."""
    return all(getattr(graph, name) is getattr(twin, name) for name in STORAGE)


def assert_observably_equal(graph: GraphDatabase, twin: GraphDatabase):
    """Every read observable must agree between a graph and its copy.

    The reads served by the adjacency, the counters and the triple journal
    are compared both before and after the reads that build the derived
    edge indexes (``edges``, ``edges_from``, ``edges_to``), so neither
    side's answers depend on whether those indexes exist yet.
    """

    def assert_storage_reads_equal():
        """The observables that never need the derived edge indexes."""
        assert twin.nodes() == graph.nodes()
        assert twin.node_count() == graph.node_count()
        assert twin.edge_count() == graph.edge_count()
        assert twin.alphabet == graph.alphabet
        assert twin.labels() == graph.labels()
        assert twin.declared_alphabet() == graph.declared_alphabet()
        assert twin.version == graph.version
        version = graph.version
        for since in sorted({0, 1, version // 2, version, version + 1}):
            assert twin.edges_since(since) == graph.edges_since(since)
        assert twin.journal_triples() == graph.journal_triples()
        assert twin.destructive == graph.destructive
        assert twin.fingerprint() == graph.fingerprint()
        for node in NODES:
            assert (node in twin) == (node in graph)
            for lab in LABELS:
                assert twin.successors(node, lab) == graph.successors(node, lab)
                assert twin.predecessors(node, lab) == graph.predecessors(
                    node, lab
                )
                assert twin.has_successor(node, lab) == graph.has_successor(
                    node, lab
                )
                assert twin.has_predecessor(node, lab) == graph.has_predecessor(
                    node, lab
                )
        for lab in LABELS + ("zz",):
            assert twin.label_count(lab) == graph.label_count(lab)
            assert set(twin.iter_label_pairs(lab)) == set(
                graph.iter_label_pairs(lab)
            )
            assert twin.edges_with_label(lab) == graph.edges_with_label(lab)
            fwd_c, fwd_d = twin.forward_index(lab), graph.forward_index(lab)
            assert {u: frozenset(vs) for u, vs in fwd_c.items() if vs} == {
                u: frozenset(vs) for u, vs in fwd_d.items() if vs
            }
            bwd_c, bwd_d = twin.backward_index(lab), graph.backward_index(lab)
            assert {u: frozenset(vs) for u, vs in bwd_c.items() if vs} == {
                u: frozenset(vs) for u, vs in bwd_d.items() if vs
            }
        assert not twin.has_edge("ghost", "a", "ghost")

    assert_storage_reads_equal()
    assert twin.edges() == graph.edges()
    assert twin == graph and graph == twin
    for node in NODES:
        assert twin.edges_from(node) == graph.edges_from(node)
        assert twin.edges_to(node) == graph.edges_to(node)
        assert twin.edges_from(node) | twin.edges_to(node) == (
            graph.edges_from(node) | graph.edges_to(node)
        )
    for edge in graph.edges():
        assert twin.has_edge(edge.source, edge.label, edge.target)
    assert derived_built(graph) and derived_built(twin)
    assert_storage_reads_equal()


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
        assert_observably_equal(graph, thawed)
        assert not thawed.is_frozen
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


@st.composite
def growth_script(draw):
    """Edge and node insertions only: a history every build path can replay."""
    return draw(
        st.lists(
            st.one_of(
                st.tuples(
                    st.sampled_from(NODES),
                    st.sampled_from(LABELS),
                    st.sampled_from(NODES),
                ),
                st.tuples(st.sampled_from(NODES)),
            ),
            max_size=30,
        )
    )


SHARES = ("freeze", "thaw", "copy", "with_alphabet")


def share(graph: GraphDatabase, kind: str) -> tuple[GraphDatabase, GraphDatabase]:
    """A share of ``graph`` made by ``kind``: (the side to mutate, the other).

    ``freeze`` mutates the source and reads the frozen twin; the others
    mutate the mutable twin they return and read the graph it came from.
    """
    if kind == "freeze":
        return graph, graph.freeze()
    if kind == "thaw":
        frozen = graph.freeze()
        return frozen.thaw(), frozen
    if kind == "copy":
        return graph.copy(), graph
    return graph.with_alphabet(LABELS + ("d",)), graph


def live_index(index: dict) -> dict:
    """An adjacency index without its emptied buckets, for comparison."""
    return {node: frozenset(peers) for node, peers in index.items() if peers}


def six_builds(steps, directory) -> dict[str, GraphDatabase]:
    """The same graph built by ``add_edge``, ``from_edges``, ``freeze()``,
    ``thaw()``, ``copy()`` and a snapshot reload, no derived read made."""
    grown = GraphDatabase(alphabet=LABELS)
    for step in steps:
        if len(step) == 3:
            grown.add_edge(*step)
        else:
            grown.add_node(*step)
    loaded = GraphDatabase(
        alphabet=LABELS,
        nodes=[step[0] for step in steps if len(step) == 1],
        edges=[step for step in steps if len(step) == 3],
    )
    path = os.path.join(directory, "graph.snap")
    save_snapshot(grown, path)
    return {
        "add_edge": grown,
        "from_edges": loaded,
        "freeze": grown.freeze(),
        "thaw": grown.freeze().thaw(),
        "clone": grown.copy(),
        "snapshot": load_snapshot(path),
    }


class TestBuildPathEquivalence:
    """Every way of building a graph shows the same observables, and builds
    the derived edge indexes only when one of their readers asks."""

    @settings(max_examples=40, deadline=None)
    @given(growth_script())
    def test_six_builds_agree_before_and_after_derived_reads(self, steps):
        with tempfile.TemporaryDirectory() as directory:
            builds = six_builds(steps, directory)
        reference = builds.pop("add_edge")
        for name, twin in builds.items():
            assert not derived_built(twin), name
            assert_observably_equal(reference, twin)
        assert not derived_built(GraphDatabase(alphabet=LABELS).freeze())

    @settings(max_examples=40, deadline=None)
    @given(growth_script(), st.data())
    def test_mutating_a_thawed_copy_matches_the_grown_graph(self, steps, data):
        from repro.errors import SchemaError

        with tempfile.TemporaryDirectory() as directory:
            builds = six_builds(steps, directory)
        grown, thawed = builds["add_edge"], builds["thaw"]
        edges = sorted(grown.edges(), key=repr)
        if edges:
            doomed = data.draw(st.sampled_from(edges))
            for graph in (grown, thawed):
                graph.remove_edge(doomed.source, doomed.label, doomed.target)
            assert not derived_built(thawed)  # probed on the forward index
        for graph in (grown, thawed):
            graph.remove_edge("ghost", "a", "ghost")
        busy = [node for node in NODES
                if grown.edges_from(node) | grown.edges_to(node)]
        for node in busy[:1]:
            for graph in (grown, thawed):
                with pytest.raises(SchemaError):
                    graph.discard_node(node)
        assert not derived_built(thawed)  # checked on the label indexes
        old = data.draw(st.sampled_from(NODES))
        new = data.draw(st.sampled_from(NODES))
        assert grown.rename_node(old, new) == thawed.rename_node(old, new)
        for node in NODES:
            if node in grown and not grown.edges_from(node) | grown.edges_to(node):
                for graph in (grown, thawed):
                    graph.discard_node(node)
        assert_observably_equal(grown, thawed)
        assert not thawed.is_frozen

    @settings(max_examples=40, deadline=None)
    @given(growth_script(), mutation_script(), st.sampled_from(SHARES), st.data())
    def test_backward_reads_ignore_mutations_of_the_twin(
        self, steps, script, kind, data
    ):
        """Backward reads on one side of a share, interleaved with the other
        side's mutations, see the content as it was at the share."""
        with tempfile.TemporaryDirectory() as directory:
            builds = six_builds(steps, directory)
        base = builds[data.draw(st.sampled_from(("add_edge", "from_edges", "thaw")))]
        mutable, other = share(base, kind)
        # Unshared builds of each side's content and history.
        other_ref, mutable_ref = (
            GraphDatabase(
                alphabet=graph.declared_alphabet(),
                nodes=graph.nodes(),
                edges=graph.journal_triples(),
            )
            for graph in (other, mutable)
        )
        for step in script:
            lab = data.draw(st.sampled_from(LABELS + ("zz",)))
            node = data.draw(st.sampled_from(NODES))
            assert other.predecessors(node, lab) == other_ref.predecessors(node, lab)
            assert other.has_predecessor(node, lab) == other_ref.has_predecessor(
                node, lab
            )
            assert live_index(other.backward_index(lab)) == live_index(
                other_ref.backward_index(lab)
            )
            for graph in (mutable, mutable_ref):
                getattr(graph, step[0])(*step[1:])
        assert_observably_equal(other_ref, other)
        assert_observably_equal(mutable_ref, mutable)


class TestMaterialisePath:
    def test_chase_freeze_query_snapshot_builds_no_edge_objects(self, tmp_path):
        """The §3.1 path reads adjacency, counters and the triple journal only.

        A change that builds the ``Edge`` set or the incident-edge maps
        eagerly again fails here by name, not as a timing drift.
        """
        from repro.chase.relational_chase import chase_relational
        from repro.graph.parser import parse_nre
        from repro.scenarios.scale import (
            GeneratorConfig,
            generate_instance,
            scale_setting,
            workload_queries,
        )

        setting = scale_setting("medlit")
        instance = generate_instance(
            GeneratorConfig(family="medlit", nodes=800, seed=1)
        )
        chased = chase_relational(
            setting.st_tgds, setting.egds(), instance, alphabet=setting.alphabet
        )
        assert chased.stats.null_merges > 0  # a merged tenant
        graph = chased.expect_graph()
        assert backward_built(graph) == set(), "the chase built backward indexes"
        frozen = graph.freeze()
        # freeze() shares every container of the chased graph, copies none.
        assert shares_storage(graph, frozen)
        assert graph._bwd is not frozen._bwd
        engine = QueryEngine()
        answers = [
            engine.pairs(frozen, parse_nre(text))
            for text in workload_queries("medlit")
        ]
        assert len(answers) == 5 and any(answers)
        # One query reads a label backward (``mentions- . cites``): its
        # index is built on the frozen side only, on that first read.
        assert backward_built(frozen) == {"mentions"}
        assert backward_built(graph) == set()
        assert shares_storage(graph, frozen)
        path = str(tmp_path / "tenant.snap")
        save_snapshot(frozen, path)
        restored = load_snapshot(path)
        assert backward_built(restored) == set(), "the load built backward indexes"
        # Equality compares nodes and triples, never the derived edge sets.
        assert restored == frozen and restored == graph
        stages = [("chased", graph), ("frozen", frozen), ("loaded", restored)]
        for name, built in stages:
            assert not derived_built(built), (
                f"the {name} graph built its Edge set / incident-edge maps"
            )
        assert restored.edge_count() == frozen.edge_count() == graph.version


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

    def test_every_mutation_of_a_loaded_snapshot_raises(self, tmp_path):
        path = str(tmp_path / "graph.snap")
        save_snapshot(GraphDatabase(alphabet=LABELS, edges=[("n0", "a", "n1")]), path)
        loaded = load_snapshot(path)
        for mutation, args in [
            ("add_edge", ("x", "a", "y")),
            ("add_node", ("x",)),
            ("remove_edge", ("n0", "a", "n1")),
            ("rename_node", ("n0", "n9")),
            ("discard_node", ("n0",)),
        ]:
            with pytest.raises(FrozenGraphError, match="frozen graph"):
                getattr(loaded, mutation)(*args)
        assert loaded.edge_count() == 1 and loaded.version == 1

    def test_copy_returns_a_mutable_graph(self):
        frozen = GraphDatabase(alphabet=LABELS, edges=[("n0", "a", "n1")]).freeze()
        clone = frozen.copy()
        assert not clone.is_frozen and clone == frozen
        clone.add_edge("n1", "b", "n2")
        assert clone.has_edge("n1", "b", "n2") and not frozen.has_edge(
            "n1", "b", "n2"
        )

    def test_freeze_shares_the_storage_copy_on_write(self):
        graph = GraphDatabase(alphabet=LABELS, edges=[("n0", "a", "n1")])
        frozen = graph.freeze()
        assert type(graph) is GraphDatabase
        assert type(frozen) is FrozenGraphDatabase
        assert type(frozen.thaw()) is GraphDatabase
        assert shares_storage(graph, frozen)
        # Copy-on-write, not a view: the source stays mutable, its first
        # write copies the storage, and the frozen twin does not follow it.
        graph.add_edge("n1", "b", "n2")
        assert not shares_storage(graph, frozen)
        assert not frozen.has_edge("n1", "b", "n2")
        assert frozen.edge_count() == 1 and frozen.version == 1

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


BASE_EDGES = [("n0", "a", "n1"), ("n1", "a", "n2"), ("n2", "b", "n0"), ("n3", "b", "n1")]
MUTATIONS = [
    ("add_node", ("fresh",)),
    ("add_edge", ("n2", "a", "n3")),
    ("remove_edge", ("n0", "a", "n1")),
    ("rename_node", ("n1", "n9")),
    ("discard_node", ("lonely",)),
]
OBSERVED = ("n0", "n1", "n2", "n3", "n9", "fresh", "lonely")


def base_graph() -> GraphDatabase:
    """A bulk-loaded graph (no backward index yet) with an isolated node."""
    return GraphDatabase.from_edges(LABELS, BASE_EDGES, nodes=["lonely"])


def observe(graph: GraphDatabase) -> tuple:
    """Nodes, live triples, journal, version, fingerprint and both adjacencies."""
    return (
        graph.nodes(),
        sorted(graph.live_triples(), key=repr),
        list(graph.journal_triples()),
        graph.version,
        graph.fingerprint(),
        {(node, lab): graph.successors(node, lab)
         for node in OBSERVED for lab in LABELS},
        {(node, lab): graph.predecessors(node, lab)
         for node in OBSERVED for lab in LABELS},
        {lab: live_index(graph.forward_index(lab)) for lab in LABELS},
        {lab: live_index(graph.backward_index(lab)) for lab in LABELS},
    )


class TestCopyOnWrite:
    """Mutating one side of a share leaves the other side as it was."""

    @pytest.mark.parametrize("backward", ["unbuilt", "before_share", "after_share"])
    @pytest.mark.parametrize("mutation, args", MUTATIONS)
    @pytest.mark.parametrize("kind", SHARES)
    def test_the_other_side_keeps_every_observable(
        self, kind, mutation, args, backward
    ):
        base = base_graph()
        if backward == "before_share":
            base.backward_index("a")  # both sides then hold this index
        mutable, other = share(base, kind)
        assert shares_storage(mutable, other)
        if backward == "after_share":
            other.backward_index("b")  # published into the other side's map
        expected = observe(share(base_graph(), kind)[1])
        reference = GraphDatabase(
            alphabet=mutable.declared_alphabet(),
            nodes=mutable.nodes(),
            edges=mutable.journal_triples(),
        )
        getattr(mutable, mutation)(*args)
        getattr(reference, mutation)(*args)
        assert not shares_storage(mutable, other)
        assert observe(other) == expected
        assert observe(mutable) == observe(reference) != expected

    def test_a_no_op_removal_copies_nothing(self):
        graph = base_graph()
        frozen = graph.freeze()
        graph.remove_edge("n0", "b", "n1")  # absent
        assert shares_storage(graph, frozen) and graph.destructive
        assert not frozen.destructive

    def test_a_duplicate_add_copies_nothing(self):
        graph = base_graph()
        frozen = graph.freeze()
        graph.add_edge(*BASE_EDGES[0])  # already held
        assert shares_storage(graph, frozen)
        assert observe(graph) == observe(frozen)

    def test_copies_of_copies_stay_independent(self):
        graph = base_graph()
        first, second = graph.copy(), graph.freeze().thaw()
        first.add_edge("n3", "a", "n0")
        second.remove_edge("n0", "a", "n1")
        graph.add_node("fresh")
        assert first.has_edge("n0", "a", "n1") and not second.has_edge("n0", "a", "n1")
        assert not second.has_edge("n3", "a", "n0") and "fresh" not in first
        assert observe(graph)[1] == sorted(BASE_EDGES, key=repr)


class TestLazyBackwardIndex:
    """Bulk loads build forward adjacency only; backward indexes follow reads."""

    def test_bulk_loads_build_the_forward_index_only(self, tmp_path):
        graph = base_graph()
        path = str(tmp_path / "graph.snap")
        save_snapshot(graph, path)
        for loaded in (graph, load_snapshot(path)):
            assert backward_built(loaded) == set()
            assert loaded.predecessors("n1", "a") == {"n0"}
            assert backward_built(loaded) == {"a"}
            assert loaded.backward_index("zz") == {}
            assert backward_built(loaded) == {"a"}

    def test_remove_edge_then_a_backward_read(self):
        graph = base_graph()
        graph.remove_edge("n1", "a", "n2")
        assert backward_built(graph) == set()
        assert live_index(graph.backward_index("a")) == {"n1": {"n0"}}
        assert not graph.has_predecessor("n2", "a")
        graph.remove_edge("n0", "a", "n1")  # the built index follows
        assert live_index(graph.backward_index("a")) == {}
        assert graph.predecessors("n1", "a") == frozenset()

    def test_discard_node_sees_incoming_only_edges_without_an_index(self):
        from repro.errors import SchemaError

        graph = GraphDatabase.from_edges(LABELS, [("n0", "a", "n1")])
        assert backward_built(graph) == set()
        with pytest.raises(SchemaError):
            graph.discard_node("n1")  # its only edge comes in
        assert "n1" in graph

    def test_thaw_then_add_edge_on_a_bulk_loaded_label(self):
        frozen = base_graph().freeze()
        thawed = frozen.thaw()
        thawed.add_edge("n3", "a", "n2")
        assert backward_built(thawed) == set()  # the label existed: no index yet
        assert thawed.predecessors("n2", "a") == {"n1", "n3"}
        assert frozen.predecessors("n2", "a") == {"n1"}

    def test_edge_grown_labels_keep_both_directions(self):
        grown = GraphDatabase(alphabet=LABELS)
        grown.add_edge("n0", "a", "n1")
        assert backward_built(grown) == {"a"}
        bulk = base_graph()
        bulk.add_edge("n0", "a", "n3")  # a bulk-loaded label stays lazy
        bulk.add_edge("n0", "c", "n3")  # a label the edge creates is eager
        assert backward_built(bulk) == {"c"}
        assert bulk.predecessors("n3", "a") == {"n0"}
