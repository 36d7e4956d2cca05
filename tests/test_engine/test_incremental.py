"""Differential update-stream tests for the incremental chase.

The acceptance property of PR 6 lives here: after **every** step of a
random interleaving of inserts, deletes, and queries, the incrementally
maintained solution must be *byte-identical* to a from-scratch
:func:`~repro.chase.relational_chase.chase_relational` over the current
instance — same graph (same null names, via ``canonical_bytes`` over the
JSON rendering), same failure verdict and witness, and the same certain
answers the set-algebraic ``ReferenceEngine`` computes over the oracle's
graph.

Five hand-built regimes exercise the distinct repair paths:

* the paper's Example 3.1 setting over random Flight/Hotel churn
  (constant-null egd merges, trigger add/remove);
* a failure-capable functional-dependency setting where deletes can
  *unfail* a previously failed chase;
* a word-egd setting (``f . h`` bodies) driving the egd-decomposition
  chains; and
* a word-egd null-merge setting where the merged nodes are themselves
  nulls (merge-provenance and delete-then-reinsert churn); and
* a two-egd cascade setting where one egd's merge witness runs through a
  null class the other egd merged, so a deletion must dissolve both.

A generator-shaped regime replays ``scenarios.scale.update_stream`` on
small medlit and social tenants, whose Zipf hubs grow the large
functional merge classes the class-local repair dissolves.
"""


import pytest
from hypothesis import given, settings, strategies as st

from oracles import ReferenceEngine
from repro import telemetry
from repro.chase.relational_chase import chase_relational
from repro.core.setting import DataExchangeSetting
from repro.engine.incremental import IncrementalChase, UpdateStats, decompose_egd
from repro.engine.query import QueryEngine
from repro.errors import NotSupportedError, SchemaError
from repro.graph.parser import parse_nre
from repro.io.json_io import graph_to_dict
from repro.mappings.parser import parse_egd, parse_st_tgd
from repro.relational.schema import RelationalSchema
from repro.scenarios.figures import example31_setting
from repro.scenarios.flights import flights_instance, setting_omega
from repro.scenarios.scale import (
    GeneratorConfig,
    generate_instance,
    scale_setting,
    update_stream,
    workload_queries,
)
from repro.service.protocol import canonical_bytes


# --------------------------------------------------------------------- #
# The four differential regimes: (setting, fact pool, queries).
# --------------------------------------------------------------------- #


def _pair_schema(*names: str) -> RelationalSchema:
    schema = RelationalSchema()
    for name in names:
        schema.declare(name, 2)
    return schema


def failure_setting() -> DataExchangeSetting:
    """``R(x,y) -> (x,h,y)`` with an injectivity egd: constants can clash."""
    tgd = parse_st_tgd("R(x, y) -> (x, h, y)", name="R_h")
    egd = parse_egd("(x1, h, x3), (x2, h, x3) -> x1 = x2", name="inj")
    return DataExchangeSetting(_pair_schema("R"), {"h"}, [tgd], [egd], name="fail")


def word_egd_setting() -> DataExchangeSetting:
    """Two-step heads with a word-body egd (drives the chain decomposition)."""
    tgd = parse_st_tgd("S(x, y) -> (x, f, z), (z, h, y)", name="S_fh")
    egd = parse_egd("(x1, f . h, x3), (x2, f . h, x3) -> x1 = x2", name="wfd")
    return DataExchangeSetting(
        _pair_schema("S"), {"f", "h"}, [tgd], [egd], name="word"
    )


def null_merge_setting() -> DataExchangeSetting:
    """A word egd whose merge targets are the invented nulls themselves."""
    long_tgd = parse_st_tgd(
        "S(x, y) -> (x, f, z), (z, h, u), (u, g, y)", name="S_fhg"
    )
    short_tgd = parse_st_tgd("T(x, y) -> (x, f, z), (z, h, y)", name="T_fh")
    egd = parse_egd(
        "(x1, f . h, u1), (x2, f . h, u2), (u1, g, y), (u2, g, y) -> u1 = u2",
        name="null-merge",
    )
    return DataExchangeSetting(
        _pair_schema("S", "T"), {"f", "g", "h"}, [long_tgd, short_tgd], [egd],
        name="null-merge",
    )


def cascade_setting() -> DataExchangeSetting:
    """Two egds where one merge's witness runs through the other's class.

    ``S(p, t)`` invents a pair of nulls ``m -h-> n -k-> t``.  Egd ``A``
    merges the ``n`` nulls whose ``t`` constants share an ``l``-successor
    (witness edges from ``L`` facts); egd ``B`` then merges the ``m``
    nulls pointing at one merged ``n``.  Deleting an ``L`` fact kills a
    witness edge of ``A``'s merge only, but ``B``'s witness has endpoints
    in ``A``'s class, so both classes must split.
    """
    s_tgd = parse_st_tgd("S(x, t) -> (x, a, n), (n, k, t), (m, h, n)", name="S_akh")
    l_tgd = parse_st_tgd("L(t, z) -> (t, l, z)", name="L_l")
    by_link = parse_egd("(x1, k . l, z), (x2, k . l, z) -> x1 = x2", name="A")
    by_target = parse_egd("(y1, h, w), (y2, h, w) -> y1 = y2", name="B")
    return DataExchangeSetting(
        _pair_schema("S", "L"), {"a", "h", "k", "l"}, [s_tgd, l_tgd],
        [by_link, by_target], name="cascade",
    )


_FLIGHT_POOL = [
    ("Flight", (f"{fid:02d}", src, dst))
    for fid in range(1, 4)
    for src, dst in [("c1", "c2"), ("c3", "c2"), ("c2", "c4")]
] + [
    ("Hotel", (f"{fid:02d}", hotel))
    for fid in range(1, 4)
    for hotel in ("hx", "hy", "hz")
]

_PAIR_POOL = [
    ("R", (left, right)) for left in ("a", "b", "c") for right in ("u", "v")
]

_WORD_POOL = [
    ("S", (left, right)) for left in ("a", "b", "c") for right in ("u", "v")
]

_NULL_MERGE_POOL = [
    (relation, (left, right))
    for relation in ("S", "T")
    for left in ("a", "b", "c")
    for right in ("u", "v")
]

_CASCADE_POOL = [
    ("S", (paper, link)) for paper in ("p1", "p2") for link in ("t1", "t2")
] + [("L", (link, "z")) for link in ("t1", "t2", "t3")] + [("L", ("t1", "y"))]

REGIMES = {
    "flights": (example31_setting, _FLIGHT_POOL, ("f", "h", "f . h")),
    "failure": (failure_setting, _PAIR_POOL, ("h",)),
    "word-egd": (word_egd_setting, _WORD_POOL, ("f", "f . h")),
    "null-merge": (null_merge_setting, _NULL_MERGE_POOL, ("f . h . g", "g")),
    "cascade": (cascade_setting, _CASCADE_POOL, ("a . h-", "a . k . l")),
}


# --------------------------------------------------------------------- #
# The oracle check: byte-identity against a from-scratch chase.
# --------------------------------------------------------------------- #


def assert_matches_oracle(
    live: IncrementalChase, engine, queries, graph_form: str = "dict"
) -> None:
    """Live state == from-scratch chase of the *current* instance, in bytes.

    With ``graph_form="frozen"`` the expected answers are evaluated on the
    frozen oracle graph, so the live dict-graph answers are also checked
    against the CSR views.
    """
    setting = live.setting
    oracle = chase_relational(
        setting.st_tgds, list(setting.egds()), live.instance,
        alphabet=setting.alphabet,
    )
    result = live.chase_result()
    assert result.failed == oracle.failed
    assert result.failure_witness == oracle.failure_witness
    assert live.failure_witness() == oracle.failure_witness
    assert canonical_bytes(graph_to_dict(result.graph)) == canonical_bytes(
        graph_to_dict(oracle.graph)
    )
    domain = live.instance.active_domain()
    for query in queries:
        answers = live.certain_answers(query, engine=engine)
        if oracle.failed:
            assert answers.no_solution
            assert answers.answers == frozenset()
        else:
            graph = oracle.graph.freeze() if graph_form == "frozen" else oracle.graph
            expected = ReferenceEngine().answers_over(graph, query, domain)
            assert answers.answers == expected


def run_stream(setting_factory, pool, query_texts, batches, graph_form):
    """Drive one update stream, checking the oracle after every batch."""
    engine = QueryEngine()
    queries = [parse_nre(text) for text in query_texts]
    live = IncrementalChase(setting_factory())
    assert_matches_oracle(live, engine, queries, graph_form)
    for batch in batches:
        live.apply_updates(
            [(op, relation, values) for op, (relation, values) in batch]
        )
        assert_matches_oracle(live, engine, queries, graph_form)
    return live


# --------------------------------------------------------------------- #
# Hypothesis: random insert/delete/query interleavings, per regime.
# --------------------------------------------------------------------- #


def stream_strategy(pool):
    """A list of batches; each batch interleaves inserts and deletes.

    Deletes draw from the same fact pool as inserts, so sampled streams
    routinely delete-then-reinsert the same fact (within one batch and
    across batches) and tear down merged null classes only to rebuild
    them — exactly the churn the fast paths must survive.
    """
    step = st.tuples(st.sampled_from(["insert", "delete"]), st.sampled_from(pool))
    batch = st.lists(step, min_size=1, max_size=4)
    return st.lists(batch, min_size=1, max_size=6)


GRAPH_FORMS = ("dict", "frozen")
"""How the oracle graph is evaluated: as chased, or frozen to CSR views."""


class TestDifferentialStreams:
    @pytest.mark.parametrize("graph_form", GRAPH_FORMS)
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_flights_streams_match_oracle(self, graph_form, data):
        factory, pool, queries = REGIMES["flights"]
        run_stream(
            factory, pool, queries, data.draw(stream_strategy(pool)), graph_form
        )

    @pytest.mark.parametrize("graph_form", GRAPH_FORMS)
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_failure_streams_match_oracle(self, graph_form, data):
        factory, pool, queries = REGIMES["failure"]
        run_stream(
            factory, pool, queries, data.draw(stream_strategy(pool)), graph_form
        )

    @pytest.mark.parametrize("graph_form", GRAPH_FORMS)
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_word_egd_streams_match_oracle(self, graph_form, data):
        factory, pool, queries = REGIMES["word-egd"]
        run_stream(
            factory, pool, queries, data.draw(stream_strategy(pool)), graph_form
        )

    @pytest.mark.parametrize("graph_form", GRAPH_FORMS)
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_null_merge_streams_match_oracle(self, graph_form, data):
        factory, pool, queries = REGIMES["null-merge"]
        run_stream(
            factory, pool, queries, data.draw(stream_strategy(pool)), graph_form
        )

    @pytest.mark.parametrize("graph_form", GRAPH_FORMS)
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_cascade_streams_match_oracle(self, graph_form, data):
        factory, pool, queries = REGIMES["cascade"]
        run_stream(
            factory, pool, queries, data.draw(stream_strategy(pool)), graph_form
        )

    @pytest.mark.parametrize("graph_form", GRAPH_FORMS)
    @pytest.mark.parametrize("regime", sorted(REGIMES))
    def test_pinned_churn_on_both_graph_forms(self, regime, graph_form):
        """A deterministic delete-then-reinsert stream, oracle on each form."""
        factory, pool, queries = REGIMES[regime]
        churn = [
            [("insert", fact) for fact in pool],
            [("delete", pool[0]), ("insert", pool[0]), ("delete", pool[1])],
            [("delete", fact) for fact in pool[2:]],
            [("insert", pool[1]), ("insert", pool[2])],
        ]
        run_stream(factory, pool, queries, churn, graph_form)


class TestGeneratorStreams:
    """Generator-shaped streams: Zipf-hub functional classes under churn."""

    @pytest.mark.parametrize("graph_form", GRAPH_FORMS)
    @pytest.mark.parametrize("family,seed", [("medlit", 3), ("social", 4)])
    def test_update_stream_matches_oracle(self, family, seed, graph_form):
        config = GeneratorConfig(family=family, nodes=80, seed=seed)
        engine = QueryEngine()
        queries = [parse_nre(text) for text in workload_queries(family)]
        live = IncrementalChase(scale_setting(family), generate_instance(config))
        assert_matches_oracle(live, engine, queries, graph_form)
        for batch in update_stream(config, 4, 12, 0.4):
            live.apply_updates(batch)
            assert_matches_oracle(live, engine, queries, graph_form)
        assert live.stats.merged_repairs > 0
        assert live.stats.merged_rebuilds == 1  # the bootstrap only


# --------------------------------------------------------------------- #
# Pinned unit behaviour: start-of-stream state, churn identities, stats.
# --------------------------------------------------------------------- #


class TestPinnedBehaviour:
    def test_bootstrap_from_paper_instance_matches_oracle(self):
        live = IncrementalChase(example31_setting(), flights_instance())
        assert_matches_oracle(
            live, QueryEngine(), [parse_nre("f"), parse_nre("h")]
        )

    def test_delete_then_reinsert_is_byte_identical(self):
        """Removing and restoring a fact restores the exact solution bytes."""
        live = IncrementalChase(example31_setting(), flights_instance())
        origin = canonical_bytes(graph_to_dict(live.chase_result().graph))
        live.apply_updates([("delete", "Hotel", ("01", "hy"))])
        assert canonical_bytes(graph_to_dict(live.chase_result().graph)) != origin
        live.apply_updates([("insert", "Hotel", ("01", "hy"))])
        assert canonical_bytes(graph_to_dict(live.chase_result().graph)) == origin

    def test_insert_delete_in_one_batch_is_a_net_noop(self):
        live = IncrementalChase(example31_setting(), flights_instance())
        origin = canonical_bytes(graph_to_dict(live.chase_result().graph))
        counts = live.apply_updates([
            ("insert", "Hotel", ("02", "hz")),
            ("delete", "Hotel", ("02", "hz")),
        ])
        assert counts == {"inserts": 1, "deletes": 1, "noops": 0,
                          "failed": False}
        assert canonical_bytes(graph_to_dict(live.chase_result().graph)) == origin

    def test_failure_flips_both_ways(self):
        live = IncrementalChase(failure_setting())
        live.apply_updates([("insert", "R", ("a", "u"))])
        assert not live.failed
        counts = live.apply_updates([("insert", "R", ("b", "u"))])
        assert counts["failed"] and live.failed
        assert live.failure_witness() == ("a", "b")
        query = parse_nre("h")
        trivial = live.certain_answers(query)
        assert trivial.no_solution and trivial.answers == frozenset()
        live.apply_updates([("delete", "R", ("b", "u"))])
        assert not live.failed and live.failure_witness() is None

    def test_noop_and_stats_counters(self):
        live = IncrementalChase(example31_setting(), flights_instance())
        counts = live.apply_updates([
            ("insert", "Hotel", ("01", "hx")),   # already present
            ("delete", "Hotel", ("09", "hq")),   # never present
        ])
        assert counts == {"inserts": 0, "deletes": 0, "noops": 2,
                          "failed": False}
        summary = live.stats.summary()
        assert summary["batches"] == 1 and summary["noops"] == 2
        assert summary["inserts_applied"] == 0 and summary["deletes_applied"] == 0

    def test_fast_delete_avoids_rebuild(self):
        """Removing an unmerged trigger's edges takes the O(affected) path."""
        live = IncrementalChase(example31_setting(), flights_instance())
        live.apply_updates([("insert", "Hotel", ("02", "hz"))])
        baseline = live.stats.merged_rebuilds
        live.apply_updates([("delete", "Hotel", ("02", "hz"))])
        assert live.stats.fast_deletes > 0
        assert live.stats.merged_rebuilds == baseline

    def test_deleting_merge_support_repairs_locally(self):
        """Removing a fact that fed an egd merge re-derives only its class."""
        live = IncrementalChase(example31_setting(), flights_instance())
        [hit_class] = [m for m in live._classes.values() if len(m) > 1]
        before = live.stats.summary()
        live.apply_updates([("delete", "Hotel", ("02", "hx"))])
        after = live.stats.summary()
        assert after["merged_rebuilds"] == before["merged_rebuilds"]
        assert after["merged_repairs"] == before["merged_repairs"] + 1
        assert after["nodes_rederived"] - before["nodes_rederived"] == len(hit_class)

    def test_repair_span_reports_rederived_nodes(self):
        """A trace shows ``update.repair`` under ``update.apply`` with its size."""
        live = IncrementalChase(example31_setting(), flights_instance())
        telemetry.set_enabled(True)
        try:
            with telemetry.span("test.root") as root:
                live.apply_updates([("delete", "Hotel", ("02", "hx"))])
        finally:
            telemetry.set_enabled(None)
        [apply] = root.children
        [repair] = apply.children
        assert (apply.name, repair.name) == ("update.apply", "update.repair")
        assert repair.attrs["nodes"] == live.stats.nodes_rederived == 2

    def test_deleting_out_of_a_failed_state_rebuilds(self):
        """A failed chase parks the merged layer; a deletion rebuilds it."""
        live = IncrementalChase(failure_setting())
        live.apply_updates([("insert", "R", ("a", "u")), ("insert", "R", ("b", "u"))])
        assert live.failed
        before = live.stats.summary()
        live.apply_updates([("delete", "R", ("b", "u"))])
        after = live.stats.summary()
        assert not live.failed
        assert after["merged_rebuilds"] == before["merged_rebuilds"] + 1
        assert after["merged_repairs"] == before["merged_repairs"]

    def test_cascade_dissolves_the_dependent_class(self):
        """Killing class A's witness splits class B, whose witness runs via A."""
        live = IncrementalChase(cascade_setting())
        engine, queries = QueryEngine(), [parse_nre("a . h-"), parse_nre("a . k . l")]
        live.apply_updates([
            ("insert", "S", ("p1", "t1")), ("insert", "S", ("p2", "t2")),
            ("insert", "L", ("t1", "z")), ("insert", "L", ("t2", "z")),
        ])
        assert_matches_oracle(live, engine, queries)
        assert sorted(len(m) for m in live._classes.values() if len(m) > 1) == [2, 2]
        before = live.stats.summary()
        live.apply_updates([("delete", "L", ("t2", "z"))])
        assert_matches_oracle(live, engine, queries)
        assert all(len(members) == 1 for members in live._classes.values())
        assert live.stats.merged_repairs == before["merged_repairs"] + 1
        assert live.stats.nodes_rederived == before["nodes_rederived"] + 4
        live.apply_updates([("insert", "L", ("t2", "z"))])
        assert_matches_oracle(live, engine, queries)
        assert live.stats.merged_rebuilds == before["merged_rebuilds"]

    def test_insert_only_batches_invalidate_answers(self):
        """An insert-only batch drops the cache; each query re-reads once."""
        engine = QueryEngine()
        live = IncrementalChase(example31_setting(), flights_instance())
        queries = [parse_nre("f . h"), parse_nre("f*")]
        for query in queries:
            live.certain_answers(query, engine=engine)
        before = engine.stats.as_dict()
        live.apply_updates([("insert", "Hotel", ("02", "hz"))])
        assert live.stats.answer_invalidations == 1
        assert_matches_oracle(live, engine, queries)
        after = engine.stats.as_dict()
        assert live.stats.answer_patches == 0
        assert after["relations_evaluated"] - before["relations_evaluated"] == 2
        assert after["single_source_queries"] == before["single_source_queries"]

    def test_batches_that_change_no_fact_keep_cached_answers(self):
        engine = QueryEngine()
        live = IncrementalChase(example31_setting(), flights_instance())
        query = parse_nre("f . h")
        cached = live.certain_answers(query, engine=engine).answers
        live.apply_updates([("insert", "Hotel", ("01", "hx"))])  # already present
        live.apply_updates([("insert", "Hotel", ("02", "hz")),
                            ("delete", "Hotel", ("02", "hz"))])  # a net no-op
        assert live.certain_answers(query, engine=engine).answers is cached
        assert engine.stats.relations_evaluated == 1
        assert live.stats.answer_invalidations == 0

    def test_schema_violations_reject_the_whole_batch(self):
        live = IncrementalChase(example31_setting(), flights_instance())
        origin = canonical_bytes(graph_to_dict(live.chase_result().graph))
        with pytest.raises(SchemaError):
            live.apply_updates([
                ("insert", "Hotel", ("02", "hz")),     # fine on its own
                ("insert", "Hotel", ("02", "hz", "x")),  # wrong arity
            ])
        with pytest.raises(SchemaError):
            live.apply_updates([("insert", "NoSuchRelation", ("a",))])
        with pytest.raises(ValueError):
            live.apply_updates([("upsert", "Hotel", ("02", "hz"))])
        # Nothing mutated: the first (valid) update must not have landed.
        assert not live.instance.contains("Hotel", ("02", "hz"))
        assert canonical_bytes(graph_to_dict(live.chase_result().graph)) == origin

    def test_mapping_shape_updates_are_accepted(self):
        live = IncrementalChase(example31_setting(), flights_instance())
        counts = live.apply_updates([
            {"op": "insert", "relation": "Hotel", "tuple": ["02", "hz"]}
        ])
        assert counts["inserts"] == 1
        assert live.instance.contains("Hotel", ("02", "hz"))


class TestGatesAndDecomposition:
    def test_outside_fragment_settings_are_rejected(self):
        with pytest.raises(NotSupportedError):
            IncrementalChase(setting_omega())  # regular-expression tgd head

    def test_word_egd_decomposes_into_a_chain(self):
        egd = parse_egd("(x1, f . h, x3), (x2, f . h, x3) -> x1 = x2")
        chains = decompose_egd(egd, 0)
        assert len(chains) == 1
        assert len(chains[0].body.atoms) == 4  # two 2-step words flattened

    def test_union_egd_decomposes_into_branches(self):
        egd = parse_egd("(x1, f + h, x3) -> x1 = x3")
        chains = decompose_egd(egd, 0)
        assert len(chains) == 2

    def test_star_egd_is_not_supported(self):
        egd = parse_egd("(x1, f*, x3) -> x1 = x3")
        with pytest.raises(NotSupportedError):
            decompose_egd(egd, 0)

    def test_update_stats_summary_shape(self):
        summary = UpdateStats().summary()
        assert summary["batches"] == 0
        assert {"egd_merges", "fast_deletes", "merged_rebuilds",
                "merged_repairs", "nodes_rederived",
                "answer_patches", "answer_invalidations"} <= set(summary)
