"""Differential update-stream tests for the incremental chase.

The acceptance property lives here: after **every** step of a random
interleaving of inserts, deletes, and queries, the incrementally
maintained solution must be *byte-identical* to a from-scratch
:func:`~repro.chase.relational_chase.chase_relational` over the current
instance — same graph (same null names, via ``canonical_bytes`` over the
JSON rendering), same failure verdict and witness, and the same certain
answers the set-algebraic ``ReferenceEngine`` computes over the oracle's
graph.

Six hand-built regimes exercise the distinct merged-layer paths:

* the paper's Example 3.1 setting over random Flight/Hotel churn (a
  functional egd: null members unite on the union-find, deletions either
  keep the partition or re-close their components);
* a failure-capable functional-dependency setting where deletes can
  *unfail* a previously failed chase;
* a congruence setting of two functional egds whose keys are nulls, so
  uniting two keys unites their member groups (and can fail);
* a word-egd setting (``f . h`` bodies), which is not functional, so
  every batch rebuilds the merged layer with the sequential fixpoint;
* a word-egd null-merge setting where the merged nodes are themselves
  nulls (delete-then-reinsert churn on the sequential path); and
* a two-egd cascade setting where one egd's merge runs through a null
  class the other egd merged.

A generator-shaped regime replays ``scenarios.scale.update_stream`` on
small medlit and social tenants, whose Zipf hubs grow large functional
merge classes, and a Hypothesis strategy throws batches of up to 40
operations at a medlit tenant.

The answer layer patches cached answers instead of recomputing them, so
a last suite reads random NREs (every constructor) on the flights,
null-merge, congruence and failure regimes, some only every few
batches, against the reference engine on a from-scratch chase.
"""


from zlib import crc32

import pytest
from hypothesis import given, settings, strategies as st

from oracles import ReferenceEngine
from repro import telemetry
from repro.chase.relational_chase import chase_relational
from repro.core.setting import DataExchangeSetting
from repro.engine.delta import decompose_egd
from repro.engine.incremental import IncrementalChase, UpdateStats
from repro.engine.query import QueryEngine
from repro.errors import NotSupportedError, SchemaError
from repro.graph.database import GraphDatabase
from repro.graph.eval import evaluate_nre, touched_sources
from repro.graph.parser import parse_nre
from repro.io.json_io import graph_to_dict
from repro.mappings.parser import parse_egd, parse_st_tgd
from repro.patterns.pattern import is_null
from repro.relational.instance import RelationalInstance
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
from test_properties.test_nre_properties import nres, rows


# --------------------------------------------------------------------- #
# The differential regimes: (setting, fact pool, queries).
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


def congruence_setting() -> DataExchangeSetting:
    """Functional egds whose keys are nulls: uniting keys unites groups.

    ``S(x, t)`` invents ``x -h-> m -b-> n -a-> t`` and ``B(y, t)`` invents
    ``y -b-> n -a-> t``.  Egd A unites the ``n`` nulls of one ``t``; the
    ``n`` nulls are egd B's keys, so their ``b`` groups unite too, down to
    a constant ``y`` — and two of those on one ``t`` fail the chase.
    """
    s_tgd = parse_st_tgd("S(x, t) -> (x, h, m), (m, b, n), (n, a, t)", name="S_hba")
    b_tgd = parse_st_tgd("B(y, t) -> (y, b, n), (n, a, t)", name="B_ba")
    by_target = parse_egd("(x1, a, k), (x2, a, k) -> x1 = x2", name="A")
    by_key = parse_egd("(y1, b, w), (y2, b, w) -> y1 = y2", name="B")
    return DataExchangeSetting(
        _pair_schema("S", "B"), {"a", "b", "h"}, [s_tgd, b_tgd],
        [by_target, by_key], name="congruence",
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

_CONGRUENCE_POOL = [
    (relation, (left, link))
    for relation, lefts in (("S", ("p1", "p2")), ("B", ("y1", "y2")))
    for left in lefts
    for link in ("t1", "t2")
]

_CASCADE_POOL = [
    ("S", (paper, link)) for paper in ("p1", "p2") for link in ("t1", "t2")
] + [("L", (link, "z")) for link in ("t1", "t2", "t3")] + [("L", ("t1", "y"))]

REGIMES = {
    "flights": (example31_setting, _FLIGHT_POOL, ("f", "h", "f . h", "h*")),
    "failure": (failure_setting, _PAIR_POOL, ("h",)),
    "word-egd": (word_egd_setting, _WORD_POOL, ("f", "f . h")),
    "null-merge": (null_merge_setting, _NULL_MERGE_POOL, ("f . h . g", "g")),
    "cascade": (cascade_setting, _CASCADE_POOL, ("a . h-", "a . k . l")),
    "congruence": (
        congruence_setting, _CONGRUENCE_POOL, ("h . b", "b . a", "h . b . b-")
    ),
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
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_congruence_streams_match_oracle(self, graph_form, data):
        factory, pool, queries = REGIMES["congruence"]
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
        # Deletions re-close only the components they touch, never the
        # whole tenant, and the merged layer is never rebuilt.
        assert live.stats.recloses > 0
        assert live.stats.ids_reclosed < live.stats.recloses * len(live._ids)
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

    def test_deleting_no_functional_edge_skips_the_reclose(self):
        """A deletion whose removed edges are all non-functional only patches."""
        live = IncrementalChase(scale_setting("medlit"))
        live.apply_updates([
            ("insert", "Paper", ("p1", "v1", "2020")),
            ("insert", "Cites", ("p2", "p1")),
        ])
        before = live.stats.summary()
        live.apply_updates([("delete", "Cites", ("p2", "p1"))])
        after = live.stats.summary()
        assert after["fast_deletes"] - before["fast_deletes"] == 1  # the cites edge
        assert after["recloses"] == before["recloses"]
        assert after["merged_rebuilds"] == before["merged_rebuilds"]
        assert_matches_oracle(live, QueryEngine(), [parse_nre("cites")])

    def test_deleting_a_lone_member_recloses_its_two_ids(self):
        """Retracting hz's stop re-closes its city null and hz, nothing more."""
        live = IncrementalChase(example31_setting(), flights_instance())
        live.apply_updates([("insert", "Hotel", ("02", "hz"))])
        before = live.stats.summary()
        live.apply_updates([("delete", "Hotel", ("02", "hz"))])
        after = live.stats.summary()
        assert after["recloses"] == before["recloses"] + 1
        assert after["ids_reclosed"] - before["ids_reclosed"] == 2
        assert after["fast_deletes"] == before["fast_deletes"]
        assert after["merged_rebuilds"] == before["merged_rebuilds"]

    def test_deleting_merge_support_recloses_its_component(self):
        """Removing a fact that fed an egd merge re-closes only hx's component."""
        live = IncrementalChase(example31_setting(), flights_instance())
        assert [len(members) for members in live._members.values()] == [2]
        before = live.stats.summary()
        live.apply_updates([("delete", "Hotel", ("02", "hx"))])
        after = live.stats.summary()
        assert after["merged_rebuilds"] == before["merged_rebuilds"]
        assert after["recloses"] == before["recloses"] + 1
        # hx, the surviving city null, and the retracted one
        assert after["ids_reclosed"] - before["ids_reclosed"] == 3
        assert not live._members
        assert_matches_oracle(live, QueryEngine(), [parse_nre("f . h")])

    def test_churn_leaves_the_merged_journal_as_bootstrapped(self):
        """The merged graph is destructive, so patching it journals nothing."""
        live = IncrementalChase(example31_setting(), flights_instance())
        bootstrapped = len(live._merged.journal_triples())
        for _ in range(1000):
            live.apply_updates([("insert", "Hotel", ("02", "hz"))])
            live.apply_updates([("delete", "Hotel", ("02", "hz"))])
        assert len(live._merged.journal_triples()) == bootstrapped
        assert_matches_oracle(live, QueryEngine(), [parse_nre("f . h")])

    def test_close_span_names_the_path(self):
        """A trace shows ``update.close`` under ``update.apply``: path and ids."""
        live = IncrementalChase(example31_setting(), flights_instance())
        telemetry.set_enabled(True)
        try:
            with telemetry.span("test.root") as root:
                live.apply_updates([("insert", "Hotel", ("02", "hz"))])
                live.apply_updates([("delete", "Hotel", ("02", "hx"))])
        finally:
            telemetry.set_enabled(None)
        closes = []
        for apply in root.children:
            assert apply.name == "update.apply"
            [close] = apply.children
            closes.append((close.name, close.attrs))
        assert closes == [
            ("update.close", {"path": "extend", "ids": 4}),  # c3, c2, hz, a null
            ("update.close", {"path": "reclose", "ids": 3}),
        ]

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
        assert after["recloses"] == before["recloses"]

    def test_cascade_rebuilds_with_the_sequential_fixpoint(self):
        """Word egds are not functional: each edge-changing batch rebuilds.

        Egd A merges the two ``n`` nulls; egd B then merges the two ``m``
        nulls pointing at the merged ``n``.  Deleting one ``L`` fact splits
        both classes, and re-inserting it merges them again.
        """
        live = IncrementalChase(cascade_setting())
        engine, queries = QueryEngine(), [parse_nre("a . h-"), parse_nre("a . k . l")]
        live.apply_updates([
            ("insert", "S", ("p1", "t1")), ("insert", "S", ("p2", "t2")),
            ("insert", "L", ("t1", "z")), ("insert", "L", ("t2", "z")),
        ])
        assert_matches_oracle(live, engine, queries)
        assert live._merged.node_count() == 7  # p1 p2 t1 t2 z, one n, one m
        before = live.stats.summary()
        live.apply_updates([("delete", "L", ("t2", "z"))])
        assert_matches_oracle(live, engine, queries)
        assert live._merged.node_count() == 9
        live.apply_updates([("insert", "L", ("t2", "z"))])
        assert_matches_oracle(live, engine, queries)
        assert live._merged.node_count() == 7
        assert live.stats.merged_rebuilds == before["merged_rebuilds"] + 2
        assert live.stats.recloses == 0

    def test_insert_only_batches_patch_answers(self):
        """An insert-only batch keeps the cache; each query's read patches it."""
        engine = QueryEngine()
        live = IncrementalChase(example31_setting(), flights_instance())
        queries = [parse_nre("f . h"), parse_nre("f*")]
        for query in queries:
            live.certain_answers(query, engine=engine)
        before = engine.stats.as_dict()
        live.apply_updates([("insert", "Hotel", ("02", "hz"))])
        assert_matches_oracle(live, engine, queries)
        after = engine.stats.as_dict()
        assert live.stats.answer_invalidations == 0
        assert live.stats.answer_patches == 2
        assert 0 < live.stats.rows_rederived < 2 * len(live.instance.active_domain())
        # The patches re-derive rows on the merged graph, not through the engine.
        assert after["relations_evaluated"] == before["relations_evaluated"]
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


class TestMergedLayerEdges:
    """Oracle-checked corners of the union-find merged layer."""

    def test_deleting_a_lone_anchor_drops_it(self):
        """A group emptied by a delete forgets its anchor member.

        ``a`` stays alive through ``R(a, v)``, so an anchor left behind at
        ``u`` would unite the next ``u`` member with ``a`` — two constants,
        a false failure.
        """
        live = IncrementalChase(failure_setting())
        queries = [parse_nre("h")]
        live.apply_updates([("insert", "R", ("a", "u")), ("insert", "R", ("a", "v"))])
        before, u = live.stats.summary(), live._ids["u"]
        live.apply_updates([("delete", "R", ("a", "u"))])
        assert live.stats.recloses == before["recloses"] + 1
        assert u not in live._anchors[0] and live._free == [u]
        live.apply_updates([("insert", "R", ("b", "u"))])
        assert not live.failed
        assert_matches_oracle(live, QueryEngine(), queries)

    def test_deleting_the_anchor_of_a_class_with_company(self):
        """Each of hx's three city nulls goes in turn; the rest stay merged."""
        engine, queries = QueryEngine(), [parse_nre("f . h"), parse_nre("h . h-")]
        hits_anchor = False
        for flight in ("01", "02", "03"):
            instance = flights_instance()
            instance.add("Flight", ("03", "c4", "c2"))
            instance.add("Hotel", ("03", "hx"))
            live = IncrementalChase(example31_setting(), instance)
            assert [len(members) for members in live._members.values()] == [3]
            anchor = live._anchors[0][live._ids["hx"]]
            live.apply_updates([("delete", "Hotel", (flight, "hx"))])
            hits_anchor |= not live._incident[anchor]
            assert [len(members) for members in live._members.values()] == [2]
            assert_matches_oracle(live, engine, queries)
            live.apply_updates([("insert", "Hotel", (flight, "hx"))])
            assert_matches_oracle(live, engine, queries)
        assert hits_anchor

    def test_null_merged_into_a_constant_splits_with_its_support(self):
        """A preprint's venue null joins the paper's venue, then leaves it."""
        live = IncrementalChase(scale_setting("medlit"))
        engine = QueryEngine()
        queries = [parse_nre(text) for text in workload_queries("medlit")]
        venue = parse_nre("in_venue")
        live.apply_updates([
            ("insert", "Paper", ("p1", "v1", "2020")),
            ("insert", "Preprint", ("p1",)),
            ("insert", "Paper", ("p3", "v1", "2021")),  # keeps v1 in the domain
            ("insert", "Cites", ("p2", "p1")),
        ])
        assert_matches_oracle(live, engine, queries + [venue])
        assert live.certain_answers(venue).answers == {("p1", "v1"), ("p3", "v1")}
        assert [len(members) for members in live._members.values()] == [2]
        live.apply_updates([("delete", "Paper", ("p1", "v1", "2020"))])
        assert_matches_oracle(live, engine, queries + [venue])
        assert live.certain_answers(venue).answers == {("p3", "v1")}
        assert not live._members

    def test_failure_then_recovery_by_a_delete(self):
        """Two constants meet, more inserts keep it failed, deletes recover."""
        stream = [
            [("insert", ("R", ("a", "u"))), ("insert", ("R", ("a", "v")))],
            [("insert", ("R", ("b", "u")))],
            [("insert", ("R", ("c", "v")))],
            [("delete", ("R", ("b", "u")))],
            [("delete", ("R", ("c", "v"))), ("insert", ("R", ("c", "u")))],
            [("delete", ("R", ("c", "u")))],
        ]
        verdicts = []
        live = IncrementalChase(failure_setting())
        for batch in stream:
            live.apply_updates(
                [(op, relation, values) for op, (relation, values) in batch]
            )
            assert_matches_oracle(live, QueryEngine(), [parse_nre("h")])
            verdicts.append(live.failed)
        assert verdicts == [False, True, True, True, True, False]
        assert live.stats.merged_rebuilds == 1 + 3  # the bootstrap, then each delete

    def test_a_reused_low_id_never_displaces_a_live_root(self):
        """A null class roots at its earliest-born id, not its least id.

        A throwaway trigger's ids die and are freed; a later null of a live
        hotel class takes one of them, below the class root.  The root
        stays, so no edge of the class moves.
        """
        engine = QueryEngine()
        queries = [parse_nre("f . h"), parse_nre("f . f")]
        live = IncrementalChase(example31_setting())
        live.apply_updates([("insert", "Flight", ("01", "a0", "b0")),
                            ("insert", "Hotel", ("01", "h0"))])
        for flight in ("02", "03"):
            live.apply_updates([("insert", "Flight", (flight, "c1", "c2")),
                                ("insert", "Hotel", (flight, "hq"))])
        live.apply_updates([("delete", "Flight", ("01", "a0", "b0"))])
        assert_matches_oracle(live, engine, queries)
        freed = set(live._free)
        (root, members), = live._members.items()
        assert freed and max(freed) < root and len(members) == 2
        moved = live.stats.edges_moved
        live.apply_updates([("insert", "Flight", ("04", "c1", "c2")),
                            ("insert", "Hotel", ("04", "hq"))])
        (kept, members), = live._members.items()
        assert kept == root and len(members) == 3
        assert min(members) in freed  # the new null reused a lower id
        assert live.stats.edges_moved == moved
        assert_matches_oracle(live, engine, queries)

    @pytest.mark.parametrize("family", ["medlit", "social"])
    def test_delete_then_reinsert_in_one_batch(self, family):
        """Deleting and restoring merge-feeding facts in one batch is a no-op."""
        config = GeneratorConfig(family=family, nodes=80, seed=5)
        instance = generate_instance(config)
        facts = sorted(instance, key=repr)[::20]
        live = IncrementalChase(scale_setting(family), instance)
        engine = QueryEngine()
        queries = [parse_nre(text) for text in workload_queries(family)]
        origin = canonical_bytes(graph_to_dict(live.chase_result().graph))
        live.apply_updates([
            (op, relation, values)
            for relation, values in facts
            for op in ("delete", "insert")
        ])
        assert canonical_bytes(graph_to_dict(live.chase_result().graph)) == origin
        (relation, values), (other, other_values) = facts[:2]
        live.apply_updates([
            ("delete", relation, values), ("insert", relation, values),
            ("delete", other, other_values),
        ])
        assert_matches_oracle(live, engine, queries)


MEDLIT_80 = GeneratorConfig(family="medlit", nodes=80, seed=5)


def medlit_pool() -> list:
    """The medlit-80 tenant's facts plus 80 fresh facts that graft onto it."""
    fresh = [
        (relation, values)
        for batch in update_stream(MEDLIT_80, 2, 40, 0.0)
        for _, relation, values in batch
    ]
    return sorted(generate_instance(MEDLIT_80), key=repr) + fresh


class TestLargeBatches:
    """Batches of up to 40 operations on a medlit-80 tenant."""

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_medlit_batches_match_oracle(self, data):
        pool = medlit_pool()
        step = st.tuples(st.sampled_from(["insert", "delete"]), st.sampled_from(pool))
        batches = data.draw(
            st.lists(st.lists(step, min_size=1, max_size=40), min_size=1, max_size=3)
        )
        engine = QueryEngine()
        queries = [parse_nre(text) for text in workload_queries("medlit")]
        live = IncrementalChase(scale_setting("medlit"), generate_instance(MEDLIT_80))
        for batch in batches:
            live.apply_updates(
                [(op, relation, values) for op, (relation, values) in batch]
            )
            assert_matches_oracle(live, engine, queries)

    def test_fresh_fact_churn_reuses_dead_ids(self):
        """Nodes that lose their last edge give their ids back for reuse.

        Twelve rounds each insert 40 fresh facts and then delete them, so
        every round brings nodes the tenant has never seen; the id table
        stays within the most nodes ever live at once.
        """
        live = IncrementalChase(scale_setting("medlit"), generate_instance(MEDLIT_80))
        live_ids, peak = len(live._ids), len(live._ids)
        for batch in update_stream(MEDLIT_80, 12, 40, 0.0):
            fresh = [("delete", relation, values) for _, relation, values in batch
                     if not live.instance.contains(relation, values)]
            live.apply_updates(batch)
            peak = max(peak, len(live._ids))
            live.apply_updates(fresh)
            assert len(live._ids) == live_ids
        assert len(live._nodes) <= peak
        assert all(live._incident[ident] for ident in live._ids.values())
        # Each class roots at its earliest-born null, whatever the order
        # its ids were assigned in: least birth batch, then least CRC-32
        # of its label, then least label.
        def rank(ident):
            label = live._nodes[ident].label
            return live._birth[ident], crc32(label.encode()), label

        for root, members in live._members.items():
            if not live._constant[root]:
                assert root == min(members, key=rank)
        queries = [parse_nre(text) for text in workload_queries("medlit")]
        assert_matches_oracle(live, QueryEngine(), queries)

    def test_batches_build_no_backward_index(self, monkeypatch):
        """The merged graph grows edge by edge, so each of its labels keeps
        both directions from its first edge: no batch, and no read after
        one, derives a backward index from a forward one."""
        queries = [parse_nre(text) for text in workload_queries("medlit")]
        live = IncrementalChase(scale_setting("medlit"), generate_instance(MEDLIT_80))
        for query in queries:
            live.certain_answers(query)
        derived = []
        backward_index = GraphDatabase.backward_index

        def recording(graph, label):
            if label not in graph._bwd and graph.label_count(label):
                derived.append(label)
            return backward_index(graph, label)

        monkeypatch.setattr(GraphDatabase, "backward_index", recording)
        for batch in update_stream(MEDLIT_80, 10, 40, 0.4):
            live.apply_updates(batch)
            for query in queries:
                live.certain_answers(query)
        assert live.stats.answer_patches and derived == []


# --------------------------------------------------------------------- #
# The answer layer: cached answers patched batch after batch.
# --------------------------------------------------------------------- #


def assert_reads_match_reference(live: IncrementalChase, queries) -> None:
    """Each query's live answers == the reference engine on a fresh chase."""
    setting = live.setting
    oracle = chase_relational(
        setting.st_tgds, list(setting.egds()), live.instance,
        alphabet=setting.alphabet,
    )
    domain = live.instance.active_domain()
    for query in queries:
        answers = live.certain_answers(query)
        if oracle.failed:
            assert answers.no_solution and answers.answers == frozenset()
        else:
            assert answers.answers == ReferenceEngine().answers_over(
                oracle.graph, query, domain
            )


class TestPatchedAnswers:
    @pytest.mark.parametrize(
        "regime", ["flights", "null-merge", "congruence", "failure"]
    )
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_random_queries_patch_to_the_reference(self, regime, data):
        """The first query is read after every batch, the others when drawn.

        A query left unread for several batches patches over all their
        deltas at once; the failure regime fails and recovers.
        """
        factory, pool, _ = REGIMES[regime]
        setting = factory()
        alphabet = tuple(sorted(setting.alphabet))
        queries = data.draw(
            st.lists(nres(alphabet=alphabet), min_size=2, max_size=4, unique=True)
        )
        instance = RelationalInstance(setting.source_schema)
        for relation, values in data.draw(st.lists(st.sampled_from(pool), unique=True)):
            instance.add(relation, values)
        live = IncrementalChase(setting, instance)
        assert_reads_match_reference(live, queries)
        for batch in data.draw(stream_strategy(pool)):
            live.apply_updates(
                [(op, relation, values) for op, (relation, values) in batch]
            )
            read = [query for query in queries[1:] if data.draw(st.booleans())]
            assert_reads_match_reference(live, [queries[0], *read])
        assert_reads_match_reference(live, queries)

    def test_reads_across_several_batches_patch_once(self):
        engine = QueryEngine()
        live = IncrementalChase(scale_setting("medlit"), generate_instance(MEDLIT_80))
        query = parse_nre("cites* . in_venue + [mentions] . discusses")
        live.certain_answers(query, engine=engine)
        for batch in update_stream(MEDLIT_80, 4, 6, 0.4):
            live.apply_updates(batch)
        assert live._answers[query].pending
        assert_reads_match_reference(live, [query])
        assert live.stats.answer_patches == 1
        assert not live._answers[query].pending  # the answer has caught up
        assert engine.stats.relations_evaluated == 1

    def test_a_pending_delta_never_outgrows_the_merged_graph(self):
        """An answer left unread until its pending delta outgrows the graph is dropped."""
        live = IncrementalChase(example31_setting(), flights_instance())
        stale, read = parse_nre("f . h"), parse_nre("f*")
        hotels = [("Hotel", ("02", f"hz{hotel}")) for hotel in range(8)]
        live.apply_updates([("insert", *fact) for fact in hotels])
        assert_reads_match_reference(live, [stale, read])
        for fact in hotels:  # most facts go: the graph shrinks, the delta grows
            live.apply_updates([("delete", *fact)])
            assert_reads_match_reference(live, [read])
            for cached in live._answers.values():
                bound = live._merged.edge_count() + live._merged.node_count()
                assert len(cached.pending) <= bound
        assert stale not in live._answers and live.stats.answer_invalidations == 1
        assert read in live._answers
        assert_reads_match_reference(live, [stale, read])

    def test_a_cancelling_churn_leaves_nothing_pending(self):
        live = IncrementalChase(example31_setting(), flights_instance())
        query = parse_nre("f . h")
        live.certain_answers(query)
        for hotel in range(8):
            for op in ("insert", "delete"):
                live.apply_updates([(op, "Hotel", ("02", f"hz{hotel}"))])
            assert not live._answers[query].pending
        rows = live.stats.rows_rederived
        assert_reads_match_reference(live, [query])
        assert live.stats.rows_rederived == rows

    def test_a_pending_delta_is_exactly_what_changed_since_the_read(self):
        """The invariant a nest's exact touched rule rests on (see ``_Delta``)."""
        live = IncrementalChase(scale_setting("medlit"), generate_instance(MEDLIT_80))
        query = parse_nre("cites . [mentions] . in_venue")
        live.certain_answers(query)

        def merged():
            return ({(e.source, e.label, e.target) for e in live._merged.edges()},
                    set(live._merged.nodes()))

        edges, nodes = merged()
        for position, batch in enumerate(update_stream(MEDLIT_80, 4, 12, 0.5)):
            live.apply_updates(batch)
            now_edges, now_nodes = merged()
            pending = live._answers[query].pending
            assert pending.edges == edges ^ now_edges
            assert pending.nodes == nodes ^ now_nodes
            if position % 2:  # a read catches the answer up
                assert_reads_match_reference(live, [query])
                edges, nodes = now_edges, now_nodes
        assert live.stats.merged_rebuilds == 1  # the bootstrap's: every batch patched
        assert live.stats.answer_patches == 2

    def test_a_held_answer_never_changes_under_later_batches(self):
        live = IncrementalChase(scale_setting("medlit"), generate_instance(MEDLIT_80))
        query = parse_nre("cites* . in_venue")
        live.certain_answers(query)
        batches = list(update_stream(MEDLIT_80, 4, 12, 0.5))
        live.apply_updates(batches[0])
        held = live.certain_answers(query).answers
        assert not isinstance(held, frozenset)  # the patched read's view
        pairs = frozenset(held)
        for batch in batches[1:]:
            live.apply_updates(batch)
            assert_reads_match_reference(live, [query])
        assert live.certain_answers(query).answers != pairs
        assert held == pairs and pairs == held
        assert len(held) == len(pairs) and sorted(held, key=repr) == sorted(pairs, key=repr)
        assert all(pair in held for pair in pairs)
        assert ("nobody", "nothing") not in held and "pair" not in held
        extra = frozenset({("nobody", "nothing")})
        assert isinstance(held | extra, frozenset) and held | extra == pairs | extra
        assert held & pairs == pairs and not held - pairs
        assert hash(held) == hash(pairs)

    def test_failure_then_recovery_recomputes_then_patches(self):
        live = IncrementalChase(failure_setting())
        query = parse_nre("h . h-")
        live.apply_updates([("insert", "R", ("a", "u")), ("insert", "R", ("b", "v"))])
        assert_reads_match_reference(live, [query])
        live.apply_updates([("insert", "R", ("c", "w"))])
        assert_reads_match_reference(live, [query])
        assert live.stats.answer_patches == 1
        live.apply_updates([("insert", "R", ("b", "u"))])  # a and b meet at u
        assert live.failed and live.stats.answer_invalidations == 1
        assert_reads_match_reference(live, [query])
        live.apply_updates([("delete", "R", ("b", "u"))])  # recovery rebuilds
        assert_reads_match_reference(live, [query])
        live.apply_updates([("delete", "R", ("c", "w"))])
        assert_reads_match_reference(live, [query])
        assert live.stats.answer_patches == 2

    def test_no_delta_is_captured_while_nothing_is_cached(self):
        live = IncrementalChase(example31_setting(), flights_instance())
        recording = []  # the batch delta the merged-layer patch records into
        update_merged = live._update_merged

        def spy(*args):
            recording.append(live._delta)
            return update_merged(*args)

        live._update_merged = spy
        live.apply_updates([("insert", "Hotel", ("02", "hz"))])
        assert recording == [None] and not live._answers
        query = parse_nre("f . h")
        live.certain_answers(query)
        live.apply_updates([("delete", "Hotel", ("02", "hz"))])
        assert recording[-1] is not None and live._delta is None
        assert "hz" in live._answers[query].pending.nodes

    def test_touched_sources_cover_every_changed_row_of_a_batch(self):
        """Rows of the full relations before and after each batch, compared."""
        texts = workload_queries("medlit") + (
            "cites*", "(cites + mentions-)*", "[about] . about-", "()",
            "mentions . (discusses . about)*",
        )
        queries = [parse_nre(text) for text in texts]
        live = IncrementalChase(scale_setting("medlit"), generate_instance(MEDLIT_80))
        changed = 0
        for batch in update_stream(MEDLIT_80, 4, 40, 0.4):
            live.certain_answers(queries[0])  # something cached: deltas are kept
            before = {
                query: rows(evaluate_nre(live._merged, query)) for query in queries
            }
            nodes, domain = live._merged.nodes(), live.instance.active_domain()
            live.apply_updates(batch)
            delta = live._answers[queries[0]].pending
            # A constant entering or leaving the domain as a merged node
            # enters or leaves the node set: no domain delta is needed.
            moved = domain ^ live.instance.active_domain()
            assert moved & (nodes | live._merged.nodes()) <= delta.nodes
            # So a merged node is in the domain exactly when it is a constant.
            constants = {node for node in live._merged.nodes() if not is_null(node)}
            assert constants <= live.instance.active_domain()
            for query in queries:
                after = rows(evaluate_nre(live._merged, query))
                differ = {
                    source for source in before[query].keys() | after.keys()
                    if before[query].get(source) != after.get(source)
                }
                changed += len(differ)
                assert differ <= touched_sources(
                    live._merged, query, delta.edges, delta.nodes
                )
        assert changed


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
        assert {"egd_merges", "fast_deletes", "merged_rebuilds", "recloses",
                "ids_reclosed", "edges_moved", "triggers_added",
                "answer_patches", "rows_rederived",
                "answer_invalidations"} <= set(summary)
