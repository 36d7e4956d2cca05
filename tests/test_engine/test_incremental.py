"""Differential update-stream tests for the incremental chase.

The acceptance property of PR 6 lives here: after **every** step of a
random interleaving of inserts, deletes, and queries, the incrementally
maintained solution must be *byte-identical* to a from-scratch
:func:`~repro.chase.relational_chase.chase_relational` over the current
instance — same graph (same null names, via ``canonical_bytes`` over the
JSON rendering), same failure verdict and witness, and the same certain
answers a fresh engine computes over the oracle's graph.

Four regimes exercise the distinct repair paths:

* the paper's Example 3.1 setting over random Flight/Hotel churn
  (constant-null egd merges, trigger add/remove);
* a failure-capable functional-dependency setting where deletes can
  *unfail* a previously failed chase;
* a word-egd setting (``f . h`` bodies) driving the egd-decomposition
  chains; and
* a word-egd null-merge setting where the merged nodes are themselves
  nulls (merge-provenance and delete-then-reinsert churn).
"""


import pytest
from hypothesis import given, settings, strategies as st

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

REGIMES = {
    "flights": (example31_setting, _FLIGHT_POOL, ("f", "h", "f . h")),
    "failure": (failure_setting, _PAIR_POOL, ("h",)),
    "word-egd": (word_egd_setting, _WORD_POOL, ("f", "f . h")),
    "null-merge": (null_merge_setting, _NULL_MERGE_POOL, ("f . h . g", "g")),
}


# --------------------------------------------------------------------- #
# The oracle check: byte-identity against a from-scratch chase.
# --------------------------------------------------------------------- #


def assert_matches_oracle(live: IncrementalChase, engine, queries) -> None:
    """Live state == from-scratch chase of the *current* instance, in bytes."""
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
            expected = frozenset(
                pair
                for pair in engine.answers_over(oracle.graph, query, domain)
            )
            assert answers.answers == expected


def run_stream(setting_factory, pool, query_texts, batches, backend):
    """Drive one update stream, checking the oracle after every batch."""
    engine = QueryEngine(backend=backend)
    queries = [parse_nre(text) for text in query_texts]
    live = IncrementalChase(setting_factory())
    assert_matches_oracle(live, engine, queries)
    for batch in batches:
        live.apply_updates(
            [(op, relation, values) for op, (relation, values) in batch]
        )
        assert_matches_oracle(live, engine, queries)
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


BACKENDS = ("dict", "csr")


class TestDifferentialStreams:
    @pytest.mark.parametrize("backend", BACKENDS)
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_flights_streams_match_oracle(self, backend, data):
        factory, pool, queries = REGIMES["flights"]
        run_stream(
            factory, pool, queries, data.draw(stream_strategy(pool)), backend
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_failure_streams_match_oracle(self, backend, data):
        factory, pool, queries = REGIMES["failure"]
        run_stream(
            factory, pool, queries, data.draw(stream_strategy(pool)), backend
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_word_egd_streams_match_oracle(self, backend, data):
        factory, pool, queries = REGIMES["word-egd"]
        run_stream(
            factory, pool, queries, data.draw(stream_strategy(pool)), backend
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_null_merge_streams_match_oracle(self, backend, data):
        factory, pool, queries = REGIMES["null-merge"]
        run_stream(
            factory, pool, queries, data.draw(stream_strategy(pool)), backend
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("regime", sorted(REGIMES))
    def test_pinned_churn_on_both_backends(self, regime, backend):
        """A deterministic delete-then-reinsert stream on each backend."""
        factory, pool, queries = REGIMES[regime]
        churn = [
            [("insert", fact) for fact in pool],
            [("delete", pool[0]), ("insert", pool[0]), ("delete", pool[1])],
            [("delete", fact) for fact in pool[2:]],
            [("insert", pool[1]), ("insert", pool[2])],
        ]
        run_stream(factory, pool, queries, churn, backend=backend)


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

    def test_deleting_merge_support_rebuilds(self):
        """Removing a fact that fed an egd merge forces the sound rebuild."""
        live = IncrementalChase(example31_setting(), flights_instance())
        before = live.stats.merged_rebuilds
        live.apply_updates([("delete", "Hotel", ("02", "hx"))])
        assert live.stats.merged_rebuilds == before + 1

    def test_insert_only_batches_patch_answers(self):
        live = IncrementalChase(example31_setting(), flights_instance())
        query = parse_nre("f . h")
        live.certain_answers(query)
        live.apply_updates([("insert", "Hotel", ("02", "hz"))])
        live.certain_answers(query)
        assert live.stats.answer_patches >= 1

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
                "answer_patches", "answer_invalidations"} <= set(summary)
