"""Hypothesis properties of the scalable workload families.

Three families of properties over random :class:`GeneratorConfig` draws:

* **well-formedness** — every streamed fact fits the family's declared
  source schema, and the stream is byte-identical per seed and invariant
  under re-batching (the contracts ``repro genscale`` and the scale CI
  jobs rely on);
* **chase agreement** — the incremental engine's bootstrap is
  byte-identical to the from-scratch relational chase on generated
  tenants (the soak tests extend this to full update streams);
* **certain-answer agreement** — on ~10^2-node draws, the compiled
  query engine returns the same certain answers over the chased
  universal solution as dict graph and as its frozen twin, with the CSR
  buffers built with numpy present and masked, and all of them match
  the set-algebraic reference evaluation.  The families
  sit in the Section 3.1 fragment, so naive evaluation *is* the certain
  answer semantics here (:mod:`repro.core.tractable`).
"""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro import kernels
from repro.chase.relational_chase import chase_relational
from repro.engine.incremental import IncrementalChase
from repro.engine.query import QueryEngine
from repro.graph.eval import evaluate_nre
from repro.graph.parser import parse_nre
from repro.io.json_io import graph_to_dict
from repro.patterns.pattern import is_null
from repro.scenarios.scale import (
    FAMILIES,
    GeneratorConfig,
    generate_instance,
    iter_fact_batches,
    iter_facts,
    scale_setting,
    workload_queries,
)
from repro.service.protocol import canonical_bytes

@st.composite
def configs(draw, min_nodes=10, max_nodes=120):
    family = draw(st.sampled_from(FAMILIES))
    nodes = draw(st.integers(min_value=min_nodes, max_value=max_nodes))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    knobs = {}
    if family == "medlit":
        knobs["null_rate"] = draw(
            st.floats(min_value=0.0, max_value=0.5, allow_nan=False)
        )
        knobs["preprint_rate"] = draw(
            st.floats(min_value=0.0, max_value=0.5, allow_nan=False)
        )
        knobs["cite_mean"] = draw(
            st.floats(min_value=0.0, max_value=4.0, allow_nan=False)
        )
    else:
        knobs["attach"] = draw(st.integers(min_value=1, max_value=5))
        knobs["homophily"] = draw(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
        )
    return GeneratorConfig(family=family, nodes=nodes, seed=seed, **knobs)


class TestWellFormedness:
    @settings(max_examples=40, deadline=None)
    @given(configs())
    def test_facts_fit_the_schema(self, config):
        schema = scale_setting(config.family).source_schema
        names = set(schema.names())
        for relation, values in iter_facts(config):
            assert relation in names
            assert schema.get(relation).arity == len(values)
            assert all(isinstance(value, str) and value for value in values)

    @settings(max_examples=40, deadline=None)
    @given(configs())
    def test_streams_are_byte_identical_per_seed(self, config):
        assert list(iter_facts(config)) == list(iter_facts(config))

    @settings(max_examples=40, deadline=None)
    @given(configs(), st.integers(min_value=1, max_value=500))
    def test_batching_is_stream_invariant(self, config, batch_size):
        rebatched = config.scaled(batch_size=batch_size)
        flattened = [
            fact for batch in iter_fact_batches(rebatched) for fact in batch
        ]
        assert flattened == list(iter_facts(config))

    @settings(max_examples=20, deadline=None)
    @given(configs())
    def test_generated_tenants_always_chase(self, config):
        setting = scale_setting(config.family)
        result = chase_relational(
            setting.st_tgds, setting.egds(), generate_instance(config),
            alphabet=setting.alphabet,
        )
        assert not result.failed


class TestChaseAgreement:
    @settings(max_examples=15, deadline=None)
    @given(configs(max_nodes=60))
    def test_incremental_bootstrap_matches_from_scratch(self, config):
        setting = scale_setting(config.family)
        instance = generate_instance(config)
        oracle = chase_relational(
            setting.st_tgds, setting.egds(), instance,
            alphabet=setting.alphabet,
        )
        live = IncrementalChase(setting, instance)
        assert canonical_bytes(
            graph_to_dict(live.chase_result().graph)
        ) == canonical_bytes(graph_to_dict(oracle.graph))


class TestCertainAnswerAgreement:
    @settings(max_examples=10, deadline=None)
    @given(configs(min_nodes=60, max_nodes=120))
    def test_every_graph_form_agrees_with_the_reference(self, config):
        setting = scale_setting(config.family)
        instance = generate_instance(config)
        chased = chase_relational(
            setting.st_tgds, setting.egds(), instance,
            alphabet=setting.alphabet,
        )
        universal = chased.expect_graph()
        for text in workload_queries(config.family):
            query = parse_nre(text)
            reference = frozenset(
                (u, v)
                for u, v in evaluate_nre(universal, query)
                if not is_null(u) and not is_null(v)
            )
            for numpy_module in (None, kernels.NUMPY):
                with mock.patch.object(kernels, "NUMPY", numpy_module):
                    frozen = universal.freeze()
                for label, graph in (("dict", universal), ("frozen", frozen)):
                    compiled = frozenset(
                        (u, v)
                        for u, v in QueryEngine().pairs(graph, query)
                        if not is_null(u) and not is_null(v)
                    )
                    assert compiled == reference, (
                        config.family, text, label, numpy_module is None
                    )
