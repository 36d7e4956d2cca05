"""Differential properties of NRE evaluation on frozen graphs.

There is one NRE search, :meth:`repro.graph.automaton._Runner._search`.
A frozen or snapshot-loaded graph answers through it by serving its
dict-shaped ``forward_index`` / ``backward_index`` views from the CSR
buffers.  Every :class:`~repro.engine.query.QueryEngine` entry point —
``pairs``, ``reachable``, ``reachable_many``, ``holds`` and
``answers_over`` — must therefore give the reference answers
(``tests/oracles/reference_engine.py``) on each *form* of one graph:

* the dict-backed graph ``g`` as built;
* ``g.freeze()``, with numpy present (``int64`` buffers) and with numpy
  masked (:class:`array.array` buffers);
* ``load_snapshot`` of that frozen graph, again under both buffer types.

Pinned over Hypothesis graphs × random NREs (inverse labels, nested tests,
stars) and over chased ``medlit`` / ``social`` tenants with their
workload queries.  The mask is one attribute (``repro.kernels.NUMPY``)
because all numpy access in the library routes through
:func:`repro.kernels.get_numpy`.
"""

import os
import random
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from oracles import ReferenceEngine
from repro import kernels
from repro.chase.relational_chase import chase_relational
from repro.engine.query import QueryEngine
from repro.graph.parser import parse_nre
from repro.graph.snapshot import load_snapshot, save_snapshot
from repro.scenarios.generators import random_graph, random_nre
from repro.scenarios.scale import (
    GeneratorConfig,
    generate_instance,
    scale_setting,
    workload_queries,
)

ALPHABET = ("a", "b", "c")

FORMS = ("dict", "frozen", "snapshot")
NUMPY_STATES = ("present", "masked")


def graph_form(graph, form: str, numpy_state: str):
    """``graph`` as the named form, its CSR buffers built under the mask."""
    if form == "dict":
        return graph
    numpy_module = kernels.NUMPY if numpy_state == "present" else None
    with mock.patch.object(kernels, "NUMPY", numpy_module):
        frozen = graph.freeze()
        if form == "frozen":
            return frozen
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "graph.snap")
            save_snapshot(frozen, path)
            return load_snapshot(path)


def every_form(graph):
    """``(label, form)`` for the dict graph and each frozen/loaded form."""
    yield "dict", graph
    for form in FORMS[1:]:
        for numpy_state in NUMPY_STATES:
            if numpy_state == "present" and kernels.NUMPY is None:
                continue
            loaded = graph_form(graph, form, numpy_state)
            assert loaded.is_frozen
            yield f"{form} (numpy {numpy_state})", loaded


def probes_for(nodes):
    """A spread of single-pair probes over ``nodes``, self-pairs included."""
    return [
        (u, nodes[(i * 3 + 1) % len(nodes)]) for i, u in enumerate(nodes)
    ] + [(u, u) for u in nodes[:3]]


def assert_forms_agree(graph, expr, domain=None):
    """Every engine entry point on every form equals the reference answers."""
    reference = ReferenceEngine()
    nodes = sorted(graph.nodes(), key=repr)
    sources = nodes + ["not-in-graph"]
    probes = probes_for(nodes) if nodes else []
    domain = nodes[::2] if domain is None else domain
    expected = {
        "pairs": reference.pairs(graph, expr),
        "reachable": [reference.reachable(graph, expr, s) for s in sources],
        "reachable_many": reference.reachable_many(graph, expr, sources),
        "holds": [reference.holds(graph, expr, u, v) for u, v in probes],
        "answers_over": reference.answers_over(graph, expr, domain),
    }
    for label, form in every_form(graph):
        # A fresh engine per entry point: a cached pairs() answer would
        # otherwise serve the later calls without running their search.
        answers = {
            "pairs": QueryEngine().pairs(form, expr),
            "reachable": [QueryEngine().reachable(form, expr, s) for s in sources],
            "reachable_many": QueryEngine().reachable_many(form, expr, sources),
            "holds": [QueryEngine().holds(form, expr, u, v) for u, v in probes],
            "answers_over": QueryEngine().answers_over(form, expr, domain),
        }
        for entry, answer in answers.items():
            assert answer == expected[entry], f"{entry} diverged on {label}"


@st.composite
def graphs(draw, max_nodes=6, max_edges=12):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    nodes = draw(st.integers(min_value=1, max_value=max_nodes))
    edges = draw(st.integers(min_value=0, max_value=max_edges))
    return random_graph(nodes, edges, alphabet=ALPHABET, rng=random.Random(seed))


@st.composite
def nres(draw, max_depth=3):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    depth = draw(st.integers(min_value=0, max_value=max_depth))
    return random_nre(depth=depth, alphabet=ALPHABET, rng=random.Random(seed))


class TestRandomGraphs:
    @settings(max_examples=60, deadline=None)
    @given(graphs(), nres())
    def test_every_form_agrees_with_reference(self, graph, expr):
        assert_forms_agree(graph, expr)

    @pytest.mark.parametrize(
        "text", ["a- . b*", "(a + b-)*[c]", "a*[b . c-*] . a-", "[a*[b]]"]
    )
    @settings(max_examples=15, deadline=None)
    @given(graph=graphs(max_nodes=8, max_edges=20))
    def test_inverse_nested_and_star_queries(self, text, graph):
        assert_forms_agree(graph, parse_nre(text))


class TestWorkloadTenants:
    """Chased scale tenants with the queries the benchmarks serve."""

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("family", ["medlit", "social"])
    def test_workload_queries_agree_on_every_form(self, family, seed):
        setting = scale_setting(family)
        instance = generate_instance(
            GeneratorConfig(family=family, nodes=40, seed=seed)
        )
        chased = chase_relational(
            setting.st_tgds, setting.egds(), instance, alphabet=setting.alphabet
        )
        graph = chased.expect_graph()
        domain = sorted(instance.active_domain(), key=repr)
        for text in workload_queries(family):
            assert_forms_agree(graph, parse_nre(text), domain=domain)


class TestFrozenStateSharing:
    """A frozen graph shares the engine's fingerprint-keyed cache entry."""

    def test_frozen_twin_reuses_the_dict_graphs_answers(self):
        graph = random_graph(6, 12, alphabet=ALPHABET, rng=random.Random(7))
        expr = parse_nre("a* . b-")
        engine = QueryEngine()
        expected = engine.pairs(graph, expr)
        assert engine.pairs(graph.freeze(), expr) == expected
        assert engine.stats.graph_cache_hits == 1
        assert engine.stats.graph_cache_misses == 1

    def test_frozen_state_is_not_rebound_to_a_dict_twin(self):
        graph = random_graph(6, 12, alphabet=ALPHABET, rng=random.Random(8))
        frozen = graph.freeze()
        expr = parse_nre("(a + c)*")
        engine = QueryEngine()
        engine.pairs(frozen, expr)
        engine.reachable(graph, expr, sorted(graph.nodes(), key=repr)[0])
        assert engine._cache[graph.fingerprint()].graph is frozen

    @pytest.mark.parametrize("backend", ["dict", "csr"])
    def test_retired_backend_keyword_changes_nothing(self, backend):
        graph = random_graph(6, 12, alphabet=ALPHABET, rng=random.Random(9))
        expr = parse_nre("a . b*")
        engine = QueryEngine(backend=backend)
        assert engine.pairs(graph, expr) == QueryEngine().pairs(graph, expr)
        assert not engine._cache[graph.fingerprint()].graph.is_frozen

    def test_unknown_backend_keyword_is_refused(self):
        with pytest.raises(ValueError, match="unknown storage backend"):
            QueryEngine(backend="vector")


class TestKernelsShim:
    """``repro.kernels`` names the one search for the benchmark harness."""

    def test_resolve_kernel_names_the_dict_search(self):
        assert kernels.resolve_kernel(None) == "dict"

    @pytest.mark.parametrize("kernel", ["vector", "codegen", "dict"])
    def test_no_kernel_can_be_selected(self, kernel):
        with pytest.raises(ValueError, match="cannot be selected"):
            kernels.resolve_kernel(kernel)
