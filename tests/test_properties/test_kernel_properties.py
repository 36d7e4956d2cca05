"""Differential properties of the CSR searches (vector ≡ codegen ≡ dict).

The runner (:class:`repro.graph.automaton._Runner`) picks its search by
call shape: dict-backed graphs run the generic hash-indexed search; on
frozen CSR graphs sweeps run the numpy vector search
(:mod:`repro.graph.vector`) and single-pair probes the generated-code
search (:mod:`repro.graph.codegen`), which also serves sweeps when numpy
is absent.  Every path must be answer-identical to the set-algebraic
reference evaluator.  Pinned here over random graphs × random NREs and
over random chase runs:

* **query differential**: every (backend × numpy present/masked) cell of
  :class:`~repro.engine.query.QueryEngine` returns the reference answers —
  all-pairs, single-source, single-pair, and the batched multi-source
  entry point — so the dict, vector and codegen searches are all covered;
* **routing**: with numpy present a CSR ``holds`` runs codegen and
  ``pairs`` runs the vector search; with numpy masked both run codegen;
* **chase differential**: the egd chase and the sameAs construction give
  identical results with numpy present and with numpy masked, including
  the violation picked as a failure witness;
* **sameAs strategy differential**: the union-find saturation strategy
  produces *byte-identical* output to the journal-order oracle it
  replaced — same graph content, same serialized document bytes.

The mask is one attribute (``repro.kernels.NUMPY``) because all numpy
access in the library routes through :func:`repro.kernels.get_numpy`.
"""

import json
import os
import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro import kernels
from repro.chase.egd_chase import chase_with_egds
from repro.chase.pattern_chase import chase_pattern
from repro.chase.sameas_chase import saturate_sameas, solve_with_sameas
from repro.engine.query import QueryEngine, ReferenceEngine
from repro.graph.database import GraphDatabase
from repro.graph.parser import parse_nre
from repro.io.json_io import graph_to_dict
from repro.mappings.parser import parse_sameas
from repro.mappings.sameas import SAME_AS_LABEL
from repro.patterns.rep import canonical_instantiation
from repro.scenarios.flights import flights_st_tgd, hotel_egd, hotel_sameas
from repro.scenarios.generators import (
    random_flights_instance,
    random_graph,
    random_nre,
)

ALPHABET = ("a", "b", "c")

BACKENDS = ("dict", "csr")

_hotel_sameas_constraint = hotel_sameas()
_symmetry_constraint = parse_sameas("(x, sameAs, y) -> (y, sameAs, x)")
_transitivity_constraint = parse_sameas(
    "(x, sameAs, y), (y, sameAs, z) -> (x, sameAs, z)"
)


def _chased_graph(instance):
    """Steps (i)–(ii) of the sameAs construction: chase, then instantiate."""
    pattern = chase_pattern(
        [flights_st_tgd()], instance, alphabet={"f", "h"}
    ).pattern
    return canonical_instantiation(pattern, alphabet=pattern.alphabet).graph


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


@st.composite
def flight_instances(draw):
    seed = draw(st.integers(min_value=0, max_value=100_000))
    flights = draw(st.integers(min_value=1, max_value=5))
    cities = draw(st.integers(min_value=2, max_value=4))
    hotels = draw(st.integers(min_value=1, max_value=3))
    return random_flights_instance(
        flights, cities=cities, hotels=hotels, rng=random.Random(seed)
    )


GRID = [
    (backend, numpy_module)
    for backend in BACKENDS
    for numpy_module in (kernels.NUMPY, None)
]
"""(backend, numpy module or ``None`` for masked) — one engine per cell."""


def run_grid(query):
    """Run ``query(engine)`` on a fresh engine in every grid cell.

    The numpy mask stays in place for the engine's whole life, so a CSR
    freeze and the runner's search choice both see it.  Returns a list
    of ``(cell label, result)``.
    """
    results = []
    for backend, numpy_module in GRID:
        with mock.patch.object(kernels, "NUMPY", numpy_module):
            result = query(QueryEngine(backend=backend))
        numpy_state = "masked" if numpy_module is None else "present"
        results.append((f"backend={backend} numpy {numpy_state}", result))
    return results


class TestQueryKernelDifferential:
    @settings(max_examples=100, deadline=None)
    @given(graphs(), nres())
    def test_all_pairs_agree_with_reference(self, graph, expr):
        expected = ReferenceEngine().pairs(graph, expr)
        for cell, answer in run_grid(lambda engine: engine.pairs(graph, expr)):
            assert answer == expected, f"pairs diverged on {cell}"

    @settings(max_examples=60, deadline=None)
    @given(graphs(), nres())
    def test_single_source_agrees_with_reference(self, graph, expr):
        reference = ReferenceEngine()
        sources = sorted(graph.nodes(), key=repr)
        expected = [reference.reachable(graph, expr, source) for source in sources]
        for cell, answers in run_grid(
            lambda engine: [engine.reachable(graph, expr, s) for s in sources]
        ):
            assert answers == expected, f"reachable diverged on {cell}"

    @settings(max_examples=60, deadline=None)
    @given(graphs(), nres())
    def test_batched_multi_source_agrees_with_reference(self, graph, expr):
        sources = sorted(graph.nodes(), key=repr) + ["not-in-graph"]
        expected = ReferenceEngine().reachable_many(graph, expr, sources)
        for cell, answers in run_grid(
            lambda engine: engine.reachable_many(graph, expr, sources)
        ):
            assert answers == expected, f"reachable_many diverged on {cell}"

    @settings(max_examples=60, deadline=None)
    @given(graphs(), nres())
    def test_single_pair_agrees_with_reference(self, graph, expr):
        """``holds`` runs the dedicated single-pair code path — on CSR a
        separately generated function with its own early-exit structure,
        so it gets its own differential."""
        reference = ReferenceEngine()
        expected = reference.pairs(graph, expr)
        nodes = sorted(graph.nodes(), key=repr)
        probes = [
            (u, nodes[(i * 3 + 1) % len(nodes)]) for i, u in enumerate(nodes)
        ] + [(u, u) for u in nodes[:3]]
        verdicts = [(u, v) in expected for u, v in probes]
        for cell, answers in run_grid(
            lambda engine: [engine.holds(graph, expr, u, v) for u, v in probes]
        ):
            assert answers == verdicts, f"holds diverged on {cell}"


class TestCsrRouting:
    """The runner's search choice on frozen graphs, pinned by call counts."""

    GRAPH_EDGES = [("u", "a", "v"), ("v", "a", "w"), ("w", "b", "u")]
    QUERY = "a* . b"

    @staticmethod
    def _count_calls(monkeypatch) -> Counter:
        from repro.graph.codegen import CodegenSearch
        from repro.graph.vector import VectorSearch

        calls: Counter = Counter()
        for cls, name in (
            (CodegenSearch, "holds"),
            (CodegenSearch, "collect"),
            (VectorSearch, "reachable_many"),
        ):
            original = getattr(cls, name)
            label = f"{cls.__name__}.{name}"

            def counted(self, *args, _original=original, _label=label):
                calls[_label] += 1
                return _original(self, *args)

            monkeypatch.setattr(cls, name, counted)
        return calls

    def _probe_then_sweep(self):
        graph = GraphDatabase(edges=self.GRAPH_EDGES)
        expr = parse_nre(self.QUERY)
        engine = QueryEngine(backend="csr")
        # holds first: a cached pairs() answer would short-circuit it.
        assert engine.holds(graph, expr, "u", "u") is True
        assert sorted(engine.pairs(graph, expr)) == [
            ("u", "u"), ("v", "u"), ("w", "u")
        ]
        return graph

    def test_numpy_present_sweeps_on_vector_probes_on_codegen(self, monkeypatch):
        if kernels.NUMPY is None:
            pytest.skip("numpy unavailable")
        calls = self._count_calls(monkeypatch)
        self._probe_then_sweep()
        assert kernels.resolve_kernel(None) == "vector"
        assert calls == {"CodegenSearch.holds": 1, "VectorSearch.reachable_many": 1}

    def test_numpy_masked_runs_everything_on_codegen(self, monkeypatch):
        monkeypatch.setattr(kernels, "NUMPY", None)
        calls = self._count_calls(monkeypatch)
        graph = self._probe_then_sweep()
        assert kernels.resolve_kernel(None) == "codegen"
        assert calls == {
            "CodegenSearch.holds": 1,
            "CodegenSearch.collect": len(graph.nodes()),
        }


class TestChaseKernelDifferential:
    @settings(max_examples=25, deadline=None)
    @given(flight_instances())
    def test_egd_chase_identical_without_numpy(self, instance):
        with_numpy = chase_with_egds(
            [flights_st_tgd()], [hotel_egd()], instance, alphabet={"f", "h"}
        )
        with mock.patch.object(kernels, "NUMPY", None):
            without_numpy = chase_with_egds(
                [flights_st_tgd()], [hotel_egd()], instance, alphabet={"f", "h"}
            )
        assert with_numpy.failed == without_numpy.failed
        assert with_numpy.failure_witness == without_numpy.failure_witness
        assert with_numpy.expect_pattern() == without_numpy.expect_pattern()

    @settings(max_examples=25, deadline=None)
    @given(flight_instances())
    def test_sameas_solution_identical_without_numpy(self, instance):
        with_numpy = solve_with_sameas(
            [flights_st_tgd()], [hotel_sameas()], instance, alphabet={"f", "h"}
        )
        with mock.patch.object(kernels, "NUMPY", None):
            without_numpy = solve_with_sameas(
                [flights_st_tgd()], [hotel_sameas()], instance, alphabet={"f", "h"}
            )
        assert with_numpy.expect_pattern() == without_numpy.expect_pattern()
        assert with_numpy.expect_graph() == without_numpy.expect_graph()


class TestSameAsStrategyDifferential:
    """The union-find saturation is byte-identical to the journal oracle.

    ``saturate_sameas`` computes a least fixpoint of monotone rules, so
    the result is unique whatever the insertion order — but "identical
    graph" is a weaker promise than "identical bytes on the wire".  These
    properties pin the strong version over random chased graphs, random
    extra sameAs seed edges (pre-built equivalence classes), and every
    constraint-shape combination the strategy dispatcher distinguishes:
    generic bodies, the recognised symmetry/transitivity pair (absorbed
    into the union-find), and a lone law (not absorbed).
    """

    CONSTRAINT_SETS = {
        "generic": [_hotel_sameas_constraint],
        "generic+laws": [
            _hotel_sameas_constraint,
            _symmetry_constraint,
            _transitivity_constraint,
        ],
        "laws-only": [_symmetry_constraint, _transitivity_constraint],
        "generic+symmetry-only": [_hotel_sameas_constraint, _symmetry_constraint],
        "generic+transitivity-only": [
            _hotel_sameas_constraint,
            _transitivity_constraint,
        ],
    }

    @settings(max_examples=40, deadline=None)
    @given(
        flight_instances(),
        st.sampled_from(sorted(CONSTRAINT_SETS)),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=4),
    )
    def test_saturation_byte_identical(self, instance, shape, seed, extra):
        graph = _chased_graph(instance)
        nodes = sorted(graph.nodes(), key=repr)
        rng = random.Random(seed)
        widened = graph.with_alphabet(set(graph.alphabet) | {SAME_AS_LABEL})
        for _ in range(extra):  # pre-seeded equivalence classes
            widened.add_edge(rng.choice(nodes), SAME_AS_LABEL, rng.choice(nodes))
        constraints = self.CONSTRAINT_SETS[shape]
        unionfind = saturate_sameas(widened, constraints, strategy="unionfind")
        journal = saturate_sameas(widened, constraints, strategy="journal")
        assert unionfind == journal, f"graphs diverged on shape={shape}"
        assert json.dumps(graph_to_dict(unionfind), sort_keys=True) == json.dumps(
            graph_to_dict(journal), sort_keys=True
        ), f"serialized bytes diverged on shape={shape}"

    @settings(max_examples=15, deadline=None)
    @given(flight_instances())
    def test_solution_pipeline_byte_identical(self, instance):
        """End-to-end ``solve_with_sameas`` under each ``REPRO_SAMEAS``."""
        results = {}
        for strategy in ("unionfind", "journal"):
            with mock.patch.dict(os.environ, {"REPRO_SAMEAS": strategy}):
                solved = solve_with_sameas(
                    [flights_st_tgd()],
                    [_hotel_sameas_constraint],
                    instance,
                    alphabet={"f", "h"},
                )
            results[strategy] = json.dumps(
                graph_to_dict(solved.expect_graph()), sort_keys=True
            )
        assert results["unionfind"] == results["journal"]
