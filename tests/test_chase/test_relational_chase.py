"""Unit tests for the Section 3.1 relational chase (single-symbol heads)."""

import pytest

from oracles.graph_homomorphism import is_isomorphic
from repro.chase.relational_chase import chase_relational
from repro.errors import NotSupportedError
from repro.mappings.parser import parse_egd, parse_st_tgd
from repro.patterns.pattern import is_null
from repro.relational.instance import RelationalInstance
from repro.relational.schema import RelationalSchema
from repro.scenarios.figures import example31_setting, figure2_expected_graph
from repro.scenarios.flights import flights_instance


class TestFigure2:
    def setup_method(self):
        setting = example31_setting()
        self.result = chase_relational(
            setting.st_tgds, setting.egds(), flights_instance(), alphabet={"f", "h"}
        )
        self.graph = self.result.expect_graph()

    def test_succeeds(self):
        assert self.result.succeeded

    def test_isomorphic_to_figure2(self):
        assert is_isomorphic(self.graph, figure2_expected_graph())

    def test_hx_cities_merged(self):
        assert self.result.stats.null_merges == 1

    def test_is_universal_solution(self):
        """The chased graph is a solution for the fragment setting."""
        from repro.core.solution import is_solution

        assert is_solution(flights_instance(), self.graph, example31_setting())

    def test_two_nulls_remain(self):
        nulls = [n for n in self.graph.nodes() if is_null(n)]
        assert len(nulls) == 2


class TestFragmentGuard:
    def test_star_head_rejected(self):
        schema = RelationalSchema()
        schema.declare("R", 2)
        instance = RelationalInstance(schema, {"R": [("u", "v")]})
        st = parse_st_tgd("R(x, y) -> (x, a . a*, y)")
        with pytest.raises(NotSupportedError, match="single-symbol"):
            chase_relational([st], [], instance)

    def test_union_head_rejected(self):
        schema = RelationalSchema()
        schema.declare("R", 2)
        instance = RelationalInstance(schema, {"R": [("u", "v")]})
        st = parse_st_tgd("R(x, y) -> (x, a + b, y)")
        with pytest.raises(NotSupportedError):
            chase_relational([st], [], instance)


class TestEgdsOnGraph:
    def _run(self, facts, egd_texts):
        schema = RelationalSchema()
        schema.declare("R", 2)
        instance = RelationalInstance(schema, {"R": facts})
        st = parse_st_tgd("R(x, y) -> (x, a, z), (z, b, y)")
        egds = [parse_egd(t) for t in egd_texts]
        return chase_relational([st], egds, instance)

    def test_no_egds_no_merges(self):
        result = self._run([("u", "v"), ("u", "w")], [])
        assert result.stats.null_merges == 0
        assert result.expect_graph().edge_count() == 4

    def test_merge_on_shared_target(self):
        result = self._run(
            [("u", "v"), ("w", "v")],
            ["(x1, b, y), (x2, b, y) -> x1 = x2"],
        )
        assert result.succeeded
        nulls = [n for n in result.expect_graph().nodes() if is_null(n)]
        assert len(nulls) == 1

    def test_constant_merge_fails(self):
        result = self._run(
            [("u", "v"), ("w", "v")],
            ["(x1, a, y1), (x2, a, y2) -> x1 = x2"],
        )
        assert result.failed
        assert set(result.failure_witness) == {"u", "w"}

    def test_failure_means_no_solution_in_fragment(self):
        """In the Section 3.1 fragment the chase is complete: failure ⇒
        genuinely no solution (cross-checked by the SAT decision)."""
        from repro.core.existence import ExistenceStatus, decide_existence
        from repro.core.setting import DataExchangeSetting

        schema = RelationalSchema()
        schema.declare("R", 2)
        instance = RelationalInstance(schema, {"R": [("u", "v"), ("w", "v")]})
        st = parse_st_tgd("R(x, y) -> (x, a, y)")
        egd = parse_egd("(x1, a, y), (x2, a, y) -> x1 = x2")
        setting = DataExchangeSetting(schema, {"a"}, [st], [egd])
        assert (
            decide_existence(setting, instance).status is ExistenceStatus.NOT_EXISTS
        )


class TestLayerSpans:
    """``chase.relational`` splits into s-t, egd and build child spans."""

    def _children(self, facts, egd_texts):
        from repro.telemetry import set_enabled, span

        schema = RelationalSchema()
        schema.declare("R", 2)
        instance = RelationalInstance(schema, {"R": facts})
        st = parse_st_tgd("R(x, y) -> (x, a, z), (z, b, y)")
        set_enabled(True)
        try:
            with span("test.root") as root:
                chase_relational([st], [parse_egd(t) for t in egd_texts], instance)
        finally:
            set_enabled(None)
        (chase_span,) = root.children
        assert chase_span.name == "chase.relational"
        return [child.name for child in chase_span.children]

    def test_functional_egds_close_before_the_build(self):
        names = self._children(
            [("u", "v"), ("w", "v")], ["(x1, b, y), (x2, b, y) -> x1 = x2"]
        )
        assert names == ["chase.st", "chase.egd", "chase.build"]

    def test_failure_replays_after_the_build(self):
        """Merging the two z nulls makes u and w share an a-target: a clash."""
        egds = [
            "(x1, b, y), (x2, b, y) -> x1 = x2",
            "(x1, a, y), (x2, a, y) -> x1 = x2",
        ]
        names = self._children([("u", "v"), ("w", "v")], egds)
        assert names == ["chase.st", "chase.egd", "chase.build", "chase.egd"]
        result = TestEgdsOnGraph()._run([("u", "v"), ("w", "v")], egds)
        assert result.failed and set(result.failure_witness) == {"u", "w"}

    def test_equal_constants_meet_on_the_union_find(self):
        """u's a-successors 1 and 1.0 are equal: no clash, so no replay."""
        from repro.telemetry import set_enabled, span

        schema = RelationalSchema()
        schema.declare("R", 2)
        schema.declare("S", 2)
        instance = RelationalInstance(schema, {"R": [("u", 1)], "S": [("u", 1.0)]})
        tgds = [parse_st_tgd("R(x, y) -> (x, a, y)"), parse_st_tgd("S(x, y) -> (x, a, y)")]
        egd = parse_egd("(x3, a, x1), (x3, a, x2) -> x1 = x2")
        set_enabled(True)
        try:
            with span("test.root") as root:
                result = chase_relational(tgds, [egd], instance)
        finally:
            set_enabled(None)
        (chase_span,) = root.children
        names = [child.name for child in chase_span.children]
        assert names == ["chase.st", "chase.egd", "chase.build"]
        assert result.succeeded and result.graph.edge_count() == 1

    def test_merged_graph_is_written_once(self):
        result = TestEgdsOnGraph()._run(
            [("u", "v"), ("w", "v")], ["(x1, b, y), (x2, b, y) -> x1 = x2"]
        )
        graph = result.expect_graph()
        assert result.stats.null_merges == 1
        assert graph.version == graph.edge_count() == 3
        assert graph.fingerprint() is None  # merged: destructive, as before


class TestNullConstruction:
    """Merged-away nulls never become ``Null`` objects."""

    def test_one_null_object_per_surviving_null(self, monkeypatch):
        from repro.chase import relational_chase
        from repro.patterns.pattern import Null
        from repro.scenarios.scale import (
            GeneratorConfig,
            generate_instance,
            scale_setting,
        )

        built = []

        def counting_null(label):
            built.append(label)
            return Null(label)

        monkeypatch.setattr(relational_chase, "Null", counting_null)
        setting = scale_setting("medlit")
        instance = generate_instance(GeneratorConfig(family="medlit", nodes=800, seed=1))
        result = chase_relational(
            setting.st_tgds, list(setting.egds()), instance, alphabet=setting.alphabet
        )
        nulls = [node for node in result.graph.nodes() if is_null(node)]
        assert result.succeeded and result.stats.null_merges > 0
        assert len(built) == len(nulls)
        assert sorted(built) == sorted(node.label for node in nulls)
