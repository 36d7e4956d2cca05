"""Unit tests for the synthetic workload generators."""

import random

import pytest

from repro.graph.classes import alphabet_of
from repro.scenarios.generators import (
    random_flights_instance,
    random_graph,
    random_nre,
    resolve_rng,
)
from repro.scenarios.scale import GeneratorConfig


class TestRandomFlights:
    def test_shape(self):
        instance = random_flights_instance(
            5, cities=4, hotels=3, rng=random.Random(0)
        )
        assert len(instance.tuples("Flight")) == 5
        assert len(instance.tuples("Hotel")) >= 5  # at least one stop each

    def test_src_dest_distinct(self):
        instance = random_flights_instance(
            20, cities=5, hotels=2, rng=random.Random(1)
        )
        for _, src, dest in instance.tuples("Flight"):
            assert src != dest

    def test_single_city_allows_loop(self):
        instance = random_flights_instance(
            3, cities=1, hotels=1, rng=random.Random(2)
        )
        for _, src, dest in instance.tuples("Flight"):
            assert src == dest == "c1"

    def test_deterministic_with_seed(self):
        one = random_flights_instance(5, cities=4, hotels=3, rng=random.Random(7))
        two = random_flights_instance(5, cities=4, hotels=3, rng=random.Random(7))
        assert one == two

    def test_max_stops_respected(self):
        instance = random_flights_instance(
            10, cities=4, hotels=5, max_stops=1, rng=random.Random(3)
        )
        # ≤ 1 stop per flight: at most 10 hotel facts (dedup may shrink).
        assert len(instance.tuples("Hotel")) <= 10


class TestSeedConventions:
    """One seeding surface across the random and the scalable families."""

    def test_seed_keyword_matches_explicit_rng(self):
        by_seed = random_flights_instance(5, cities=4, hotels=3, seed=7)
        by_rng = random_flights_instance(
            5, cities=4, hotels=3, rng=random.Random(7)
        )
        assert by_seed == by_rng

    def test_generator_config_supplies_the_seed(self):
        config = GeneratorConfig(family="medlit", nodes=10, seed=7)
        by_config = random_flights_instance(5, cities=4, hotels=3, config=config)
        by_seed = random_flights_instance(5, cities=4, hotels=3, seed=7)
        assert by_config == by_seed

    def test_rng_conflicts_are_rejected(self):
        with pytest.raises(ValueError):
            random_flights_instance(
                5, cities=4, hotels=3, rng=random.Random(1), seed=2
            )
        with pytest.raises(ValueError):
            resolve_rng(seed=1, config=GeneratorConfig(nodes=10))

    def test_positional_dimensions_are_an_error(self):
        with pytest.raises(TypeError):
            random_flights_instance(5, 4, 3, rng=random.Random(7))

    def test_missing_dimensions_are_an_error(self):
        with pytest.raises(TypeError):
            random_flights_instance(5, cities=4)

    def test_random_graph_accepts_seed(self):
        one = random_graph(10, 30, seed=5)
        two = random_graph(10, 30, rng=random.Random(5))
        assert {(e.source, e.label, e.target) for e in one.edges()} == {
            (e.source, e.label, e.target) for e in two.edges()
        }


class TestRandomGraph:
    def test_shape(self):
        g = random_graph(10, 30, rng=random.Random(0))
        assert g.node_count() == 10
        assert g.edge_count() <= 30  # duplicates collapse

    def test_labels_from_alphabet(self):
        g = random_graph(5, 20, alphabet=("x", "y"), rng=random.Random(1))
        assert g.alphabet == {"x", "y"}
        for edge in g.edges():
            assert edge.label in {"x", "y"}


class TestRandomFragmentSetting:
    def test_always_sat_encodable(self):
        from repro.scenarios.generators import random_fragment_setting

        rng = random.Random(11)
        for _ in range(20):
            setting, instance = random_fragment_setting(rng=rng)
            fragment = setting.fragment()
            assert fragment.heads_union_of_symbols
            assert fragment.egd_bodies_words
            assert not fragment.has_sameas and not fragment.has_general_tgds
            assert instance.size() >= 1

    def test_deterministic_with_seed(self):
        from repro.io.dependencies import setting_to_dict
        from repro.scenarios.generators import random_fragment_setting

        one, inst_one = random_fragment_setting(rng=random.Random(3))
        two, inst_two = random_fragment_setting(rng=random.Random(3))
        assert setting_to_dict(one) == setting_to_dict(two)
        assert inst_one == inst_two


class TestRandomNre:
    def test_depth_zero_is_atom(self):
        expr = random_nre(depth=0, rng=random.Random(0))
        assert expr.size() == 1

    def test_alphabet_respected(self):
        rng = random.Random(5)
        for _ in range(20):
            expr = random_nre(depth=3, alphabet=("p", "q"), rng=rng)
            assert alphabet_of(expr) <= {"p", "q"}

    def test_nest_suppression(self):
        from repro.graph.classes import is_nest_free

        rng = random.Random(6)
        for _ in range(30):
            expr = random_nre(depth=4, rng=rng, allow_nest=False)
            assert is_nest_free(expr)

    def test_every_production_reachable(self):
        from repro.graph.nre import Backward, Epsilon, Nest, Star, Union, Concat

        rng = random.Random(7)
        seen = set()
        for _ in range(300):
            expr = random_nre(depth=3, rng=rng)
            for node in expr.walk():
                seen.add(type(node).__name__)
        assert {"Union", "Concat", "Star", "Nest", "Label"} <= seen
