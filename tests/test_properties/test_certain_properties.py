"""Property-style invariants of the certain-answer engine.

Not hypothesis-driven (each case is expensive); instead, structured
invariants over the paper's settings and small random workloads:

* raising ``star_bound`` never *adds* certain answers (more minimal
  solutions enter the intersection);
* certain answers are contained in the answers of every explicit solution;
* the counterexample API and the set API agree.
"""

import random

import pytest

from oracles.reference_eval import evaluate_nre
from repro.core.certain import (
    certain_answers_nre,
    find_counterexample_solution,
    is_certain_answer,
)
from repro.core.search import CandidateSearchConfig, candidate_solutions
from repro.graph.parser import parse_nre
from repro.scenarios.figures import example31_setting
from repro.scenarios.flights import example_query, flights_instance, setting_omega
from repro.scenarios.generators import random_flights_instance


class TestStarBoundMonotonicity:
    def test_larger_bound_never_adds_answers(self):
        setting = setting_omega()
        instance = flights_instance()
        query = example_query()
        small = certain_answers_nre(
            setting, instance, query, config=CandidateSearchConfig(star_bound=1)
        )
        large = certain_answers_nre(
            setting, instance, query, config=CandidateSearchConfig(star_bound=2)
        )
        assert large.answers <= small.answers

    def test_stability_between_bounds_on_paper_example(self):
        """On Example 2.2, bounds 1 and 2 agree (the query automaton is
        small enough that unrollings beyond 1 add nothing)."""
        setting = setting_omega()
        instance = flights_instance()
        query = example_query()
        one = certain_answers_nre(
            setting, instance, query, config=CandidateSearchConfig(star_bound=1)
        )
        two = certain_answers_nre(
            setting, instance, query, config=CandidateSearchConfig(star_bound=2)
        )
        assert one.answers == two.answers


class TestSoundness:
    def test_certain_answers_hold_in_every_candidate(self):
        setting = setting_omega()
        instance = flights_instance()
        query = example_query()
        cfg = CandidateSearchConfig(star_bound=1)
        certain = certain_answers_nre(setting, instance, query, config=cfg).answers
        for solution in candidate_solutions(setting, instance, cfg):
            assert certain <= evaluate_nre(solution, query)

    @pytest.mark.parametrize("seed", range(3))
    def test_apis_agree(self, seed):
        rng = random.Random(seed)
        instance = random_flights_instance(2, cities=3, hotels=2, rng=rng)
        setting = example31_setting()
        query = parse_nre("f . f")
        cfg = CandidateSearchConfig(star_bound=1)
        answers = certain_answers_nre(setting, instance, query, config=cfg)
        domain = instance.active_domain()
        for u in sorted(domain):
            for v in sorted(domain):
                expected = answers.is_certain((u, v))
                assert is_certain_answer(
                    setting, instance, query, (u, v), config=cfg
                ) == expected

    def test_counterexample_consistency(self):
        setting = setting_omega()
        instance = flights_instance()
        query = example_query()
        cfg = CandidateSearchConfig(star_bound=1)
        certain = certain_answers_nre(setting, instance, query, config=cfg)
        # For a non-certain pair a counterexample must exist, and vice versa.
        counterexample = find_counterexample_solution(
            setting, instance, query, ("c1", "c2"), config=cfg
        )
        assert counterexample is not None
        assert not certain.is_certain(("c1", "c2"))
        assert (
            find_counterexample_solution(
                setting, instance, query, ("c1", "c3"), config=cfg
            )
            is None
        )
        assert certain.is_certain(("c1", "c3"))
