"""Unit tests for certain answers — pinning Example 2.2's printed sets."""

import pytest

from oracles.reference_eval import evaluate_nre
from repro.core.certain import (
    certain_answers_nre,
    find_counterexample_solution,
    is_certain_answer,
)
from repro.core.search import CandidateSearchConfig
from repro.core.setting import DataExchangeSetting
from repro.core.solution import is_solution
from repro.graph.parser import parse_nre
from repro.mappings.parser import parse_egd, parse_st_tgd
from repro.relational.instance import RelationalInstance
from repro.relational.schema import RelationalSchema
from repro.scenarios.flights import (
    paper_certain_omega,
    paper_certain_omega_prime,
)


CFG = CandidateSearchConfig(star_bound=2)


class TestExample22:
    def test_certain_omega_matches_paper(self, omega, instance, query_q):
        result = certain_answers_nre(omega, instance, query_q, config=CFG)
        assert result.answers == paper_certain_omega()
        assert not result.no_solution

    def test_certain_omega_prime_matches_paper(self, omega_prime, instance, query_q):
        result = certain_answers_nre(omega_prime, instance, query_q, config=CFG)
        assert result.answers == paper_certain_omega_prime()

    def test_sameas_drops_cross_city_pairs(self, omega, omega_prime, instance, query_q):
        """The paper's point: (c1, c3) is certain under Ω but not under Ω′."""
        assert is_certain_answer(omega, instance, query_q, ("c1", "c3"), config=CFG)
        assert not is_certain_answer(
            omega_prime, instance, query_q, ("c1", "c3"), config=CFG
        )

    def test_counterexample_is_genuine_solution(self, omega_prime, instance, query_q):
        counterexample = find_counterexample_solution(
            omega_prime, instance, query_q, ("c1", "c3"), config=CFG
        )
        assert counterexample is not None
        assert is_solution(instance, counterexample, omega_prime)
        assert ("c1", "c3") not in evaluate_nre(counterexample, query_q)

    def test_no_counterexample_for_certain_pair(self, omega, instance, query_q):
        assert (
            find_counterexample_solution(
                omega, instance, query_q, ("c1", "c1"), config=CFG
            )
            is None
        )

    def test_result_metadata(self, omega, instance, query_q):
        result = certain_answers_nre(omega, instance, query_q, config=CFG)
        assert result.solutions_examined > 0
        assert "minimal-solutions" in result.method

    def test_is_certain_via_result(self, omega, instance, query_q):
        result = certain_answers_nre(omega, instance, query_q, config=CFG)
        assert result.is_certain(("c1", "c3"))
        assert not result.is_certain(("c1", "c2"))


class TestNoSolutionConvention:
    def test_everything_certain_without_solutions(self):
        schema = RelationalSchema()
        schema.declare("R", 2)
        instance = RelationalInstance(schema, {"R": [("u", "v"), ("w", "v")]})
        setting = DataExchangeSetting(
            schema,
            {"h"},
            [parse_st_tgd("R(x, y) -> (x, h, y)")],
            [parse_egd("(x1, h, z), (x2, h, z) -> x1 = x2")],
        )
        result = certain_answers_nre(setting, instance, parse_nre("h"), config=CFG)
        assert result.no_solution
        assert result.is_certain(("anything", "at all"))

    def test_is_certain_answer_vacuous(self):
        schema = RelationalSchema()
        schema.declare("R", 2)
        instance = RelationalInstance(schema, {"R": [("u", "v"), ("w", "v")]})
        setting = DataExchangeSetting(
            schema,
            {"h"},
            [parse_st_tgd("R(x, y) -> (x, h, y)")],
            [parse_egd("(x1, h, z), (x2, h, z) -> x1 = x2")],
        )
        assert is_certain_answer(setting, instance, parse_nre("h"), ("u", "w"))


class TestMonotonicityExploitation:
    def test_free_setting_certain_answers(self, omega_free, instance):
        """Without constraints: only pairs forced in every instantiation."""
        result = certain_answers_nre(
            omega_free, instance, parse_nre("f . f*"), config=CFG
        )
        # Every solution routes c1 (and c3) to c2 through f-paths.
        assert ("c1", "c2") in result.answers
        assert ("c3", "c2") in result.answers
        assert ("c2", "c1") not in result.answers

    def test_single_f_not_certain(self, omega_free, instance):
        """(c1, c2) via exactly one f is killed by two-stop instantiations."""
        result = certain_answers_nre(omega_free, instance, parse_nre("f"), config=CFG)
        assert ("c1", "c2") not in result.answers

    def test_answers_restricted_to_active_domain(self, omega, instance, query_q):
        result = certain_answers_nre(omega, instance, query_q, config=CFG)
        domain = instance.active_domain()
        for u, v in result.answers:
            assert u in domain and v in domain
