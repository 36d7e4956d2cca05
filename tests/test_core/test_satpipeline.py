"""The persistent incremental SAT pipeline and its fragment-exact checker.

Differential anchors:

* :func:`repro.solver.encode.check_fragment_solution` must agree with the
  generic :func:`repro.core.solution.is_solution` on every graph it
  accepts/rejects (random reduction witnesses, mutated or not);
* pipeline probes must agree with the minimal-solution enumeration (run
  on the reference engine) and with DPLL-on-the-source-formula on the
  Corollary 4.2 family, with the pipeline on CDCL and, through the
  ``dpll_pipelines`` fixture, on the DPLL oracle;
* the pipeline cache must key by value: rebuilt (equal) settings and
  instances reuse one solver and its learnt clauses.
"""

import random

import pytest

from oracles import IncrementalDPLL, ReferenceEngine, solve_cnf
from repro.core.certain import (
    _enumerated_certain_answers,
    _enumerated_counterexample,
    certain_answers_nre,
    is_certain_answer,
)
from repro.core.existence import ExistenceStatus, decide_existence
from repro.core.satpipeline import SatPipeline, clear_pipelines, pipeline_for
from repro.core.search import CandidateSearchConfig
from repro.core.solution import is_solution
from repro.graph.parser import parse_nre
from repro.reductions.certain_hardness import certain_egd_instance
from repro.reductions.three_sat import reduction_from_cnf, valuation_graph
from repro.solver.cdcl import CDCLSolver
from repro.solver.encode import check_fragment_solution
from repro.solver.generators import random_kcnf

CFG = CandidateSearchConfig(star_bound=1)


@pytest.fixture(params=["cdcl", "dpll"])
def solver(request):
    """Run the test with the pipeline on CDCL, then on the DPLL oracle."""
    if request.param == "dpll":
        request.getfixturevalue("dpll_pipelines")
    return request.param


def formulas(count, seed=42):
    rng = random.Random(seed)
    result = []
    while len(result) < count:
        n = rng.randint(2, 4)
        m = rng.randint(2 * n, 8 * n)
        result.append(random_kcnf(n, m, k=min(3, n), rng=rng))
    return result


class TestFragmentChecker:
    @pytest.mark.parametrize("seed", range(6))
    def test_agrees_with_is_solution_on_valuation_graphs(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 4)
        formula = random_kcnf(n, rng.randint(n, 6 * n), k=min(3, n), rng=rng)
        reduction = reduction_from_cnf(formula)
        for trial in range(8):
            valuation = {j: rng.random() < 0.5 for j in range(1, n + 1)}
            graph = valuation_graph(reduction, valuation)
            if rng.random() < 0.5 and graph.edge_count() > 1:
                edge = sorted(graph.edges(), key=repr)[0]
                graph.remove_edge(edge.source, edge.label, edge.target)
            expected = is_solution(reduction.instance, graph, reduction.setting)
            assert (
                check_fragment_solution(reduction.instance, graph, reduction.setting)
                == expected
            )

    def test_pipeline_witnesses_are_solutions(self):
        for formula in formulas(4, seed=7):
            reduction = reduction_from_cnf(formula)
            pipeline = SatPipeline(reduction.setting, reduction.instance)
            witness = pipeline.existence_witness()
            if witness is not None:
                assert is_solution(reduction.instance, witness, reduction.setting)
            assert (witness is not None) == (solve_cnf(formula) is not None)


class TestProbeAgreement:
    def test_certainty_matches_dpll_oracle_and_reference(self, solver):
        for formula in formulas(5, seed=11):
            case = certain_egd_instance(formula)
            fast = is_certain_answer(
                case.setting, case.instance, case.query, case.tuple, config=CFG
            )
            assert fast == (solve_cnf(formula) is None)
            counterexample = _enumerated_counterexample(
                case.setting, case.instance, case.query, case.tuple,
                CFG, ReferenceEngine(),
            )
            assert fast == (counterexample is None)

    def test_whole_set_matches_per_pair_probes(self, solver):
        for formula in formulas(3, seed=23):
            case = certain_egd_instance(formula)
            result = certain_answers_nre(
                case.setting, case.instance, case.query, config=CFG
            )
            domain = case.instance.active_domain()
            for u in sorted(domain):
                for v in sorted(domain):
                    assert result.is_certain((u, v)) == is_certain_answer(
                        case.setting, case.instance, case.query, (u, v),
                        config=CFG,
                    )
            if not result.no_solution:
                assert "sat-incremental" in result.method

    def test_whole_set_matches_reference_enumeration(self):
        for formula in formulas(3, seed=31):
            case = certain_egd_instance(formula)
            fast = certain_answers_nre(
                case.setting, case.instance, case.query, config=CFG
            )
            oracle = _enumerated_certain_answers(
                case.setting, case.instance, case.query, CFG, ReferenceEngine()
            )
            assert fast.no_solution == oracle.no_solution
            if not fast.no_solution:
                assert fast.answers == oracle.answers


class TestPipelineReuse:
    def test_value_keyed_cache_shares_one_solver(self):
        clear_pipelines()
        formula = formulas(1, seed=5)[0]
        first_case = certain_egd_instance(formula)
        second_case = certain_egd_instance(formula)  # rebuilt, value-equal
        first = pipeline_for(first_case.setting, first_case.instance)
        second = pipeline_for(second_case.setting, second_case.instance)
        assert first is not None and first is second

    def test_learned_clauses_and_guards_accumulate(self):
        clear_pipelines()
        formula = formulas(1, seed=9)[0]
        case = certain_egd_instance(formula)
        pipeline = pipeline_for(case.setting, case.instance)
        assert pipeline is not None
        before = pipeline.probes
        query = parse_nre("a . a")
        pipeline.probe_pair(query, "c1", "c2")
        pipeline.probe_pair(query, "c1", "c2")  # guard reused, solver warm
        assert pipeline.probes == before + 2
        assert len(pipeline._guards) == 1

    def test_dpll_fixture_swaps_the_pipeline_solver(self, solver):
        formula = formulas(1, seed=13)[0]
        case = certain_egd_instance(formula)
        pipeline = pipeline_for(case.setting, case.instance)
        assert pipeline is not None
        expected = {"cdcl": CDCLSolver, "dpll": IncrementalDPLL}[solver]
        assert type(pipeline.solver) is expected
        assert pipeline.has_solution() == (solve_cnf(formula) is not None)

    def test_inapplicable_settings_return_none(self, omega):
        # Example 2.2's Ω has starred heads: not SAT-encodable.
        from repro.scenarios.flights import flights_instance

        assert pipeline_for(omega, flights_instance()) is None


class TestExistenceIntegration:
    def test_existence_matches_source_formula(self, solver):
        rng = random.Random(17)
        for _ in range(5):
            n = rng.randint(2, 5)
            formula = random_kcnf(n, rng.randint(n, 5 * n), k=min(3, n), rng=rng)
            reduction = reduction_from_cnf(formula)
            result = decide_existence(reduction.setting, reduction.instance)
            assert (result.status is ExistenceStatus.EXISTS) == (
                solve_cnf(formula) is not None
            )
            if result.witness is not None:
                assert is_solution(
                    reduction.instance, result.witness, reduction.setting
                )
