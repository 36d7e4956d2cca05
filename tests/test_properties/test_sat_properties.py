"""Property-based tests for the SAT substrate.

DPLL is differential-tested against exhaustive enumeration, and the
Theorem 4.1 reduction's equivalence (solution exists iff formula sat) is
checked on random formulas end to end.
"""

import random

from hypothesis import given, settings, strategies as st

from oracles import enumerate_models, solve_cnf
from repro.core.existence import ExistenceStatus, decide_existence
from repro.reductions.three_sat import (
    decode_valuation,
    reduction_from_cnf,
    valuation_graph,
)
from repro.core.solution import is_solution
from repro.solver.generators import planted_kcnf, random_kcnf


@st.composite
def small_formulas(draw):
    seed = draw(st.integers(min_value=0, max_value=100_000))
    rng = random.Random(seed)
    n = draw(st.integers(min_value=2, max_value=7))
    k = draw(st.integers(min_value=1, max_value=min(3, n)))
    m = draw(st.integers(min_value=1, max_value=4 * n))
    return random_kcnf(n, m, k=k, rng=rng)


class TestDpllAgainstBruteForce:
    @settings(max_examples=120, deadline=None)
    @given(small_formulas())
    def test_sat_verdict_matches_enumeration(self, cnf):
        brute = next(iter(enumerate_models(cnf, limit=1)), None)
        model = solve_cnf(cnf)
        assert (model is not None) == (brute is not None)

    @settings(max_examples=120, deadline=None)
    @given(small_formulas())
    def test_returned_models_satisfy(self, cnf):
        model = solve_cnf(cnf)
        if model is not None:
            assert cnf.is_satisfied_by(model)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_planted_always_sat(self, seed):
        cnf, planted = planted_kcnf(8, 30, rng=random.Random(seed))
        assert cnf.is_satisfied_by(planted)
        assert solve_cnf(cnf) is not None


class TestReductionEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_existence_iff_sat(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 5)
        m = rng.randint(n, 5 * n)
        formula = random_kcnf(n, m, k=min(3, n), rng=rng)
        reduction = reduction_from_cnf(formula)
        sat = solve_cnf(formula) is not None
        result = decide_existence(reduction.setting, reduction.instance)
        assert (result.status is ExistenceStatus.EXISTS) == sat

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_valuation_graph_solutionhood_tracks_truth(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 5)
        formula = random_kcnf(n, rng.randint(n, 4 * n), k=min(3, n), rng=rng)
        reduction = reduction_from_cnf(formula)
        valuation = {v: rng.random() < 0.5 for v in range(1, n + 1)}
        graph = valuation_graph(reduction, valuation)
        assert is_solution(
            reduction.instance, graph, reduction.setting
        ) == formula.is_satisfied_by(valuation)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_decode_round_trip(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 5)
        formula = random_kcnf(n, rng.randint(n, 3 * n), k=min(3, n), rng=rng)
        reduction = reduction_from_cnf(formula)
        valuation = {v: rng.random() < 0.5 for v in range(1, n + 1)}
        graph = valuation_graph(reduction, valuation)
        assert decode_valuation(reduction, graph) == valuation
