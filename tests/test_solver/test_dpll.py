"""Unit tests for the DPLL oracle (tests/oracles/dpll.py)."""

import random

import pytest

from oracles import DPLLSolver, enumerate_models, solve_cnf
from repro.solver.cnf import CNF
from repro.solver.generators import planted_kcnf, random_kcnf


def cnf_of(variables, clauses):
    cnf = CNF()
    cnf.variable_count = variables
    for clause in clauses:
        cnf.add_clause(clause)
    return cnf


class TestBasicCases:
    def test_empty_formula_sat(self):
        assert solve_cnf(CNF()) == {}

    def test_single_unit(self):
        model = solve_cnf(cnf_of(1, [[1]]))
        assert model == {1: True}

    def test_negative_unit(self):
        model = solve_cnf(cnf_of(1, [[-1]]))
        assert model == {1: False}

    def test_contradiction(self):
        assert solve_cnf(cnf_of(1, [[1], [-1]])) is None

    def test_simple_sat(self):
        cnf = cnf_of(2, [[1, 2], [-1, 2], [1, -2]])
        model = solve_cnf(cnf)
        assert cnf.is_satisfied_by(model)

    def test_pigeonhole_2_into_1_unsat(self):
        # p1 and p2 each in hole 1, not together: x1, x2, ¬x1∨¬x2.
        assert solve_cnf(cnf_of(2, [[1], [2], [-1, -2]])) is None

    def test_model_covers_all_variables(self):
        cnf = cnf_of(5, [[1]])
        model = solve_cnf(cnf)
        assert set(model) == {1, 2, 3, 4, 5}


class TestUnitPropagation:
    def test_chain_propagation(self):
        # x1, x1→x2, x2→x3 … forces all true.
        clauses = [[1]] + [[-i, i + 1] for i in range(1, 5)]
        model = solve_cnf(cnf_of(5, clauses))
        assert all(model[v] for v in range(1, 6))

    def test_propagation_stats(self):
        cnf = cnf_of(3, [[1], [-1, 2], [-2, 3]])
        solver = DPLLSolver(cnf)
        solver.solve()
        assert solver.stats.propagations >= 2


class TestAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_small_formulas(self, seed):
        rng = random.Random(seed)
        n = rng.randint(3, 8)
        k = rng.randint(2, 3)
        m = rng.randint(2, 4 * n)
        cnf = random_kcnf(n, m, k=k, rng=rng)
        brute_sat = next(iter(enumerate_models(cnf, limit=1)), None) is not None
        dpll_model = solve_cnf(cnf)
        assert (dpll_model is not None) == brute_sat
        if dpll_model is not None:
            assert cnf.is_satisfied_by(dpll_model)


class TestPlanted:
    @pytest.mark.parametrize("seed", range(5))
    def test_planted_instances_are_sat(self, seed):
        rng = random.Random(seed)
        cnf, planted = planted_kcnf(12, 50, rng=rng)
        assert cnf.is_satisfied_by(planted)
        model = solve_cnf(cnf)
        assert model is not None
        assert cnf.is_satisfied_by(model)


class TestEnumerateModels:
    def test_counts_models(self):
        # x ∨ y has three models over two variables.
        cnf = cnf_of(2, [[1, 2]])
        assert len(list(enumerate_models(cnf))) == 3

    def test_limit(self):
        cnf = cnf_of(3, [[1, 2, 3]])
        assert len(list(enumerate_models(cnf, limit=2))) == 2

    def test_unsat_yields_nothing(self):
        assert list(enumerate_models(cnf_of(1, [[1], [-1]]))) == []
