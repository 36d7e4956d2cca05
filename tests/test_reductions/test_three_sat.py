"""Unit tests for the Theorem 4.1 reduction."""

import random

import pytest

from oracles import enumerate_models, solve_cnf
from repro.core.existence import ExistenceStatus, decide_existence
from repro.core.solution import is_solution
from repro.errors import SchemaError
from repro.reductions.three_sat import (
    decode_valuation,
    reduction_from_cnf,
    valuation_graph,
)
from repro.scenarios.figures import figure4_graph, rho0_formula
from repro.solver.cnf import CNF
from repro.solver.generators import random_kcnf


def small_cnf(variables, clauses):
    cnf = CNF()
    cnf.variable_count = variables
    for clause in clauses:
        cnf.add_clause(clause)
    return cnf


class TestConstruction:
    def setup_method(self):
        self.reduction = reduction_from_cnf(rho0_formula())

    def test_fixed_source(self):
        """Restrictions (i)+(ii): schema of two unary relations, fixed I."""
        schema = self.reduction.setting.source_schema
        assert {s.name for s in schema} == {"R1", "R2"}
        assert all(s.arity == 1 for s in schema)
        assert self.reduction.instance.tuples("R1") == {("c1",)}
        assert self.reduction.instance.tuples("R2") == {("c2",)}

    def test_alphabet(self):
        expected = {"a"} | {f"t{j}" for j in range(1, 5)} | {f"f{j}" for j in range(1, 5)}
        assert self.reduction.setting.alphabet == expected

    def test_single_st_tgd_with_union_heads(self):
        """Restriction (iii): heads of the form a or a + b."""
        fragment = self.reduction.setting.fragment()
        assert len(self.reduction.setting.st_tgds) == 1
        assert fragment.heads_union_of_symbols
        assert fragment.heads_existential_free

    def test_head_atom_count(self):
        # (x, a, y) plus one self-loop atom per variable.
        assert len(self.reduction.setting.st_tgds[0].head.atoms) == 5

    def test_egd_count(self):
        """One type-(*) egd per variable, one type-(**) per clause."""
        assert len(self.reduction.setting.egds()) == 4 + 2

    def test_egd_bodies_are_sore(self):
        from repro.graph.classes import is_sore_concat

        for egd in self.reduction.setting.egds():
            assert is_sore_concat(egd.body.atoms[0].nre)

    def test_duplicate_variable_clause_rejected(self):
        # CNF.add_clause normalises duplicate literals away, so build the
        # pathological clause directly to exercise the reduction's guard.
        cnf = small_cnf(2, [])
        cnf.clauses.append((1, -1, 2))
        with pytest.raises(SchemaError, match="repeats a variable"):
            reduction_from_cnf(cnf)


class TestFigure4:
    def test_figure4_is_solution(self):
        reduction = reduction_from_cnf(rho0_formula())
        assert is_solution(reduction.instance, figure4_graph(), reduction.setting)

    def test_figure4_decodes_to_paper_valuation(self):
        reduction = reduction_from_cnf(rho0_formula())
        assert decode_valuation(reduction, figure4_graph()) == {
            1: True,
            2: True,
            3: False,
            4: False,
        }

    def test_valuation_graph_reconstructs_figure4(self):
        reduction = reduction_from_cnf(rho0_formula())
        rebuilt = valuation_graph(
            reduction, {1: True, 2: True, 3: False, 4: False}
        )
        assert rebuilt == figure4_graph()


class TestIffBothDirections:
    def test_satisfying_valuations_give_solutions(self):
        formula = rho0_formula()
        reduction = reduction_from_cnf(formula)
        for model in enumerate_models(formula):
            graph = valuation_graph(reduction, model)
            assert is_solution(reduction.instance, graph, reduction.setting)

    def test_falsifying_valuations_give_non_solutions(self):
        formula = rho0_formula()
        reduction = reduction_from_cnf(formula)
        n = formula.variable_count
        models = {
            tuple(sorted(m.items())) for m in enumerate_models(formula)
        }
        for bits in range(1 << n):
            valuation = {v: bool(bits >> (v - 1) & 1) for v in range(1, n + 1)}
            graph = valuation_graph(reduction, valuation)
            expected = tuple(sorted(valuation.items())) in models
            assert is_solution(reduction.instance, graph, reduction.setting) == expected

    def test_solution_decodes_to_satisfying_valuation(self):
        formula = rho0_formula()
        reduction = reduction_from_cnf(formula)
        result = decide_existence(reduction.setting, reduction.instance)
        assert result.status is ExistenceStatus.EXISTS
        valuation = decode_valuation(reduction, result.witness)
        assert formula.is_satisfied_by(valuation)


class TestRandomSweep:
    @pytest.mark.parametrize("seed", range(12))
    def test_existence_iff_sat(self, seed):
        rng = random.Random(seed)
        n = rng.randint(3, 6)
        m = rng.randint(2 * n, 6 * n)
        formula = random_kcnf(n, m, rng=rng)
        reduction = reduction_from_cnf(formula)
        sat = solve_cnf(formula) is not None
        result = decide_existence(reduction.setting, reduction.instance)
        assert result.status in (ExistenceStatus.EXISTS, ExistenceStatus.NOT_EXISTS)
        assert (result.status is ExistenceStatus.EXISTS) == sat
        if sat:
            assert formula.is_satisfied_by(decode_valuation(reduction, result.witness))
