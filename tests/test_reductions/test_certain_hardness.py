"""Unit tests for the Corollary 4.2 / Proposition 4.3 constructions."""

import random

import pytest

from oracles import solve_cnf
from repro.core.certain import is_certain_answer
from repro.core.existence import ExistenceStatus, decide_existence
from repro.core.search import CandidateSearchConfig
from repro.graph.nre import Label, concat, label
from repro.mappings.sameas import SAME_AS_LABEL
from repro.reductions.certain_hardness import (
    certain_egd_instance,
    certain_sameas_instance,
    expected_certain,
)
from repro.scenarios.figures import rho0_formula
from repro.solver.cnf import CNF
from repro.solver.generators import random_kcnf

CFG = CandidateSearchConfig(star_bound=1)


def unsat_formula():
    cnf = CNF()
    cnf.variable_count = 2
    for clause in ([1, 2], [1, -2], [-1, 2], [-1, -2]):
        cnf.add_clause(clause)
    return cnf


class TestCorollary42:
    def test_query_is_a_dot_a(self):
        instance = certain_egd_instance(rho0_formula())
        assert instance.query == concat(label("a"), label("a"))
        assert instance.tuple == ("c1", "c2")
        assert instance.kind == "egd"

    def test_satisfiable_formula_not_certain(self):
        """ρ₀ is satisfiable, so some solution lacks an a·a path."""
        instance = certain_egd_instance(rho0_formula())
        assert not is_certain_answer(
            instance.setting, instance.instance, instance.query, instance.tuple,
            config=CFG,
        )

    def test_unsatisfiable_formula_certain(self):
        """No solutions ⇒ (c1, c2) vacuously certain."""
        instance = certain_egd_instance(unsat_formula())
        assert (
            decide_existence(instance.setting, instance.instance).status
            is ExistenceStatus.NOT_EXISTS
        )
        assert is_certain_answer(
            instance.setting, instance.instance, instance.query, instance.tuple,
            config=CFG,
        )

    def test_expected_certain_helper(self):
        instance = certain_egd_instance(rho0_formula())
        assert expected_certain(instance, satisfiable=True) is False
        assert expected_certain(instance, satisfiable=False) is True


class TestProposition43:
    def test_query_is_sameas(self):
        instance = certain_sameas_instance(rho0_formula())
        assert instance.query == Label(SAME_AS_LABEL)
        assert instance.kind == "sameas"

    def test_constraints_are_sameas(self):
        instance = certain_sameas_instance(rho0_formula())
        assert not instance.setting.egds()
        assert len(instance.setting.sameas_constraints()) == 6

    def test_solutions_always_exist(self):
        """Section 4.2: existence is trivial for sameAs settings."""
        for formula in (rho0_formula(), unsat_formula()):
            instance = certain_sameas_instance(formula)
            result = decide_existence(instance.setting, instance.instance)
            assert result.status is ExistenceStatus.EXISTS

    def test_satisfiable_formula_not_certain(self):
        instance = certain_sameas_instance(rho0_formula())
        assert not is_certain_answer(
            instance.setting, instance.instance, instance.query, instance.tuple,
            config=CFG,
        )

    def test_unsatisfiable_formula_certain(self):
        instance = certain_sameas_instance(unsat_formula())
        assert is_certain_answer(
            instance.setting, instance.instance, instance.query, instance.tuple,
            config=CFG,
        )


class TestRandomSweep:
    @pytest.mark.parametrize("seed", range(6))
    def test_certainty_iff_unsat(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 3)
        m = rng.randint(2 * n, 8 * n)
        formula = random_kcnf(n, m, k=min(3, n), rng=rng)
        sat = solve_cnf(formula) is not None

        egd_instance = certain_egd_instance(formula)
        assert (
            is_certain_answer(
                egd_instance.setting,
                egd_instance.instance,
                egd_instance.query,
                egd_instance.tuple,
                config=CFG,
            )
            == (not sat)
        )

        sameas_instance = certain_sameas_instance(formula)
        assert (
            is_certain_answer(
                sameas_instance.setting,
                sameas_instance.instance,
                sameas_instance.query,
                sameas_instance.tuple,
                config=CFG,
            )
            == (not sat)
        )
