"""The CDCL solver: unit tests plus the Hypothesis differential suite.

The differential contract (pinned here, relied on everywhere): on every
formula, :class:`~repro.solver.cdcl.CDCLSolver` and the chronological
:class:`oracles.dpll.DPLLSolver` — and, on small instances, the
brute-force :func:`oracles.dpll.enumerate_models` oracle — agree on
SAT/UNSAT; every returned model satisfies its formula; and every reported
unsat core over assumptions is genuine (UNSAT when asserted) and, after
:meth:`~repro.solver.cdcl.CDCLSolver.minimized_core`, minimal-ish (every
reported assumption is actually needed on re-solve).
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import DPLLSolver, IncrementalDPLL, enumerate_models, solve_cnf
from repro.solver import resolve_solver_name
from repro.solver.cnf import CNF
from repro.solver.cdcl import CDCLSolver, solve_cnf_cdcl, _luby
from repro.solver.generators import planted_kcnf, random_kcnf


def cnf_of(variables, clauses):
    cnf = CNF()
    cnf.variable_count = variables
    for clause in clauses:
        cnf.add_clause(clause)
    return cnf


@st.composite
def small_formulas(draw):
    seed = draw(st.integers(min_value=0, max_value=100_000))
    rng = random.Random(seed)
    n = draw(st.integers(min_value=1, max_value=8))
    k = draw(st.integers(min_value=1, max_value=min(3, n)))
    m = draw(st.integers(min_value=1, max_value=4 * n))
    return random_kcnf(n, m, k=k, rng=rng)


@st.composite
def formulas_with_assumptions(draw):
    seed = draw(st.integers(min_value=0, max_value=100_000))
    rng = random.Random(seed)
    n = draw(st.integers(min_value=2, max_value=12))
    m = draw(st.integers(min_value=1, max_value=4 * n))
    cnf = random_kcnf(n, m, k=min(3, n), rng=rng)
    count = draw(st.integers(min_value=1, max_value=min(5, n)))
    variables = rng.sample(range(1, n + 1), count)
    signs = draw(st.lists(st.booleans(), min_size=count, max_size=count))
    assumptions = [v if s else -v for v, s in zip(variables, signs)]
    return cnf, assumptions


class TestBasics:
    def test_empty_formula_sat(self):
        assert CDCLSolver(CNF()).solve() == {}

    def test_unit_clause(self):
        model = CDCLSolver(cnf_of(1, [[1]])).solve()
        assert model == {1: True}

    def test_contradiction_unsat(self):
        assert CDCLSolver(cnf_of(1, [[1], [-1]])).solve() is None

    def test_unconstrained_variables_complete_false(self):
        # Matches the DPLL model-completion convention.
        model = CDCLSolver(cnf_of(3, [[1]])).solve()
        assert model == {1: True, 2: False, 3: False}

    def test_chain_propagation(self):
        cnf = cnf_of(4, [[1], [-1, 2], [-2, 3], [-3, 4]])
        model = CDCLSolver(cnf).solve()
        assert model == {1: True, 2: True, 3: True, 4: True}

    def test_solver_reusable_after_unsat_assumptions(self):
        solver = CDCLSolver(cnf_of(2, [[1, 2]]))
        assert solver.solve([-1, -2]) is None
        assert solver.ok  # only the assumptions were contradictory
        assert solver.solve() is not None

    def test_formula_level_unsat_sets_ok_false(self):
        solver = CDCLSolver(cnf_of(2, [[1], [-1]]))
        assert solver.solve() is None
        assert not solver.ok
        assert solver.core == ()
        assert solver.solve([2]) is None  # stays UNSAT forever

    def test_luby_sequence(self):
        assert [_luby(i) for i in range(15)] == [
            1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8,
        ]

    def test_deterministic(self):
        cnf = random_kcnf(20, 60, rng=random.Random(3))
        first = CDCLSolver(cnf).solve()
        second = CDCLSolver(cnf).solve()
        assert first == second


class TestIncremental:
    def test_add_clause_between_solves(self):
        solver = CDCLSolver()
        a, b, c = (solver.new_variable() for _ in range(3))
        assert solver.add_clause([a, b, c])
        assert solver.solve() is not None
        assert solver.add_clause([-a])
        assert solver.add_clause([-b])
        model = solver.solve()
        assert model is not None and model[c] and not model[a] and not model[b]
        # [-c] contradicts the clause set at the root: add_clause reports
        # the un-satisfiability immediately and the solver stays UNSAT.
        assert not solver.add_clause([-c])
        assert solver.solve() is None

    def test_blocking_clause_model_enumeration(self):
        cnf = cnf_of(3, [[1, 2, 3]])
        solver = CDCLSolver(cnf)
        seen = set()
        while True:
            model = solver.solve()
            if model is None:
                break
            bits = tuple(model[v] for v in (1, 2, 3))
            assert bits not in seen
            seen.add(bits)
            solver.add_clause(
                [-v if model[v] else v for v in (1, 2, 3)]
            )
        assert len(seen) == 7  # all assignments except all-False

    def test_learned_clauses_survive_solves(self):
        cnf = random_kcnf(30, 120, rng=random.Random(11))
        solver = CDCLSolver(cnf)
        solver.solve()
        learned_before = solver.stats.learned
        solver.solve([1])
        solver.solve([-1])
        assert solver.stats.learned >= learned_before  # never thrown away

    def test_tautology_and_duplicates_canonicalised(self):
        solver = CDCLSolver()
        v = solver.new_variable()
        w = solver.new_variable()
        assert solver.add_clause([v, -v])  # tautology: dropped, still ok
        assert solver.add_clause([w, w, w])
        model = solver.solve()
        assert model is not None and model[w]


class TestAssumptionsAndCores:
    def test_core_subset_and_genuine(self):
        cnf = cnf_of(3, [[1, 2], [-2, 3]])
        solver = CDCLSolver(cnf)
        assert solver.solve([-1, -2, 3]) is None
        core = solver.core
        assert set(core) <= {-1, -2, 3}
        assert DPLLSolver(cnf).solve(core) is None  # genuinely contradictory

    def test_minimized_core_every_member_needed(self):
        cnf = cnf_of(4, [[1, 2], [-2, 3], [3, 4]])
        solver = CDCLSolver(cnf)
        assert solver.solve([-1, -2, -3, -4]) is None
        core = solver.minimized_core()
        assert solver.solve(list(core)) is None
        for i in range(len(core)):
            assert solver.solve(list(core[:i] + core[i + 1 :])) is not None

    @settings(max_examples=80, deadline=None)
    @given(formulas_with_assumptions())
    def test_assumption_verdicts_match_dpll(self, case):
        cnf, assumptions = case
        cdcl = CDCLSolver(cnf)
        model = cdcl.solve(assumptions)
        oracle = DPLLSolver(cnf).solve(assumptions)
        assert (model is None) == (oracle is None)
        if model is not None:
            assert cnf.is_satisfied_by(model)
            for lit in assumptions:
                assert model[abs(lit)] == (lit > 0)

    @settings(max_examples=50, deadline=None)
    @given(formulas_with_assumptions())
    def test_unsat_cores_minimalish(self, case):
        cnf, assumptions = case
        solver = CDCLSolver(cnf)
        if solver.solve(assumptions) is not None:
            return
        core = solver.minimized_core()
        assert set(core) <= set(assumptions) or not solver.ok
        assert solver.solve(list(core)) is None
        # Minimal-ish: every reported assumption is needed on re-solve.
        for i in range(len(core)):
            trimmed = list(core[:i] + core[i + 1 :])
            assert solver.solve(trimmed) is not None


class TestDifferential:
    @settings(max_examples=150, deadline=None)
    @given(small_formulas())
    def test_cdcl_vs_dpll_vs_bruteforce(self, cnf):
        cdcl = CDCLSolver(cnf).solve()
        dpll = solve_cnf(cnf)
        brute = next(iter(enumerate_models(cnf, limit=1)), None)
        assert (cdcl is None) == (dpll is None) == (brute is None)
        if cdcl is not None:
            assert cnf.is_satisfied_by(cdcl)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_planted_always_sat(self, seed):
        cnf, planted = planted_kcnf(12, 45, rng=random.Random(seed))
        model = solve_cnf_cdcl(cnf)
        assert model is not None
        assert cnf.is_satisfied_by(model)

    def test_larger_hard_instances_agree(self):
        rng = random.Random(7)
        for _ in range(6):
            n = rng.randint(20, 40)
            cnf = random_kcnf(n, int(4.27 * n), rng=rng)
            assert (CDCLSolver(cnf).solve() is None) == (solve_cnf(cnf) is None)


class TestSolverFactory:
    def test_default_is_cdcl(self):
        assert resolve_solver_name() == "cdcl"

    def test_unknown_name_rejected(self):
        for name in ("minisat", "dpll"):
            with pytest.raises(ValueError):
                resolve_solver_name(name)

    def test_adapter_matches_cdcl_incrementally(self):
        rng = random.Random(21)
        cnf = random_kcnf(10, 30, rng=rng)
        cdcl, dpll = CDCLSolver(cnf), IncrementalDPLL(cnf)
        for probe in range(8):
            lit = rng.choice([1, -1]) * rng.randint(1, 10)
            assert (cdcl.solve([lit]) is None) == (dpll.solve([lit]) is None)
            extra = [rng.choice([1, -1]) * rng.randint(1, 10) for _ in range(2)]
            cdcl.add_clause(extra)
            dpll.add_clause(extra)
        assert (cdcl.solve() is None) == (dpll.solve() is None)
