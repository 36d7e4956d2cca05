"""Unit tests for CNF formulas."""

import pytest

from repro.solver.cnf import CNF


class TestConstruction:
    def test_new_variables_count_up(self):
        cnf = CNF()
        assert cnf.new_variable() == 1
        assert cnf.new_variable() == 2
        assert cnf.variable_count == 2

    def test_named_variables_stable(self):
        cnf = CNF()
        first = cnf.variable(("edge", "u", "a", "v"))
        second = cnf.variable(("edge", "u", "a", "v"))
        assert first == second
        assert cnf.has_name(("edge", "u", "a", "v"))

    def test_distinct_names_distinct_variables(self):
        cnf = CNF()
        assert cnf.variable("x") != cnf.variable("y")

    def test_add_clause(self):
        cnf = CNF()
        x, y = cnf.new_variable(), cnf.new_variable()
        cnf.add_clause([x, -y])
        assert cnf.clause_count == 1

    def test_zero_literal_rejected(self):
        cnf = CNF()
        cnf.new_variable()
        with pytest.raises(ValueError):
            cnf.add_clause([0])

    def test_out_of_range_literal_rejected(self):
        cnf = CNF()
        with pytest.raises(ValueError):
            cnf.add_clause([1])

    def test_tautology_dropped(self):
        cnf = CNF()
        x = cnf.new_variable()
        cnf.add_clause([x, -x])
        assert cnf.clause_count == 0

    def test_duplicate_literals_deduplicated(self):
        cnf = CNF()
        x = cnf.new_variable()
        cnf.add_clause([x, x])
        assert cnf.clauses[0] == (x,)


class TestSatisfaction:
    def test_is_satisfied_by(self):
        cnf = CNF()
        x, y = cnf.new_variable(), cnf.new_variable()
        cnf.add_clause([x, y])
        assert cnf.is_satisfied_by({x: True, y: False})
        assert not cnf.is_satisfied_by({x: False, y: False})

    def test_missing_variables_default_false(self):
        cnf = CNF()
        x = cnf.new_variable()
        cnf.add_clause([-x])
        assert cnf.is_satisfied_by({})

    def test_exactly_one(self):
        cnf = CNF()
        xs = [cnf.new_variable() for _ in range(3)]
        cnf.add_exactly_one(xs)
        assert cnf.is_satisfied_by({xs[0]: True})
        assert not cnf.is_satisfied_by({xs[0]: True, xs[1]: True})
        assert not cnf.is_satisfied_by({})


class TestDimacs:
    def test_round_trip(self):
        cnf = CNF()
        x, y, z = (cnf.new_variable() for _ in range(3))
        cnf.add_clause([x, -y])
        cnf.add_clause([y, z])
        parsed = CNF.from_dimacs(cnf.to_dimacs())
        assert parsed.variable_count == 3
        assert list(parsed.clauses) == list(cnf.clauses)

    def test_comments_tolerated(self):
        text = "c a comment\np cnf 2 1\n1 -2 0\n"
        cnf = CNF.from_dimacs(text)
        assert cnf.variable_count == 2
        assert cnf.clauses == [(1, -2)]

    def test_iteration_and_len(self):
        cnf = CNF()
        x = cnf.new_variable()
        cnf.add_clause([x])
        assert len(cnf) == 1
        assert list(cnf) == [(x,)]


class TestCanonicalClause:
    """Insertion-time canonicalisation shared by CNF and both solvers."""

    def test_duplicates_merged_order_preserved(self):
        from repro.solver.cnf import canonical_clause

        assert canonical_clause([3, -1, 3, 2, -1]) == (3, -1, 2)

    def test_tautology_collapses_to_none(self):
        from repro.solver.cnf import canonical_clause

        assert canonical_clause([1, 2, -1]) is None
        assert canonical_clause([-4, 4]) is None

    def test_zero_rejected(self):
        import pytest

        from repro.solver.cnf import canonical_clause

        with pytest.raises(ValueError):
            canonical_clause([1, 0])

    def test_both_solvers_see_identical_clauses(self):
        """A CNF built with messy input feeds both solvers the same
        canonical clause list — the property the differential suite
        leans on."""
        from repro.solver.cdcl import CDCLSolver
        from repro.solver.cnf import CNF
        from oracles import DPLLSolver

        cnf = CNF()
        x, y = cnf.new_variable(), cnf.new_variable()
        cnf.add_clause([x, x, y])
        cnf.add_clause([x, -x])  # dropped
        cnf.add_clause([-y, -y])
        assert cnf.clauses == [(x, y), (-y,)]
        a = CDCLSolver(cnf).solve()
        b = DPLLSolver(cnf).solve()
        assert a == b == {x: True, y: False}
