"""Scenario tests for the standalone gadgets (Figures 2, 4, 6)."""

from repro.core.existence import ExistenceStatus, decide_existence
from repro.core.solution import is_solution, solution_violations
from repro.scenarios.figures import (
    example31_setting,
    example52_instance,
    example52_setting,
    figure2_expected_graph,
    figure4_graph,
    figure6b_graph,
    rho0_formula,
)
from repro.scenarios.flights import flights_instance


class TestExample31:
    def test_single_symbol_fragment(self):
        fragment = example31_setting().fragment()
        assert fragment.heads_single_symbols

    def test_figure2_graph_is_solution(self):
        setting = example31_setting()
        assert is_solution(flights_instance(), figure2_expected_graph(), setting)

    def test_figure2_shape(self):
        graph = figure2_expected_graph()
        f_edges = [e for e in graph.edges() if e.label == "f"]
        h_edges = [e for e in graph.edges() if e.label == "h"]
        assert len(f_edges) == 5
        assert len(h_edges) == 2


class TestExample52:
    def test_no_solution(self):
        result = decide_existence(example52_setting(), example52_instance())
        assert result.status is ExistenceStatus.NOT_EXISTS

    def test_figure6b_satisfies_st_but_not_egd(self):
        """Figure 6(b): the instantiation is st-satisfying yet irreparable."""
        setting, instance = example52_setting(), example52_instance()
        graph = figure6b_graph()
        report = solution_violations(instance, graph, setting)
        assert not report.st_tgd_violations
        assert report.egd_violations
        # The violating pairs involve the constants / the fresh middle node:
        # merging them is impossible for c1/c2 and useless for N.
        pairs = {pair for _, pair in report.egd_violations}
        assert ("c1", "N") in pairs
        assert ("N", "c2") in pairs

    def test_rho0_is_satisfiable(self):
        from oracles import solve_cnf

        assert solve_cnf(rho0_formula()) is not None


class TestFigure4:
    def test_alphabet_and_shape(self):
        graph = figure4_graph()
        assert graph.edge_count() == 5
        assert graph.has_edge("c1", "a", "c2")
        for lab in ("t1", "t2", "f3", "f4"):
            assert graph.has_edge("c1", lab, "c1")
