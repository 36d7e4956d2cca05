"""Unit tests for the solution predicate — pinning the paper's Figure 1."""

import pytest

from oracles import reference_solution
from repro.core.solution import is_solution, solution_violations
from repro.core.tractable import chase_universal
from repro.graph.database import GraphDatabase
from repro.io.json_io import document_from_dict
from repro.mappings.stt import SourceToTargetTgd
from repro.scenarios.flights import figure7_graph
from repro.scenarios.scale import GeneratorConfig, scale_document


class TestFigure1:
    def test_g1_solves_omega(self, instance, omega, g1):
        assert is_solution(instance, g1, omega)

    def test_g2_solves_omega(self, instance, omega, g2):
        assert is_solution(instance, g2, omega)

    def test_g3_solves_omega_prime(self, instance, omega_prime, g3):
        assert is_solution(instance, g3, omega_prime)

    def test_g3_violates_omega(self, instance, omega, g3):
        """G3 keeps hx in two cities — the egd reading rejects it."""
        assert not is_solution(instance, g3, omega)
        report = solution_violations(instance, g3, omega)
        assert report.egd_violations

    def test_g1_also_solves_omega_prime(self, instance, omega_prime, g1):
        """With both hotels in one city, no sameAs edge is demanded."""
        assert is_solution(
            instance, g1.with_alphabet({"f", "h", "sameAs"}), omega_prime
        )

    def test_empty_graph_violates_st_tgds(self, instance, omega):
        assert not is_solution(instance, GraphDatabase(alphabet={"f", "h"}), omega)

    def test_figure7_not_a_solution(self, instance, omega):
        assert not is_solution(instance, figure7_graph(), omega)


class TestReport:
    def test_ok_report(self, instance, omega, g1):
        report = solution_violations(instance, g1, omega)
        assert report.ok
        assert "solution" in report.summary()

    def test_st_violation_reported(self, instance, omega):
        g = GraphDatabase(alphabet={"f", "h"})
        report = solution_violations(instance, g, omega)
        assert report.st_tgd_violations
        assert "s-t tgd" in report.summary()

    def test_first_only_stops_early(self, instance, omega):
        g = GraphDatabase(alphabet={"f", "h"})
        report = solution_violations(instance, g, omega, first_only=True)
        assert len(report.st_tgd_violations) == 1

    def test_full_scan_counts_all(self, instance, omega):
        g = GraphDatabase(alphabet={"f", "h"})
        report = solution_violations(instance, g, omega)
        assert len(report.st_tgd_violations) == 3  # one per trigger

    def test_sameas_violation_reported(self, instance, omega_prime):
        # Satisfy the s-t tgds but omit the required sameAs edges.
        g = GraphDatabase(
            alphabet={"f", "h", "sameAs"},
            edges=[
                ("c1", "f", "N1"), ("N1", "h", "hx"), ("N1", "f", "c2"),
                ("c1", "f", "N2"), ("N2", "h", "hy"), ("N2", "f", "c2"),
                ("c3", "f", "N3"), ("N3", "h", "hx"), ("N3", "f", "c2"),
            ],
        )
        report = solution_violations(instance, g, omega_prime)
        assert report.sameas_violations
        assert not report.st_tgd_violations

    def test_tgd_violation_reported(self):
        from repro.core.setting import DataExchangeSetting
        from repro.mappings.parser import parse_st_tgd, parse_target_tgd
        from repro.relational.instance import RelationalInstance
        from repro.relational.schema import RelationalSchema

        schema = RelationalSchema()
        schema.declare("R", 2)
        instance = RelationalInstance(schema, {"R": [("u", "v")]})
        setting = DataExchangeSetting(
            schema,
            {"a", "b"},
            [parse_st_tgd("R(x, y) -> (x, a, y)")],
            [parse_target_tgd("(x, a, y) -> (y, b, z)")],
        )
        g = GraphDatabase(alphabet={"a", "b"}, edges=[("u", "a", "v")])
        report = solution_violations(instance, g, setting)
        assert report.tgd_violations
        g.add_edge("v", "b", "w")
        assert is_solution(instance, g, setting)


class TestOnePass:
    """Each s-t tgd is joined once, and each distinct frontier row is
    checked once, in match order, up to the first failure."""

    @staticmethod
    def broken_tenant(family: str, label: str):
        document = scale_document(GeneratorConfig(family=family, nodes=60, seed=1))
        setting, instance = document_from_dict(document)
        graph = chase_universal(setting, instance).expect_graph()
        edge = min((t for t in graph.live_triples() if t[1] == label), key=repr)
        graph.remove_edge(*edge)
        return setting, instance, graph

    @staticmethod
    def distinct_rows(tgd, instance, graph, first_only):
        """The tgd's distinct frontier rows in first-occurrence order, up
        to its first failing one when ``first_only``."""
        variables = tgd.body.variables()
        frontier_rows = dict.fromkeys(
            tuple(row[variables.index(v)] for v in tgd.frontier)
            for row in tgd.body_rows(instance, variables)
        )
        holds = tgd.head_checker(graph)
        walked = []
        for row in frontier_rows:
            walked.append(row)
            if first_only and not holds(row):
                break
        return walked

    @pytest.mark.parametrize(
        "family, label", [("social", "member"), ("medlit", "mentions")]
    )
    @pytest.mark.parametrize("first_only", [True, False])
    def test_one_join_per_tgd_and_one_check_per_row(
        self, monkeypatch, family, label, first_only
    ):
        setting, instance, graph = self.broken_tenant(family, label)
        joins: list = []
        checked: dict = {}
        body_rows = SourceToTargetTgd.body_rows
        head_checker = SourceToTargetTgd.head_checker

        def counting_rows(tgd, *args, **kwargs):
            joins.append(tgd)
            return body_rows(tgd, *args, **kwargs)

        def counting_checker(tgd, graph):
            holds = head_checker(tgd, graph)
            rows = checked.setdefault(tgd, [])

            def check(row):
                rows.append(row)
                return holds(row)

            return check

        def no_second_walk(tgd, *args, **kwargs):
            raise AssertionError("body matched twice")

        monkeypatch.setattr(SourceToTargetTgd, "body_rows", counting_rows)
        monkeypatch.setattr(SourceToTargetTgd, "head_checker", counting_checker)
        monkeypatch.setattr(SourceToTargetTgd, "body_matches", no_second_walk)
        report = solution_violations(instance, graph, setting, first_only=first_only)
        monkeypatch.undo()

        assert not report.ok
        walked = list(setting.st_tgds)
        if first_only:
            failing = report.st_tgd_violations[0][0]
            walked = walked[: walked.index(failing) + 1]
        assert joins == walked
        for tgd in walked:
            expected = self.distinct_rows(tgd, instance, graph, first_only)
            assert checked[tgd] == expected
        oracle = reference_solution.solution_violations(
            instance, graph, setting, first_only=first_only
        )
        assert report.st_tgd_violations == oracle.st_tgd_violations
        assert is_solution(instance, graph, setting) is False

    def test_the_medlit_tenant_repeats_frontier_rows(self):
        """The full pass above checks a tgd whose body repeats frontier
        rows, so a second check of one row would not go unseen."""
        setting, instance, _ = self.broken_tenant("medlit", "mentions")
        repeats = [
            tgd
            for tgd in setting.st_tgds
            if len(set(rows := tgd.body_rows(instance, tgd.frontier))) < len(rows)
        ]
        assert repeats
