"""Unit tests for the bounded-model existence encoding."""

import random

import pytest

from oracles import solve_cnf
from repro.core.setting import DataExchangeSetting
from repro.core.solution import is_solution
from repro.errors import NotSupportedError
from repro.graph.parser import parse_nre
from repro.mappings.parser import parse_egd, parse_sameas, parse_st_tgd
from repro.reductions.three_sat import reduction_from_cnf
from repro.relational.instance import RelationalInstance
from repro.relational.schema import RelationalSchema
from repro.solver.encode import decode_edge_model, encode_bounded_existence
from repro.solver.generators import random_kcnf


def simple_setting(st_texts, egd_texts, alphabet, facts):
    schema = RelationalSchema()
    schema.declare("R", 2)
    instance = RelationalInstance(schema, {"R": facts})
    setting = DataExchangeSetting(
        schema,
        alphabet,
        [parse_st_tgd(t) for t in st_texts],
        [parse_egd(t) for t in egd_texts],
    )
    return setting, instance


class TestEncodeBasics:
    def test_satisfiable_without_egds(self):
        setting, instance = simple_setting(
            ["R(x, y) -> (x, a, y)"], [], {"a"}, [("u", "v")]
        )
        cnf = encode_bounded_existence(setting, instance, ["u", "v"])
        model = solve_cnf(cnf)
        assert model is not None
        graph = decode_edge_model(cnf, model, {"a"}, ["u", "v"])
        assert graph.has_edge("u", "a", "v")

    def test_decoded_graph_is_solution(self):
        setting, instance = simple_setting(
            ["R(x, y) -> (x, a + b, y)"],
            ["(s, a, t) -> s = t"],
            {"a", "b"},
            [("u", "v")],
        )
        cnf = encode_bounded_existence(setting, instance, ["u", "v"])
        model = solve_cnf(cnf)
        graph = decode_edge_model(cnf, model, {"a", "b"}, ["u", "v"])
        assert is_solution(instance, graph, setting)
        assert graph.has_edge("u", "b", "v")  # the a-branch would collapse u=v

    def test_unsat_when_egd_blocks_only_option(self):
        setting, instance = simple_setting(
            ["R(x, y) -> (x, a, y)"],
            ["(s, a, t) -> s = t"],
            {"a"},
            [("u", "v")],
        )
        cnf = encode_bounded_existence(setting, instance, ["u", "v"])
        assert solve_cnf(cnf) is None

    def test_existential_head(self):
        setting, instance = simple_setting(
            ["R(x, y) -> (x, a, z)"], [], {"a"}, [("u", "v")]
        )
        cnf = encode_bounded_existence(setting, instance, ["u", "v"])
        model = solve_cnf(cnf)
        graph = decode_edge_model(cnf, model, {"a"}, ["u", "v"])
        assert any(e.source == "u" and e.label == "a" for e in graph.edges())

    def test_word_egd_blocks_paths(self):
        setting, instance = simple_setting(
            ["R(x, y) -> (x, a, y), (y, b, x)"],
            ["(s, a . b, t) -> s = t"],
            {"a", "b"},
            [("u", "v")],
        )
        # a: u→v and b: v→u gives an a·b path u→u (fine, s=t) but also the
        # egd over u≠v pairs must hold: a·b from u to v? u -a-> v -b-> u is
        # a path u…u; path u→v via a·b needs a then b landing on v: u-a->v,
        # v-b->u lands on u. No violation: SAT.
        cnf = encode_bounded_existence(setting, instance, ["u", "v"])
        assert solve_cnf(cnf) is not None


class TestFragmentGuards:
    def test_sameas_rejected(self):
        schema = RelationalSchema()
        schema.declare("R", 2)
        instance = RelationalInstance(schema, {"R": [("u", "v")]})
        setting = DataExchangeSetting(
            schema,
            {"h"},
            [parse_st_tgd("R(x, y) -> (x, h, y)")],
            [parse_sameas("(x, h, z), (y, h, z) -> (x, sameAs, y)")],
        )
        with pytest.raises(NotSupportedError):
            encode_bounded_existence(setting, instance, ["u", "v"])

    def test_star_head_rejected(self):
        setting, instance = simple_setting(
            ["R(x, y) -> (x, a . a*, y)"], ["(s, a, t) -> s = t"], {"a"}, [("u", "v")]
        )
        with pytest.raises(NotSupportedError):
            encode_bounded_existence(setting, instance, ["u", "v"])


class TestAgainstReduction:
    """The encoding and the source formula must be equisatisfiable."""

    @pytest.mark.parametrize("seed", range(8))
    def test_equisatisfiable(self, seed):
        rng = random.Random(seed)
        n = rng.randint(3, 5)
        m = rng.randint(2 * n, 5 * n)
        formula = random_kcnf(n, m, rng=rng)
        reduction = reduction_from_cnf(formula)
        cnf = encode_bounded_existence(
            reduction.setting, reduction.instance, ["c1", "c2"]
        )
        formula_sat = solve_cnf(formula) is not None
        encoding_sat = solve_cnf(cnf) is not None
        assert formula_sat == encoding_sat


class TestGuardedBlockingClauses:
    def test_guard_makes_blocking_conditional(self):
        from repro.solver.cdcl import CDCLSolver
        from repro.solver.encode import add_pair_blocking_clauses

        setting, instance = simple_setting(
            ["R(x, y) -> (x, a, y)"], [], {"a"}, [("u", "v")]
        )
        cnf = encode_bounded_existence(setting, instance, ["u", "v"])
        guard = cnf.new_variable()
        added = add_pair_blocking_clauses(
            cnf, parse_nre("a"), "u", "v", ["u", "v"], guard=guard
        )
        assert added and all(-guard in clause for clause in added)
        solver = CDCLSolver(cnf)
        # Guard unassumed: the tgd-forced edge may exist — satisfiable.
        assert solver.solve() is not None
        # Guard assumed: blocking active, but the tgd forces the edge.
        assert solver.solve([guard]) is None
        assert guard in solver.core

    def test_unguarded_return_value_lists_clauses(self):
        from repro.solver.encode import add_pair_blocking_clauses

        setting, instance = simple_setting(
            ["R(x, y) -> (x, a, y)"], [], {"a"}, [("u", "v")]
        )
        cnf = encode_bounded_existence(setting, instance, ["u", "v"])
        before = cnf.clause_count
        added = add_pair_blocking_clauses(
            cnf, parse_nre("a"), "u", "v", ["u", "v"]
        )
        assert len(added) == cnf.clause_count - before >= 1

    def test_outside_universe_pair_adds_nothing(self):
        from repro.solver.encode import add_pair_blocking_clauses

        setting, instance = simple_setting(
            ["R(x, y) -> (x, a, y)"], [], {"a"}, [("u", "v")]
        )
        cnf = encode_bounded_existence(setting, instance, ["u", "v"])
        assert add_pair_blocking_clauses(
            cnf, parse_nre("a"), "u", "zzz", ["u", "v"]
        ) == []


class TestMinimalModelReduction:
    """Edge variables without head support are fixed false at the root."""

    def test_unsupported_edges_fixed_false(self):
        setting, instance = simple_setting(
            ["R(x, y) -> (x, a, y)"],
            ["(s, a, t) -> s = t"],
            {"a", "b"},
            [("u", "v")],
        )
        cnf = encode_bounded_existence(setting, instance, ["u", "v"])
        model = solve_cnf(cnf)
        assert model is None  # the egd collapses the only head option
        # In the satisfiable variant, no unsupported edge ever appears.
        setting2, instance2 = simple_setting(
            ["R(x, y) -> (x, a + b, y)"],
            ["(s, a, t) -> s = t"],
            {"a", "b"},
            [("u", "v")],
        )
        cnf2 = encode_bounded_existence(setting2, instance2, ["u", "v"])
        model2 = solve_cnf(cnf2)
        graph = decode_edge_model(cnf2, model2, {"a", "b"}, ["u", "v"])
        assert is_solution(instance2, graph, setting2)
        for edge in graph.edges():
            assert (edge.source, edge.label, edge.target) in {
                ("u", "a", "v"), ("u", "b", "v")
            }

    @pytest.mark.parametrize("seed", range(5))
    def test_reduction_stays_equisatisfiable(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 5)
        formula = random_kcnf(n, rng.randint(n, 5 * n), k=min(3, n), rng=rng)
        red = reduction_from_cnf(formula)
        from repro.chase.pattern_chase import chase_pattern

        pattern = chase_pattern(
            red.setting.st_tgds, red.instance, alphabet=red.setting.alphabet
        ).expect_pattern()
        nodes = sorted(pattern.nodes(), key=repr)
        cnf = encode_bounded_existence(red.setting, red.instance, nodes)
        model = solve_cnf(cnf)
        assert (model is not None) == (solve_cnf(formula) is not None)
        if model is not None:
            graph = decode_edge_model(cnf, model, red.setting.alphabet, nodes)
            assert is_solution(red.instance, graph, red.setting)
