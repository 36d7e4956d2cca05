"""Unit tests for the candidate-solution enumeration."""

import pytest

from repro.core.search import (
    CandidateSearchConfig,
    _coarsens,
    _partitions,
    _quotient_maps,
    candidate_solutions,
    chased_pattern_for,
)
from repro.core.setting import DataExchangeSetting
from repro.core.solution import is_solution
from repro.mappings.parser import parse_egd, parse_st_tgd
from repro.relational.instance import RelationalInstance
from repro.relational.schema import RelationalSchema


class TestPartitions:
    def test_empty(self):
        assert list(_partitions([])) == [[]]

    def test_singleton(self):
        assert list(_partitions(["a"])) == [[["a"]]]

    def test_bell_numbers(self):
        assert len(list(_partitions(list("ab")))) == 2
        assert len(list(_partitions(list("abc")))) == 5
        assert len(list(_partitions(list("abcd")))) == 15

    def test_blocks_cover_items(self):
        for partition in _partitions(list("abc")):
            flat = sorted(x for block in partition for x in block)
            assert flat == ["a", "b", "c"]


class TestQuotientMaps:
    def test_identity_first(self):
        maps = _quotient_maps(["n1", "n2"], ["c"], limit=None)
        assert maps[0] == {"n1": "n1", "n2": "n2"}

    def test_count(self):
        # partitions of 2: {{n1},{n2}} and {{n1,n2}}; blocks choose
        # self or the constant: 2 blocks -> 4 maps, 1 block -> 2 maps.
        maps = _quotient_maps(["n1", "n2"], ["c"], limit=None)
        assert len(maps) == 6

    def test_limit(self):
        maps = _quotient_maps(["n1", "n2"], ["c"], limit=3)
        assert len(maps) == 3

    def test_sorted_by_mergedness(self):
        maps = _quotient_maps(["n1", "n2"], ["c"], limit=None)
        def rank(m):
            return sum(1 for k, v in m.items() if k != v) + sum(
                1 for v in m.values() if v == "c"
            )
        ranks = [rank(m) for m in maps]
        assert ranks == sorted(ranks)


class TestCoarsens:
    def test_reflexive(self):
        m = {"n1": "n1", "n2": "n1"}
        assert _coarsens(m, m, ["n1", "n2"], set())

    def test_merge_coarsens_identity(self):
        identity = {"n1": "n1", "n2": "n2"}
        merged = {"n1": "n1", "n2": "n1"}
        assert _coarsens(identity, merged, ["n1", "n2"], set())
        assert not _coarsens(merged, identity, ["n1", "n2"], set())

    def test_constant_pin_respected(self):
        to_c = {"n1": "c"}
        to_d = {"n1": "d"}
        assert not _coarsens(to_c, to_d, ["n1"], {"c", "d"})

    def test_null_to_constant_coarsens(self):
        identity = {"n1": "n1"}
        pinned = {"n1": "c"}
        assert _coarsens(identity, pinned, ["n1"], {"c"})


class TestCandidateSolutions:
    def test_all_yields_are_solutions(self, omega, instance):
        cfg = CandidateSearchConfig(star_bound=1, max_candidates=10)
        for graph in candidate_solutions(omega, instance, cfg):
            assert is_solution(instance, graph, omega)

    def test_failed_chase_empty_search(self):
        schema = RelationalSchema()
        schema.declare("R", 2)
        instance = RelationalInstance(schema, {"R": [("u", "v"), ("w", "v")]})
        setting = DataExchangeSetting(
            schema,
            {"h"},
            [parse_st_tgd("R(x, y) -> (x, h, y)")],
            [parse_egd("(x1, h, z), (x2, h, z) -> x1 = x2")],
        )
        assert list(candidate_solutions(setting, instance)) == []
        assert chased_pattern_for(setting, instance) is None

    def test_max_candidates_respected(self, omega_free, instance):
        cfg = CandidateSearchConfig(star_bound=1, max_candidates=3)
        assert len(list(candidate_solutions(omega_free, instance, cfg))) == 3

    def test_distinct_graphs(self, omega, instance):
        cfg = CandidateSearchConfig(star_bound=1, max_candidates=20)
        signatures = [
            frozenset(g.edges()) for g in candidate_solutions(omega, instance, cfg)
        ]
        assert len(signatures) == len(set(signatures))

    def test_pruning_reduces_work_but_keeps_minimal_answers(
        self, omega, instance, query_q
    ):
        from oracles.reference_eval import evaluate_nre

        pruned_cfg = CandidateSearchConfig(star_bound=1, prune_coarser=True)
        full_cfg = CandidateSearchConfig(star_bound=1, prune_coarser=False)
        domain = instance.active_domain()

        def certain(cfg):
            intersection = None
            for graph in candidate_solutions(omega, instance, cfg):
                answers = {
                    p
                    for p in evaluate_nre(graph, query_q)
                    if p[0] in domain and p[1] in domain
                }
                intersection = (
                    answers if intersection is None else intersection & answers
                )
            return intersection

        assert certain(pruned_cfg) == certain(full_cfg)

    def test_sameas_candidates_are_saturated(self, omega_prime, instance):
        cfg = CandidateSearchConfig(star_bound=1, max_candidates=5)
        for graph in candidate_solutions(omega_prime, instance, cfg):
            assert is_solution(instance, graph, omega_prime)


class TestSeed2781Regression:
    """Pinned regression: Hypothesis seed 2781 (ROADMAP open item).

    ``random_fragment_setting(rng=random.Random(2781))`` yields a setting
    whose witness-choice space is 4096 combinations, the first 512 of which
    all violate the ``l2·l1`` egd between constants — so the seed code's
    blind product enumeration burned its whole ``max_instantiations``
    budget without reaching a single solution, while ``decide_existence``
    held a verified SAT witness.  The pruned backtracking search cuts those
    conflicted subtrees and must now find candidates within the default
    bounds at ``star_bound`` 1 and 2.
    """

    def _setting(self):
        import random

        from repro.scenarios.generators import random_fragment_setting

        return random_fragment_setting(rng=random.Random(2781))

    @pytest.mark.parametrize("star_bound", [1, 2])
    def test_candidates_found_when_sat_witness_exists(self, star_bound):
        from repro.core.existence import ExistenceStatus, decide_existence

        setting, instance = self._setting()
        existence = decide_existence(setting, instance)
        assert existence.status is ExistenceStatus.EXISTS

        cfg = CandidateSearchConfig(star_bound=star_bound)
        found = next(iter(candidate_solutions(setting, instance, cfg)), None)
        assert found is not None, (
            "search found no candidate although existence is settled EXISTS"
        )
        assert is_solution(instance, found, setting)

    def test_every_candidate_is_a_solution(self):
        setting, instance = self._setting()
        cfg = CandidateSearchConfig(star_bound=1)
        candidates = list(candidate_solutions(setting, instance, cfg))
        assert candidates, "expected a non-empty minimal-solution family"
        for graph in candidates:
            assert is_solution(instance, graph, setting)
