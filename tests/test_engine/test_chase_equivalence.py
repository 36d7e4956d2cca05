"""The delta engine produces the seed chase's results, bit for bit.

Each refactored chase is replayed against a *naive reference* — a direct
transcription of the seed's rescan-everything algorithm kept here as the
oracle — on the paper's figure scenarios (fig1–fig7) and on random
Flight/Hotel instances.  Patterns, graphs, stats, and failure witnesses
must agree exactly (up to fresh-node naming where the chase invents nodes).
"""

import random

import pytest

from repro.chase.egd_chase import chase_with_egds, pattern_symbol_view
from repro.chase.pattern_chase import chase_pattern
from repro.chase.relational_chase import chase_relational
from repro.chase.sameas_chase import saturate_sameas, solve_with_sameas
from repro.chase.target_tgd_chase import chase_target_tgds
from repro.core.solution import is_solution
from repro.core.universal import non_universality_counterexample
from repro.graph.database import GraphDatabase
from repro.mappings.parser import parse_target_tgd
from repro.mappings.sameas import SAME_AS_LABEL
from repro.patterns.pattern import is_null
from repro.scenarios.figures import (
    example31_setting,
    example52_instance,
    example52_setting,
    figure2_expected_graph,
)
from repro.scenarios.flights import (
    figure5_expected_pattern,
    flights_instance,
    flights_st_tgd,
    graph_g1,
    graph_g2,
    graph_g3,
    hotel_egd,
    hotel_sameas,
    setting_omega,
    setting_omega_prime,
)
from repro.scenarios.generators import random_flights_instance
from oracles.cnre_search import cnre_homomorphisms
from oracles.graph_homomorphism import is_isomorphic


# --------------------------------------------------------------------- #
# Naive references (the seed algorithms, kept verbatim as oracles)
# --------------------------------------------------------------------- #


def naive_first_violation(egds, view):
    best = None
    best_key = None
    for egd in egds:
        for hom in cnre_homomorphisms(egd.body, view):
            left, right = hom[egd.left], hom[egd.right]
            if left == right:
                continue
            key = tuple(sorted((repr(left), repr(right))))
            if best_key is None or key < best_key:
                best_key, best = key, (left, right)
    return best


def naive_egd_fixpoint(pattern, egds):
    """Seed Section 5 fixpoint: full rescan, lexicographic-first violation."""
    merges = 0
    while True:
        violation = naive_first_violation(egds, pattern_symbol_view(pattern))
        if violation is None:
            return pattern, False, None, merges
        left, right = violation
        left_null, right_null = is_null(left), is_null(right)
        if not left_null and not right_null:
            return pattern, True, (left, right), merges
        if left_null and not right_null:
            pattern.substitute(left, right)
        elif right_null and not left_null:
            pattern.substitute(right, left)
        else:
            older, newer = sorted((left, right))
            pattern.substitute(newer, older)
        merges += 1


def naive_saturate(graph, constraints):
    """Seed Section 4.2 saturation: full rescan per constraint per round."""
    result = graph.with_alphabet(set(graph.alphabet) | {SAME_AS_LABEL})
    changed = True
    while changed:
        changed = False
        for constraint in constraints:
            seen = set()
            pending = []
            for hom in cnre_homomorphisms(constraint.body, result):
                pair = (hom[constraint.left], hom[constraint.right])
                if pair[0] == pair[1] or pair in seen:
                    continue
                seen.add(pair)
                if not result.has_edge(pair[0], SAME_AS_LABEL, pair[1]):
                    pending.append(pair)
            for left, right in pending:
                result.add_edge(left, SAME_AS_LABEL, right)
                changed = True
    return result


def naive_tgd_round_sets(graph, tgds, max_rounds):
    """Seed bounded chase, returning the per-round violation-count trace."""
    from repro.chase.target_tgd_chase import _apply
    import itertools

    current = graph.copy()
    fresh = itertools.count()
    trace = []
    for _ in range(max_rounds):
        violations = []
        for tgd in tgds:
            for hom in cnre_homomorphisms(tgd.body, current):
                seed = {v: hom[v] for v in tgd.frontier}
                satisfied = False
                for _ext in cnre_homomorphisms(tgd.head, current, seed=seed):
                    satisfied = True
                    break
                if not satisfied:
                    violations.append((tgd, hom))
        if not violations:
            return current, trace
        trace.append(len(violations))
        for tgd, hom in violations:
            _apply(current, tgd, hom, fresh)
    return current, trace


# --------------------------------------------------------------------- #
# Figure scenarios
# --------------------------------------------------------------------- #


class TestFigureScenarios:
    def test_fig1_solution_checks_unchanged(self):
        """Figure 1: G1/G2 solve Ω, G3 solves Ω′ but not Ω (sameAs ≠ egd)."""
        instance = flights_instance()
        assert is_solution(instance, graph_g1(), setting_omega())
        assert is_solution(instance, graph_g2(), setting_omega())
        assert is_solution(instance, graph_g3(), setting_omega_prime())
        assert not is_solution(instance, graph_g3(), setting_omega())

    def test_fig2_relational_chase(self):
        setting = example31_setting()
        result = chase_relational(
            setting.st_tgds, setting.egds(), flights_instance(), alphabet={"f", "h"}
        )
        assert result.succeeded
        assert is_isomorphic(result.expect_graph(), figure2_expected_graph())
        assert result.stats.null_merges == 1

    def test_fig3_pattern_chase(self):
        """Figure 3: three body matches ⇒ three nulls, nine edges."""
        result = chase_pattern([flights_st_tgd()], flights_instance(), alphabet={"f", "h"})
        pattern = result.expect_pattern()
        assert len(pattern.nulls()) == 3
        assert pattern.edge_count() == 9
        assert result.stats.st_applications == 3

    def test_fig5_egd_chase_equals_reference(self):
        engine = chase_with_egds(
            [flights_st_tgd()], [hotel_egd()], flights_instance(), alphabet={"f", "h"}
        )
        seeded = chase_pattern([flights_st_tgd()], flights_instance(), alphabet={"f", "h"})
        reference, failed, witness, merges = naive_egd_fixpoint(
            seeded.expect_pattern(), [hotel_egd()]
        )
        assert not failed and engine.succeeded
        assert engine.expect_pattern() == reference
        assert engine.stats.null_merges == merges == 1
        assert len(engine.expect_pattern().nulls()) == len(
            figure5_expected_pattern().nulls()
        )

    def test_fig6_example52_composite_body_falls_back(self):
        """Example 5.2: composite egd body — chase succeeds, as printed."""
        setting = example52_setting()
        result = chase_with_egds(
            setting.st_tgds, setting.egds(), example52_instance(),
            alphabet=setting.alphabet,
        )
        assert result.succeeded
        assert result.stats.egd_firings == 0

    def test_fig7_non_universality_counterexample_unchanged(self):
        extended = non_universality_counterexample(graph_g1(), [hotel_egd()])
        assert extended is not None
        assert not hotel_egd().is_satisfied(extended)


# --------------------------------------------------------------------- #
# Random-instance equivalence sweeps
# --------------------------------------------------------------------- #


class TestRandomEquivalence:
    @pytest.mark.parametrize("seed", range(12))
    def test_egd_chase_equals_reference(self, seed):
        rng = random.Random(seed)
        instance = random_flights_instance(
            rng.randint(1, 12), cities=rng.randint(2, 6), hotels=rng.randint(1, 4), rng=rng
        )
        engine = chase_with_egds(
            [flights_st_tgd()], [hotel_egd()], instance, alphabet={"f", "h"}
        )
        seeded = chase_pattern([flights_st_tgd()], instance, alphabet={"f", "h"})
        reference, failed, witness, merges = naive_egd_fixpoint(
            seeded.expect_pattern(), [hotel_egd()]
        )
        assert engine.failed == failed
        assert engine.stats.null_merges == merges
        assert engine.expect_pattern() == reference
        if failed:
            assert set(engine.failure_witness) == set(witness)

    @pytest.mark.parametrize("seed", range(12))
    def test_relational_chase_equals_seed_graph(self, seed):
        rng = random.Random(1000 + seed)
        instance = random_flights_instance(
            rng.randint(1, 10), cities=rng.randint(2, 5), hotels=rng.randint(1, 4), rng=rng
        )
        setting = example31_setting()
        result = chase_relational(
            setting.st_tgds, setting.egds(), instance, alphabet={"f", "h"}
        )
        assert result.succeeded
        graph = result.expect_graph()
        # The chased graph is a solution, and the egd holds at fixpoint.
        assert is_solution(instance, graph, setting)
        assert all(egd.is_satisfied(graph) for egd in setting.egds())

    @pytest.mark.parametrize("seed", range(12))
    def test_sameas_saturation_equals_reference(self, seed):
        rng = random.Random(2000 + seed)
        instance = random_flights_instance(
            rng.randint(1, 10), cities=rng.randint(2, 6), hotels=rng.randint(1, 4), rng=rng
        )
        engine = solve_with_sameas(
            [flights_st_tgd()], [hotel_sameas()], instance, alphabet={"f", "h"}
        )
        from repro.patterns.rep import canonical_instantiation

        seeded = chase_pattern([flights_st_tgd()], instance, alphabet={"f", "h"})
        instantiation = canonical_instantiation(seeded.expect_pattern(), star_bound=2)
        reference = naive_saturate(instantiation.graph, [hotel_sameas()])
        assert engine.expect_graph() == reference

    def test_sameas_cascade_with_transitive_body(self):
        from repro.mappings.parser import parse_sameas

        transitive = parse_sameas("(x, sameAs, z), (z, sameAs, y) -> (x, sameAs, y)")
        base = GraphDatabase(
            alphabet={SAME_AS_LABEL},
            edges=[
                ("a", SAME_AS_LABEL, "b"),
                ("b", SAME_AS_LABEL, "c"),
                ("c", SAME_AS_LABEL, "d"),
            ],
        )
        assert saturate_sameas(base, [transitive]) == naive_saturate(base, [transitive])

    @pytest.mark.parametrize("edges", [
        [("1", "a", "2"), ("2", "a", "3"), ("3", "a", "4")],
        [("1", "a", "2"), ("2", "a", "1")],
        [("1", "a", "1")],
    ])
    def test_transitive_closure_tgd_equals_reference(self, edges):
        tgd = parse_target_tgd("(x, a, y), (y, a, z) -> (x, a, z)")
        graph = GraphDatabase(edges=edges)
        engine = chase_target_tgds(graph, [tgd])
        reference, trace = naive_tgd_round_sets(graph.with_alphabet({"a"}), [tgd], 50)
        # No existentials: both materialise the exact same closure graph.
        assert engine.expect_graph() == reference
        assert engine.stats.tgd_applications == sum(trace)

    def test_existential_tgd_equivalent_up_to_fresh_names(self):
        tgd = parse_target_tgd("(x, a, y) -> (y, b, z)")
        graph = GraphDatabase(edges=[("u", "a", "v"), ("u", "a", "w")])
        engine = chase_target_tgds(graph, [tgd])
        reference, trace = naive_tgd_round_sets(graph.with_alphabet({"a", "b"}), [tgd], 50)
        assert is_isomorphic(engine.expect_graph(), reference)
        assert engine.stats.tgd_applications == sum(trace)
