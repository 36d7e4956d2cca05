"""Property-based tests for the chase engines on random Flight/Hotel data.

Invariants:

* the pattern chase always produces a pattern whose canonical instantiation
  solves the constraint-free setting;
* the egd chase never fails on the hotel scenario (only nulls get merged)
  and its output pattern satisfies "one city per hotel" on the symbol view;
* the relational chase (Example 3.1 fragment) produces a genuine solution
  whenever it succeeds, and agrees with the egd-pattern chase on the number
  of surviving nulls;
* the sameAs construction always returns a verified solution;
* the union-find sameAs saturation is byte-identical to the
  journal-order oracle it replaced (``tests/oracles/sameas_journal.py``).
"""

import json
import random
from unittest import mock

from hypothesis import given, settings, strategies as st

from oracles import saturate_journal
from repro.chase import sameas_chase
from repro.chase.egd_chase import chase_with_egds, pattern_symbol_view
from repro.chase.pattern_chase import chase_pattern
from repro.chase.relational_chase import chase_relational
from repro.chase.sameas_chase import saturate_sameas, solve_with_sameas
from repro.core.solution import is_solution
from repro.io.json_io import graph_to_dict
from repro.mappings.parser import parse_sameas
from repro.mappings.sameas import SAME_AS_LABEL
from repro.patterns.rep import canonical_instantiation
from repro.scenarios.figures import example31_setting
from repro.scenarios.flights import (
    hotel_egd,
    hotel_sameas,
    flights_st_tgd,
    setting_no_constraints,
    setting_omega_prime,
)
from repro.scenarios.generators import random_flights_instance

_hotel_sameas_constraint = hotel_sameas()
_symmetry_constraint = parse_sameas("(x, sameAs, y) -> (y, sameAs, x)")
_transitivity_constraint = parse_sameas(
    "(x, sameAs, y), (y, sameAs, z) -> (x, sameAs, z)"
)


def _chased_graph(instance):
    """Steps (i)–(ii) of the sameAs construction: chase, then instantiate."""
    pattern = chase_pattern(
        [flights_st_tgd()], instance, alphabet={"f", "h"}
    ).pattern
    return canonical_instantiation(pattern, alphabet=pattern.alphabet).graph


@st.composite
def flight_instances(draw):
    seed = draw(st.integers(min_value=0, max_value=100_000))
    flights = draw(st.integers(min_value=1, max_value=5))
    cities = draw(st.integers(min_value=2, max_value=4))
    hotels = draw(st.integers(min_value=1, max_value=3))
    return random_flights_instance(
        flights, cities=cities, hotels=hotels, rng=random.Random(seed)
    )


class TestPatternChase:
    @settings(max_examples=30, deadline=None)
    @given(flight_instances())
    def test_canonical_instantiation_solves(self, instance):
        setting = setting_no_constraints()
        pattern = chase_pattern(
            setting.st_tgds, instance, alphabet=setting.alphabet
        ).expect_pattern()
        solution = canonical_instantiation(pattern, star_bound=2).graph
        assert is_solution(instance, solution, setting)

    @settings(max_examples=30, deadline=None)
    @given(flight_instances())
    def test_one_null_per_trigger(self, instance):
        result = chase_pattern([flights_st_tgd()], instance, alphabet={"f", "h"})
        assert len(result.expect_pattern().nulls()) == result.stats.st_applications


class TestEgdChase:
    @settings(max_examples=30, deadline=None)
    @given(flight_instances())
    def test_never_fails_on_flights(self, instance):
        """Hotel cities are always nulls here, so merging cannot clash."""
        result = chase_with_egds(
            [flights_st_tgd()], [hotel_egd()], instance, alphabet={"f", "h"}
        )
        assert result.succeeded

    @settings(max_examples=30, deadline=None)
    @given(flight_instances())
    def test_output_satisfies_egd_on_symbol_view(self, instance):
        result = chase_with_egds(
            [flights_st_tgd()], [hotel_egd()], instance, alphabet={"f", "h"}
        )
        view = pattern_symbol_view(result.expect_pattern())
        assert hotel_egd().is_satisfied(view)

    @settings(max_examples=30, deadline=None)
    @given(flight_instances())
    def test_merges_bounded_by_initial_nulls(self, instance):
        result = chase_with_egds(
            [flights_st_tgd()], [hotel_egd()], instance, alphabet={"f", "h"}
        )
        assert result.stats.null_merges <= result.stats.st_applications


class TestRelationalChase:
    @settings(max_examples=30, deadline=None)
    @given(flight_instances())
    def test_chased_graph_is_solution(self, instance):
        setting = example31_setting()
        result = chase_relational(
            setting.st_tgds, setting.egds(), instance, alphabet=setting.alphabet
        )
        assert result.succeeded  # cities are nulls: merging never clashes
        assert is_solution(instance, result.expect_graph(), setting)

    @settings(max_examples=30, deadline=None)
    @given(flight_instances())
    def test_null_count_matches_pattern_chase(self, instance):
        """Both chase styles merge the same hotel-city classes."""
        from repro.patterns.pattern import is_null

        setting31 = example31_setting()
        graph_result = chase_relational(
            setting31.st_tgds, setting31.egds(), instance, alphabet={"f", "h"}
        )
        pattern_result = chase_with_egds(
            [flights_st_tgd()], [hotel_egd()], instance, alphabet={"f", "h"}
        )
        graph_nulls = sum(
            1 for n in graph_result.expect_graph().nodes() if is_null(n)
        )
        assert graph_nulls == len(pattern_result.expect_pattern().nulls())


class TestSameAsConstruction:
    @settings(max_examples=30, deadline=None)
    @given(flight_instances())
    def test_always_produces_solution(self, instance):
        result = solve_with_sameas(
            [flights_st_tgd()], [hotel_sameas()], instance, alphabet={"f", "h"}
        )
        assert is_solution(instance, result.expect_graph(), setting_omega_prime())


class TestSameAsStrategyDifferential:
    """The union-find saturation is byte-identical to the journal oracle.

    ``saturate_sameas`` computes a least fixpoint of monotone rules, so
    the result is unique whatever the insertion order — but "identical
    graph" is a weaker promise than "identical bytes on the wire".  These
    properties pin the strong version over random chased graphs, random
    extra sameAs seed edges (pre-built equivalence classes), and every
    constraint-shape combination the union-find saturation distinguishes:
    generic bodies, the recognised symmetry/transitivity pair (absorbed
    into the union-find), and a lone law (not absorbed).
    """

    CONSTRAINT_SETS = {
        "generic": [_hotel_sameas_constraint],
        "generic+laws": [
            _hotel_sameas_constraint,
            _symmetry_constraint,
            _transitivity_constraint,
        ],
        "laws-only": [_symmetry_constraint, _transitivity_constraint],
        "generic+symmetry-only": [_hotel_sameas_constraint, _symmetry_constraint],
        "generic+transitivity-only": [
            _hotel_sameas_constraint,
            _transitivity_constraint,
        ],
    }

    @settings(max_examples=40, deadline=None)
    @given(
        flight_instances(),
        st.sampled_from(sorted(CONSTRAINT_SETS)),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=4),
    )
    def test_saturation_byte_identical(self, instance, shape, seed, extra):
        graph = _chased_graph(instance)
        nodes = sorted(graph.nodes(), key=repr)
        rng = random.Random(seed)
        widened = graph.with_alphabet(set(graph.alphabet) | {SAME_AS_LABEL})
        for _ in range(extra):  # pre-seeded equivalence classes
            widened.add_edge(rng.choice(nodes), SAME_AS_LABEL, rng.choice(nodes))
        constraints = self.CONSTRAINT_SETS[shape]
        unionfind = saturate_sameas(widened, constraints)
        journal = saturate_journal(widened, constraints)
        assert unionfind == journal, f"graphs diverged on shape={shape}"
        assert json.dumps(graph_to_dict(unionfind), sort_keys=True) == json.dumps(
            graph_to_dict(journal), sort_keys=True
        ), f"serialized bytes diverged on shape={shape}"

    @settings(max_examples=15, deadline=None)
    @given(flight_instances())
    def test_solution_pipeline_byte_identical(self, instance):
        """End-to-end ``solve_with_sameas``, then again with the journal
        oracle patched in as its saturation step."""

        def solved_bytes():
            solved = solve_with_sameas(
                [flights_st_tgd()],
                [_hotel_sameas_constraint],
                instance,
                alphabet={"f", "h"},
            )
            return json.dumps(graph_to_dict(solved.expect_graph()), sort_keys=True)

        unionfind = solved_bytes()
        with mock.patch.object(sameas_chase, "saturate_sameas", saturate_journal):
            journal = solved_bytes()
        assert unionfind == journal
