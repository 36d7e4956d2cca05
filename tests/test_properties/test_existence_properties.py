"""Differential property test: the two existence back-ends must agree.

On the Theorem 4.1 fragment (union-of-symbols heads, word egds) the SAT
bounded-model decision is *complete*; the candidate search is sound for
EXISTS and the chase is sound for NOT-EXISTS.  Forcing the strategy stack
down each path on random fragment settings and comparing the verdicts
differential-tests the core of the existence engine.
"""

import random

from hypothesis import given, settings, strategies as st

from oracles import solve_cnf
from repro.chase.pattern_chase import chase_pattern
from repro.core.existence import ExistenceStatus, decide_existence
from repro.core.search import CandidateSearchConfig, candidate_solutions
from repro.core.solution import is_solution
from repro.scenarios.generators import random_fragment_setting
from repro.solver.encode import encode_bounded_existence


@st.composite
def fragment_settings(draw):
    seed = draw(st.integers(min_value=0, max_value=100_000))
    return random_fragment_setting(rng=random.Random(seed))


class TestBackendAgreement:
    @settings(max_examples=60, deadline=None)
    @given(fragment_settings())
    def test_sat_verdict_matches_search(self, pair):
        setting, instance = pair
        assert setting.fragment().sat_encodable

        # Back-end 1: the full strategy stack (will use chase/SAT).
        stack = decide_existence(setting, instance)
        assert stack.status in (ExistenceStatus.EXISTS, ExistenceStatus.NOT_EXISTS)

        # Back-end 2: raw SAT over the pattern's nodes.
        pattern = chase_pattern(
            setting.st_tgds, instance, alphabet=setting.alphabet
        ).expect_pattern()
        nodes = sorted(pattern.nodes(), key=repr)
        sat_exists = (
            solve_cnf(encode_bounded_existence(setting, instance, nodes)) is not None
        )
        assert stack.exists == sat_exists

        # Back-end 3: the candidate search must find a witness whenever the
        # SAT decision says one exists.
        if sat_exists:
            found = next(
                iter(
                    candidate_solutions(
                        setting, instance, CandidateSearchConfig(star_bound=1)
                    )
                ),
                None,
            )
            assert found is not None
            assert is_solution(instance, found, setting)

    @settings(max_examples=40, deadline=None)
    @given(fragment_settings())
    def test_witnesses_always_verified(self, pair):
        setting, instance = pair
        result = decide_existence(setting, instance)
        if result.exists:
            assert result.witness is not None
            assert is_solution(instance, result.witness, setting)

    @settings(max_examples=40, deadline=None)
    @given(fragment_settings())
    def test_chase_failure_implies_sat_unsat(self, pair):
        """Chase failure is sound: the complete decision must concur."""
        from repro.chase.egd_chase import chase_with_egds

        setting, instance = pair
        chase = chase_with_egds(
            setting.st_tgds, setting.egds(), instance, alphabet=setting.alphabet
        )
        if chase.failed:
            result = decide_existence(setting, instance)
            assert result.status is ExistenceStatus.NOT_EXISTS
