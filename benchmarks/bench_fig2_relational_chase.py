"""E3 / Figure 2, Example 3.1 — the relational chase in the single-symbol
fragment.

Paper facts regenerated and asserted:

* the chase merges the two hx-cities (one merge), leaving two nulls;
* the chased graph is isomorphic to the Figure 2 drawing (5 f + 2 h edges);
* the chased graph is a solution for the fragment setting.
"""

from conftest import report
from oracles.graph_homomorphism import is_isomorphic

from repro.chase.relational_chase import chase_relational
from repro.core.solution import is_solution
from repro.patterns.pattern import is_null
from repro.scenarios.figures import example31_setting, figure2_expected_graph
from repro.scenarios.flights import flights_instance


def test_figure2_chase(benchmark):
    setting = example31_setting()
    instance = flights_instance()

    result = benchmark(
        lambda: chase_relational(
            setting.st_tgds, setting.egds(), instance, alphabet=setting.alphabet
        )
    )
    graph = result.expect_graph()
    nulls = sum(1 for n in graph.nodes() if is_null(n))
    isomorphic = is_isomorphic(graph, figure2_expected_graph())
    solves = is_solution(instance, graph, setting)

    report(
        "E3 / Figure 2",
        [
            ("chase succeeds", True, result.succeeded),
            ("null merges (hx cities)", 1, result.stats.null_merges),
            ("surviving nulls", 2, nulls),
            ("edges", 7, graph.edge_count()),
            ("isomorphic to Figure 2", True, isomorphic),
            ("is a solution", True, solves),
        ],
    )
    assert result.succeeded and isomorphic and solves
    assert result.stats.null_merges == 1 and nulls == 2
