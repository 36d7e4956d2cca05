"""Property-based tests: s-t tgd verification with one head-join plan per tgd.

:meth:`SourceToTargetTgd.violations` checks every body match's head with
one matcher and one join order per (tgd, graph).  The reference is the
per-trigger :meth:`SourceToTargetTgd.head_satisfied` loop, which builds a
fresh matcher and plans each head on its own.  On random graphs — chased
solutions with edges dropped and stray edges added — and on heads both
simple and not, the full violation report must list exactly the
reference's violations, in the same order.
"""

from hypothesis import given, settings, strategies as st

from repro.core.setting import DataExchangeSetting
from repro.core.solution import is_solution, solution_violations
from repro.engine.matcher import is_simple_query
from repro.graph.database import GraphDatabase
from repro.mappings.parser import parse_st_tgd
from repro.relational.instance import RelationalInstance
from repro.relational.schema import RelationalSchema

CONSTANTS = ("c0", "c1", "c2", "c3")
NODES = CONSTANTS + ("n0", "n1")
LABELS = ("a", "b")

TGDS = (
    "R(x, y) -> (x, a, y)",
    "R(x, y) -> (x, a, z), (z, b, y)",
    "R(x, y), S(y, w) -> (x, a-, z), (z, b, w)",
    "S(x, y) -> (x, b, x)",
    "R(x, y) -> (z, a, z)",
    "S(x, y) -> (y, a, z), (z, a, u), (u, b-, x)",
    # heads the shared plan does not cover: per-trigger path
    "R(x, y) -> (x, a . b, y)",
    "S(x, y) -> (x, a*, y)",
    "R(x, y) -> (x, a + b, z), (z, b, y)",
)


def schema() -> RelationalSchema:
    result = RelationalSchema()
    result.declare("R", 2)
    result.declare("S", 2)
    return result


pairs = st.tuples(st.sampled_from(CONSTANTS), st.sampled_from(CONSTANTS))
edges = st.tuples(st.sampled_from(NODES), st.sampled_from(LABELS), st.sampled_from(NODES))


@st.composite
def cases(draw):
    tgds = [
        parse_st_tgd(text, name=f"t{index}")
        for index, text in enumerate(TGDS)
        if draw(st.booleans())
    ]
    instance = RelationalInstance(
        schema(),
        {
            "R": draw(st.lists(pairs, max_size=5)),
            "S": draw(st.lists(pairs, max_size=4)),
        },
    )
    setting = DataExchangeSetting(schema(), set(LABELS), tgds, [], name="plan")
    # Start from a graph that satisfies the single-edge heads, then drop
    # and add edges so that some heads fail and some hold by accident.
    graph = GraphDatabase(alphabet=set(LABELS))
    for source, target in instance.tuples("R"):
        graph.add_edge(source, "a", target)
    for source, target in instance.tuples("S"):
        graph.add_edge(source, "b", source)
    current = sorted(graph.edges(), key=repr)
    if current:
        for edge in draw(st.lists(st.sampled_from(current), max_size=3)):
            if graph.has_edge(edge.source, edge.label, edge.target):
                graph.remove_edge(edge.source, edge.label, edge.target)
    for source, label, target in draw(st.lists(edges, max_size=8)):
        graph.add_edge(source, label, target)
    return setting, instance, graph


def per_trigger_violations(setting, instance, graph):
    return [
        (tgd, match)
        for tgd in setting.st_tgds
        for match in tgd.body_matches(instance)
        if not tgd.head_satisfied(graph, match)
    ]


def test_the_pool_covers_both_head_shapes():
    shapes = {is_simple_query(parse_st_tgd(text).head) for text in TGDS}
    assert shapes == {True, False}


@settings(max_examples=200, deadline=None)
@given(cases())
def test_planned_violations_equal_the_per_trigger_loop(case):
    setting, instance, graph = case
    expected = per_trigger_violations(setting, instance, graph)
    report = solution_violations(instance, graph, setting, first_only=False)
    assert report.st_tgd_violations == expected
    assert is_solution(instance, graph, setting) == (not expected)
