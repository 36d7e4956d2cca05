"""Differential suite: set-at-a-time solution checking against the per-match oracle.

:func:`repro.core.solution.solution_violations` decides each s-t tgd on
the frontier projection of its body matches with compiled head probes,
and each functional egd on the adjacency sets alone.
:func:`oracles.reference_solution.solution_violations` runs one head
search per body match and enumerates every egd through the matcher.  On
random settings and on the medlit and social generators, with edges
removed (leaving empty adjacency sets behind), edges added that break a
functional egd, and nodes renamed, on mutable, frozen and
snapshot-loaded graphs, the verdict, the first-violation report and the
full report must equal the oracle's, item for item and in order.
"""

import os
import tempfile
from functools import lru_cache

from hypothesis import given, settings, strategies as st

from oracles import reference_solution
from repro.core.setting import DataExchangeSetting
from repro.core.solution import is_solution, solution_violations
from repro.core.tractable import chase_universal
from repro.engine.delta import _functional_profile
from repro.graph.database import GraphDatabase
from repro.graph.snapshot import load_snapshot, save_snapshot
from repro.io.json_io import document_from_dict
from repro.mappings.parser import parse_egd, parse_st_tgd
from repro.mappings.stt import _plan_head
from repro.relational.instance import RelationalInstance
from repro.relational.schema import RelationalSchema
from repro.scenarios.scale import GeneratorConfig, scale_document

CONSTANTS = ("c0", "c1", "c2", "c3")
NODES = CONSTANTS + ("n0", "n1")
LABELS = ("a", "b")

TGDS = (
    # frontier-frontier atoms: index probes
    "R(x, y) -> (x, a, y)",
    "R(x, y) -> (x, a-, y)",
    "R(x, y) -> (x, a + b-, y)",
    # lone existentials: domain tests
    "S(x, y) -> (x, b, z)",
    "S(x, y) -> (z, a, y), (x, b + a-, w)",
    # shared existentials: memoised join groups
    "R(x, y) -> (x, a, z), (z, b, y)",
    "S(x, y) -> (y, a, z), (z, a, u), (u, b-, x)",
    "R(x, y) -> (z, a, z)",
    # multi-atom bodies, repeated variables, constants
    "R(x, y), S(y, w) -> (x, a-, z), (z, b, w)",
    "S(x, x) -> (x, b, x)",
    "S(x, y) -> (x, b, x)",
    "R(x, 'c1'), S(x, w) -> (x, a, w), (w, b, v)",
    # heads the compiled checks do not cover: per-row head search
    "R(x, y) -> (x, a . b, y)",
    "S(x, y) -> (x, a*, y)",
    "R(x, y) -> (x, a + b, z), (z, b, y)",
)

EGDS = (
    "(x1, a, k), (x2, a, k) -> x1 = x2",
    "(k, b, x1), (k, b, x2) -> x1 = x2",
    "(k, a-, x1), (x2, a, k) -> x1 = x2",
    "(x1, a, y), (y, b, x2) -> x1 = x2",
)


def schema() -> RelationalSchema:
    result = RelationalSchema()
    result.declare("R", 2)
    result.declare("S", 2)
    return result


def as_stored(graph: GraphDatabase, storage: str) -> GraphDatabase:
    """The graph itself, its frozen copy, or its snapshot reloaded."""
    if storage == "frozen":
        return graph.freeze()
    if storage == "snapshot":
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "graph.snap")
            save_snapshot(graph, path)
            return load_snapshot(path)
    return graph


def assert_matches_oracle(instance, graph, setting):
    full = solution_violations(instance, graph, setting)
    expected = reference_solution.solution_violations(instance, graph, setting)
    assert full.st_tgd_violations == expected.st_tgd_violations
    assert full.egd_violations == expected.egd_violations
    assert full.sameas_violations == expected.sameas_violations
    assert full.tgd_violations == expected.tgd_violations
    first = solution_violations(instance, graph, setting, first_only=True)
    expected_first = reference_solution.solution_violations(
        instance, graph, setting, first_only=True
    )
    assert first.st_tgd_violations == expected_first.st_tgd_violations
    assert first.egd_violations == expected_first.egd_violations
    assert is_solution(instance, graph, setting) == expected.ok


pairs = st.tuples(st.sampled_from(CONSTANTS), st.sampled_from(CONSTANTS))
edges = st.tuples(st.sampled_from(NODES), st.sampled_from(LABELS), st.sampled_from(NODES))
storages = st.sampled_from(("mutable", "frozen", "snapshot"))


@st.composite
def random_cases(draw):
    tgds = [
        parse_st_tgd(text, name=f"t{index}")
        for index, text in enumerate(TGDS)
        if draw(st.booleans())
    ]
    egds = [
        parse_egd(text, name=f"e{index}")
        for index, text in enumerate(EGDS)
        if draw(st.booleans())
    ]
    instance = RelationalInstance(
        schema(),
        {
            "R": draw(st.lists(pairs, max_size=5)),
            "S": draw(st.lists(pairs, max_size=4)),
        },
    )
    setting = DataExchangeSetting(schema(), set(LABELS), tgds, egds, name="diff")
    # Start from a graph that satisfies the single-edge heads, then drop,
    # add and merge so that some dependencies fail and some hold.
    graph = GraphDatabase(alphabet=set(LABELS))
    for source, target in instance.tuples("R"):
        graph.add_edge(source, "a", target)
    for source, _ in instance.tuples("S"):
        graph.add_edge(source, "b", source)
    for source, label, target in draw(st.lists(edges, max_size=8)):
        graph.add_edge(source, label, target)
    current = sorted(graph.live_triples())
    if current:
        for triple in draw(st.lists(st.sampled_from(current), max_size=3)):
            graph.remove_edge(*triple)
    renames = st.tuples(st.sampled_from(NODES), st.sampled_from(NODES))
    for old, new in draw(st.lists(renames, max_size=2)):
        graph.rename_node(old, new)
    return setting, instance, as_stored(graph, draw(storages))


def test_the_pool_covers_every_kind_of_head_check():
    kinds = set()
    for text in TGDS:
        plan = _plan_head(parse_st_tgd(text))
        kinds.update(["per-row search"] if plan is None else [s[0] for s in plan])
    assert kinds == {"probe", "domain", "join", "per-row search"}


@settings(max_examples=300, deadline=None)
@given(random_cases())
def test_random_settings_match_the_oracle(case):
    setting, instance, graph = case
    assert_matches_oracle(instance, graph, setting)


def test_removed_edge_leaves_an_empty_set_that_fails_the_domain_test():
    instance = RelationalInstance(schema(), {"S": [("c0", "c1")]})
    setting = DataExchangeSetting(
        schema(), set(LABELS), [parse_st_tgd("S(x, y) -> (x, b, z)")], []
    )
    graph = GraphDatabase(alphabet=set(LABELS), edges=[("c0", "b", "n0")])
    assert is_solution(instance, graph, setting)
    graph.remove_edge("c0", "b", "n0")
    assert graph.forward_index("b") == {"c0": set()}
    assert not is_solution(instance, graph, setting)
    assert_matches_oracle(instance, graph, setting)


# --------------------------------------------------------------------- #
# The scale generators: chased universal solutions, then mutated.
# --------------------------------------------------------------------- #


@lru_cache(maxsize=None)
def generated(family: str, seed: int):
    document = scale_document(GeneratorConfig(family=family, nodes=60, seed=seed))
    return document_from_dict(document)


@st.composite
def generator_cases(draw):
    family = draw(st.sampled_from(("medlit", "social")))
    setting, instance = generated(family, draw(st.integers(1, 3)))
    graph = chase_universal(setting, instance).expect_graph()
    triples = sorted(graph.live_triples(), key=repr)
    nodes = sorted(graph.nodes(), key=repr)
    functional = [
        profile
        for profile in map(_functional_profile, setting.egds())
        if profile is not None
    ]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("remove", "break-egd", "rename")))
        if kind == "remove":
            graph.remove_edge(*draw(st.sampled_from(triples)))
        elif kind == "break-egd":
            label, direction = draw(st.sampled_from(functional))
            keyed = [t for t in triples if t[1] == label]
            if not keyed:
                continue
            source, _, target = draw(st.sampled_from(keyed))
            other = draw(st.sampled_from(nodes + ["extra"]))
            if direction == "in":  # the key is the target
                graph.add_edge(other, label, target)
            else:
                graph.add_edge(source, label, other)
        else:
            old, new = draw(st.sampled_from(nodes)), draw(st.sampled_from(nodes))
            if old in graph:
                graph.rename_node(old, new)
    return setting, instance, as_stored(graph, draw(storages))


@settings(max_examples=60, deadline=None)
@given(generator_cases())
def test_generated_tenants_match_the_oracle(case):
    setting, instance, graph = case
    assert_matches_oracle(instance, graph, setting)


def test_chased_tenants_are_solutions():
    for family in ("medlit", "social"):
        for seed in (1, 2, 3):
            setting, instance = generated(family, seed)
            graph = chase_universal(setting, instance).expect_graph()
            for storage in ("mutable", "frozen", "snapshot"):
                assert is_solution(instance, as_stored(graph, storage), setting)
