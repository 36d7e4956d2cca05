"""Differential tests: the int-id chase against the edge-at-a-time oracle.

:func:`repro.chase.relational_chase.chase_relational` fires s-t triggers
into int-id edges, closes functional egds with a union-find over a parent
list and loads the graph once; :func:`oracles.relational_chase.
chase_relational_sequential` writes every edge through ``add_edge`` and
merges one violation at a time.  They must agree on everything a caller
can observe: nodes, edges, null labels, every ``ChaseStats`` counter,
failure and its witness, fingerprint, the destructive flag and, for a
graph that kept its history, the journal order and the very objects it
holds (compared by ``repr``).  Cases:

* cascading functional egds whose keys are nulls (a key merge unites two
  member groups), with constants that make some runs fail;
* constants that are equal but spelled apart (``1``, ``1.0``, ``True``,
  ``-0.0``), spelled like nulls (``"N1"``), tuples, and distinct values
  that tie on ``repr``, under functional, non-functional and no egds;
* empty relations;
* non-functional chain egds, alone and mixed with a functional one, on the
  Example 3.1 flights data;
* a head label outside the alphabet, which must raise the same error;
* generated ``medlit`` / ``social`` tenants;
* the union-find closure both chases share, called directly on random id
  graphs, against the oracle's sequential fixpoint under two root ranks.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles.relational_chase import chase_relational_sequential, sequential_merges
from repro.chase.relational_chase import (
    _close,
    _find,
    _functional_links,
    _functional_sides,
    chase_relational,
)
from repro.errors import SchemaError
from repro.mappings.parser import parse_egd, parse_st_tgd
from repro.patterns.pattern import Null, is_null
from repro.relational.instance import RelationalInstance
from repro.relational.schema import RelationalSchema
from repro.scenarios.figures import example31_setting
from repro.scenarios.flights import hotel_egd
from repro.scenarios.scale import GeneratorConfig, generate_instance, scale_setting
from test_properties.test_chase_properties import flight_instances


def observable(result):
    graph = result.graph
    return {
        "nodes": graph.nodes(),
        "edges": graph.edges(),
        "nulls": sorted(node.label for node in graph.nodes() if is_null(node)),
        "stats": result.stats.as_dict(),
        "failed": result.failed,
        "witness": result.failure_witness,
        "fingerprint": graph.fingerprint(),
        "destructive": graph.destructive,
        # A merged graph's journal is its final edge list, not a history.
        "journal": None if graph.destructive else repr(graph.journal_triples()),
    }


def assert_agrees(tgds, egds, instance, alphabet):
    chased = chase_relational(tgds, egds, instance, alphabet=alphabet)
    oracle = chase_relational_sequential(tgds, egds, instance, alphabet=alphabet)
    assert observable(chased) == observable(oracle)
    return chased


# --------------------------------------------------------------------- #
# Cascading functional egds over null keys
# --------------------------------------------------------------------- #

KEYED_SCHEMA = RelationalSchema()
for _name in ("R", "S", "T"):
    KEYED_SCHEMA.declare(_name, 2)

KEYED_TGDS = [
    # every R fact invents a key null z and a member null w under it
    parse_st_tgd("R(x, y) -> (x, a, z), (z, b, w), (w, c, y)"),
    # S gives x a constant a-successor; T a constant b-successor of a constant
    parse_st_tgd("S(x, y) -> (x, a, y)"),
    parse_st_tgd("T(x, y) -> (x, b, y)"),
]
KEYED_EGDS = [
    # a: one successor per node (merges the key nulls z of one x) ...
    parse_egd("(x3, a, x1), (x3, a, x2) -> x1 = x2"),
    # ... b: one successor per key (cascade: merged keys unite members) ...
    parse_egd("(x3, b, x1), (x3, b, x2) -> x1 = x2"),
    # ... c, mirrored: one c-predecessor per node (members keyed by a constant)
    parse_egd("(x1, c, x3), (x2, c, x3) -> x1 = x2"),
]
KEYED_ALPHABET = {"a", "b", "c"}

_constants = st.sampled_from(["k0", "k1", "k2", "k3"])
_pairs = st.lists(st.tuples(_constants, _constants), max_size=6)


@st.composite
def keyed_instances(draw):
    return RelationalInstance(
        KEYED_SCHEMA, {"R": draw(_pairs), "S": draw(_pairs), "T": draw(_pairs)}
    )


class TestFunctionalEgds:
    @settings(max_examples=150, deadline=None)
    @given(keyed_instances())
    @example(RelationalInstance(KEYED_SCHEMA, {"R": [("k0", "k1"), ("k0", "k2")]}))
    @example(
        RelationalInstance(
            KEYED_SCHEMA,
            {"R": [("k0", "k1")], "S": [("k0", "k2")], "T": [("k2", "k1"), ("k2", "k3")]},
        )
    )
    def test_matches_oracle(self, instance):
        assert_agrees(KEYED_TGDS, KEYED_EGDS, instance, KEYED_ALPHABET)

    def test_null_keys_cascade(self):
        """Two R facts of one x: keys z merge, so their members w merge too."""
        instance = RelationalInstance(
            KEYED_SCHEMA, {"R": [("k0", "k1"), ("k0", "k2")]}
        )
        chased = assert_agrees(KEYED_TGDS, KEYED_EGDS, instance, KEYED_ALPHABET)
        assert chased.succeeded
        assert chased.stats.null_merges == 2
        assert sorted(n.label for n in chased.graph.nodes() if is_null(n)) == [
            "N1", "N2"
        ]

    def test_constant_conflict_fails_like_the_oracle(self):
        instance = RelationalInstance(
            KEYED_SCHEMA,
            {"R": [("k0", "k1")], "S": [("k0", "k2"), ("k0", "k3")]},
        )
        chased = assert_agrees(KEYED_TGDS, KEYED_EGDS, instance, KEYED_ALPHABET)
        assert chased.failed and chased.failure_witness == ("k2", "k3")


class _SameRepr:
    """Distinct constants that print alike: the chase dedupes on ``repr``."""

    def __init__(self, ident):
        self.ident = ident

    def __eq__(self, other):
        return isinstance(other, _SameRepr) and other.ident == self.ident

    def __hash__(self):
        return hash(self.ident)

    def __repr__(self):
        return "same"


def test_matches_with_equal_reprs_fire_once():
    instance = RelationalInstance(
        KEYED_SCHEMA, {"R": [(_SameRepr(1), "k0"), (_SameRepr(2), "k0")]}
    )
    chased = assert_agrees(KEYED_TGDS, KEYED_EGDS, instance, KEYED_ALPHABET)
    assert chased.stats.st_applications == 1


# --------------------------------------------------------------------- #
# Constants spelled apart, spelled like nulls, tuples and repr ties
# --------------------------------------------------------------------- #

KEYED_CHAIN_EGD = parse_egd("(x1, a . b, x3), (x2, a . b, x3) -> x1 = x2")
EGD_SETS = {
    "functional": KEYED_EGDS,
    "none": [],
    "non-functional": [KEYED_CHAIN_EGD],
    "mixed": [KEYED_EGDS[0], KEYED_CHAIN_EGD],
}

_spellings = st.sampled_from(
    [1, 1.0, True, 0.0, -0.0, "N1", "N2", "k0", ("k0", 1), ("k0", 1.0),
     _SameRepr(1), _SameRepr(2)]
)
_spelled_pairs = st.lists(st.tuples(_spellings, _spellings), max_size=5)


@st.composite
def spelled_instances(draw):
    return RelationalInstance(
        KEYED_SCHEMA,
        {"R": draw(_spelled_pairs), "S": draw(_spelled_pairs), "T": draw(_spelled_pairs)},
    )


def spelled(facts):
    return RelationalInstance(KEYED_SCHEMA, facts)


def journal_sources(result):
    return [source for source, _, _ in result.graph.journal_triples()]


class TestConstantSpellings:
    @settings(max_examples=200, deadline=None)
    @given(spelled_instances(), st.sampled_from(sorted(EGD_SETS)))
    @example(spelled({"R": [(1, "k0"), (1.0, "k0"), (True, "k0")]}), "functional")
    @example(spelled({"S": [("k0", 1), ("k0", 1.0)], "R": [("k0", True)]}), "functional")
    @example(spelled({"S": [("k0", 0.0), ("k0", -0.0)], "R": [("k0", "N1")]}), "mixed")
    def test_matches_oracle(self, instance, egd_set):
        assert_agrees(KEYED_TGDS, EGD_SETS[egd_set], instance, KEYED_ALPHABET)

    def test_equal_constants_keep_their_own_objects(self):
        """1, 1.0 and True are one node, but each row journals its own."""
        instance = spelled({"R": [(1, "k1"), (1.0, "k2"), (True, "k3")]})
        chased = assert_agrees(KEYED_TGDS, [], instance, KEYED_ALPHABET)
        sources = journal_sources(chased)
        assert [repr(node) for node in sources[::3]] == ["1", "1.0", "True"]
        assert chased.graph.fingerprint() is not None

    def test_equal_strings_keep_their_own_objects(self):
        """Equal, equally printed constants still journal the row's object."""
        first, second = "".join(["k", "0"]), "".join(["k", "0"])
        assert first == second and first is not second
        instance = spelled({"S": [(first, "k1"), (second, "k2")]})
        chased = assert_agrees(KEYED_TGDS, [], instance, KEYED_ALPHABET)
        rows = {target: source for source, _, target in
                chased.graph.journal_triples()}
        facts = dict((target, source) for source, target in instance.tuples("S"))
        assert rows["k1"] is facts["k1"] and rows["k2"] is facts["k2"]

    def test_equal_constants_are_one_node_to_the_union_find(self):
        """Each spelling's z null hangs off one node: the a-egd merges them."""
        instance = spelled({"R": [(1, "k1"), (1.0, "k2"), (True, "k3")]})
        chased = assert_agrees(KEYED_TGDS, KEYED_EGDS[:1], instance, KEYED_ALPHABET)
        assert chased.succeeded and chased.stats.null_merges == 2

    def test_constants_spelled_like_nulls_stay_constants(self):
        instance = spelled({"R": [("N1", "N2")], "S": [("N2", "N1")]})
        chased = assert_agrees(KEYED_TGDS, KEYED_EGDS, instance, KEYED_ALPHABET)
        nodes = chased.graph.nodes()
        assert "N1" in nodes and "N2" in nodes
        assert sum(map(is_null, nodes)) == 2

    def test_tuple_constants(self):
        instance = spelled({"R": [(("k", 1), ("k", 1.0))], "S": [(("k", 1), "k0")]})
        chased = assert_agrees(KEYED_TGDS, KEYED_EGDS, instance, KEYED_ALPHABET)
        assert ("k", 1) in chased.graph.nodes()

    def test_rows_that_tie_on_repr_fire_once_per_tgd(self):
        instance = spelled(
            {"S": [(_SameRepr(1), "k0"), (_SameRepr(2), "k0")],
             "T": [(_SameRepr(2), "k1")]}
        )
        chased = assert_agrees(KEYED_TGDS, KEYED_EGDS, instance, KEYED_ALPHABET)
        assert chased.stats.st_applications == 2

    def test_constant_clash_between_spellings(self):
        """1 and 1.0 are equal, 2 is not: only the second run fails."""
        merged = assert_agrees(
            KEYED_TGDS, KEYED_EGDS, spelled({"S": [("k0", 1), ("k0", 1.0)]}),
            KEYED_ALPHABET,
        )
        assert merged.succeeded
        failed = assert_agrees(
            KEYED_TGDS, KEYED_EGDS,
            spelled({"R": [("k0", "k1")], "S": [("k0", 1.0), ("k0", 2)]}),
            KEYED_ALPHABET,
        )
        assert failed.failed and set(failed.failure_witness) == {1.0, 2}

    def test_non_functional_egd_replays(self):
        """1 and True share m's a.b-target with 2: the replay fails on 1 = 2."""
        instance = spelled({"S": [(1, "m"), (True, "m"), (2, "m")], "T": [("m", "t")]})
        chased = assert_agrees(KEYED_TGDS, [KEYED_CHAIN_EGD], instance, KEYED_ALPHABET)
        assert chased.failed and set(chased.failure_witness) == {1, 2}


class TestEmptyRelations:
    @pytest.mark.parametrize("egd_set", sorted(EGD_SETS))
    def test_empty_instance(self, egd_set):
        chased = assert_agrees(
            KEYED_TGDS, EGD_SETS[egd_set], spelled({}), KEYED_ALPHABET
        )
        assert chased.succeeded and chased.graph.edge_count() == 0

    def test_some_relations_empty(self):
        chased = assert_agrees(
            KEYED_TGDS, KEYED_EGDS, spelled({"S": [("k0", "k1")]}), KEYED_ALPHABET
        )
        assert chased.stats.st_applications == 1


# --------------------------------------------------------------------- #
# Non-functional chain egds on the Example 3.1 data
# --------------------------------------------------------------------- #

CHAIN_EGD = parse_egd("(x1, f . h, x3), (x2, f . h, x3) -> x1 = x2")


class TestExample31:
    @settings(max_examples=60, deadline=None)
    @given(flight_instances(), st.sampled_from(["functional", "chain", "mixed"]))
    def test_matches_oracle(self, instance, egd_set):
        setting = example31_setting()
        egds = {
            "functional": [hotel_egd()],
            "chain": [CHAIN_EGD],
            "mixed": [hotel_egd(), CHAIN_EGD],
        }[egd_set]
        assert_agrees(setting.st_tgds, egds, instance, setting.alphabet)


# --------------------------------------------------------------------- #
# A head label outside the alphabet
# --------------------------------------------------------------------- #


class TestAlphabet:
    @pytest.mark.parametrize(
        "facts", [{"R": [("k0", "k1")]}, {"S": [("k0", "k1")]}, {}]
    )
    def test_same_schema_error(self, facts):
        instance = RelationalInstance(KEYED_SCHEMA, facts)
        outcomes = []
        for chase in (chase_relational, chase_relational_sequential):
            try:
                result = chase(KEYED_TGDS, KEYED_EGDS, instance, alphabet={"a", "c"})
            except SchemaError as error:
                outcomes.append(("raised", str(error)))
            else:
                outcomes.append(("chased", observable(result)))
        assert outcomes[0] == outcomes[1]
        # R's head emits a b edge: only a run with R facts fires it.
        assert outcomes[0][0] == ("raised" if "R" in facts else "chased")


# --------------------------------------------------------------------- #
# Generated workload tenants
# --------------------------------------------------------------------- #


@pytest.mark.parametrize(
    "family,nodes,seed",
    [
        ("medlit", 200, 1),
        ("medlit", 400, 3),
        ("medlit", 800, 5),
        ("social", 150, 1),
        ("social", 300, 2),
        ("social", 600, 4),
    ],
)
def test_scale_tenants_match_oracle(family, nodes, seed):
    setting = scale_setting(family)
    instance = generate_instance(GeneratorConfig(family=family, nodes=nodes, seed=seed))
    chased = assert_agrees(setting.st_tgds, list(setting.egds()), instance, setting.alphabet)
    assert chased.stats.null_merges > 0
    # Merged results are loaded once: the journal is the final edge list.
    assert chased.graph.version == chased.graph.edge_count()


# --------------------------------------------------------------------- #
# The shared closure, called directly
# --------------------------------------------------------------------- #

# Id i is the node CLOSURE_NODES[i]: 1, 1.0 and True are one constant.
CLOSURE_NODES = ["k0", "k1", 1, 1.0, True, 2] + [Null(f"N{i}") for i in range(1, 9)]
_node_ids = st.integers(0, len(CLOSURE_NODES) - 1)
_id_edges = st.lists(st.tuples(_node_ids, st.sampled_from("abc"), _node_ids), max_size=14)
_by_id = list(range(len(CLOSURE_NODES)))


class TestSharedClosure:
    """``_close`` partitions as the sequential fixpoint merges, and roots
    each class where its rank says: the bulk chase's label order, or any
    other (here a drawn permutation, as the live chase's birth order)."""

    @settings(max_examples=300, deadline=None)
    @given(_id_edges, st.permutations(_by_id))
    # null keys cascade: a merges N1 and N2, so b merges N3 and N4
    @example([(0, "a", 6), (0, "a", 7), (6, "b", 8), (7, "b", 9)], _by_id)
    @example([(0, "a", 2), (0, "a", 5)], _by_id)  # 1 and 2 clash
    @example([(0, "a", 2), (0, "a", 3), (0, "a", 4)], _by_id)  # all equal
    def test_matches_the_sequential_fixpoint(self, edges, order):
        nodes = CLOSURE_NODES
        failed, merges = sequential_merges(
            [(nodes[s], label, nodes[t]) for s, label, t in edges], KEYED_EGDS
        )
        kept = dict(merges)

        def final(node):
            while node in kept:
                node = kept[node]
            return node

        same = [nodes.index(node) for node in nodes]  # the first equal node
        constant = [not is_null(node) for node in nodes]
        sides = _functional_sides(KEYED_EGDS)
        ranks = {"label": lambda ident: nodes[ident].label, "drawn": order.__getitem__}
        for name, rank in ranks.items():
            parent = list(range(len(nodes)))
            members: dict[int, list[int]] = {}
            links = _functional_links(
                [(same[s], label, same[t]) for s, label, t in edges], sides
            )
            anchors = [{} for entries in sides.values() for _ in entries]
            moved, merged = _close(links, parent, members, anchors, constant, rank)
            assert (moved is None) == failed
            if failed:
                continue
            assert merged == len(merges)
            for ident in {same[i] for s, _, t in edges for i in (s, t)}:
                root = _find(parent, ident)
                assert final(nodes[ident]) == final(nodes[root])
                if name == "label":  # the node the fixpoint keeps
                    assert nodes[root] == final(nodes[root])
            for old, new in merges:
                assert _find(parent, same[nodes.index(old)]) == _find(
                    parent, same[nodes.index(new)]
                )
            for root, group in members.items():
                constants = [ident for ident in group if constant[ident]]
                assert root == (constants[0] if constants else min(group, key=rank))
