"""Differential tests: the tuple chase against the edge-at-a-time oracle.

:func:`repro.chase.relational_chase.chase_relational` fires s-t triggers
into edge tuples, closes functional egds with a union-find and loads the
graph once; :func:`oracles.relational_chase.chase_relational_sequential`
writes every edge through ``add_edge`` and merges one violation at a
time.  They must agree on everything a caller can observe: nodes, edges,
null labels, every ``ChaseStats`` counter, failure and its witness,
fingerprint and the destructive flag.  Cases:

* cascading functional egds whose keys are nulls (a key merge unites two
  member groups), with constants that make some runs fail;
* non-functional chain egds, alone and mixed with a functional one, on the
  Example 3.1 flights data;
* a head label outside the alphabet, which must raise the same error;
* generated ``medlit`` / ``social`` tenants.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles.relational_chase import chase_relational_sequential
from repro.chase.relational_chase import chase_relational
from repro.errors import SchemaError
from repro.mappings.parser import parse_egd, parse_st_tgd
from repro.patterns.pattern import is_null
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
        "destructive": graph.backend.destructive,
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
