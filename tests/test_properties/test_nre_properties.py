"""Property-based tests for the NRE engines.

Two families of properties:

* **differential**: the successor-map algebra and the set-algebraic
  oracle implement the same semantics, on random graphs × random NREs;
* **algebraic laws** of the NRE algebra (union/concat monotonicity,
  distributivity of composition over union, star unfolding, nest
  characterisation), each checked semantically on random graphs;
* **changed rows**: after random edge and node changes, every source
  whose row differs is in :func:`~repro.graph.eval.touched_sources`
  (exactly those for ``[a]`` and ``[a-]``), and the pre-image walk
  behind it is exactly the sources whose row meets its targets.
"""

import random

from hypothesis import given, settings, strategies as st

from oracles.reference_eval import evaluate_nre as reference_pairs
from repro.graph.database import GraphDatabase
from repro.graph.eval import _preimage, evaluate_nre, touched_sources
from repro.graph.nre import backward, concat, epsilon, label, nest, star, union
from repro.scenarios.generators import random_graph, random_nre

ALPHABET = ("a", "b", "c")


@st.composite
def graphs(draw, max_nodes=6, max_edges=12):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    nodes = draw(st.integers(min_value=1, max_value=max_nodes))
    edges = draw(st.integers(min_value=0, max_value=max_edges))
    return random_graph(nodes, edges, alphabet=ALPHABET, rng=random.Random(seed))


@st.composite
def nres(draw, max_depth=3, alphabet=ALPHABET):
    """Random NREs over ``alphabet``: every constructor can appear."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    depth = draw(st.integers(min_value=0, max_value=max_depth))
    return random_nre(depth=depth, alphabet=alphabet, rng=random.Random(seed))


def rows(pairs) -> dict:
    """Group a pair set by source."""
    grouped: dict = {}
    for source, target in pairs:
        grouped.setdefault(source, set()).add(target)
    return grouped


class TestDifferential:
    @settings(max_examples=150, deadline=None)
    @given(graphs(), nres())
    def test_algebra_agrees_with_oracle(self, graph, expr):
        assert evaluate_nre(graph, expr) == reference_pairs(graph, expr)


class TestAlgebraicLaws:
    @settings(max_examples=60, deadline=None)
    @given(graphs(), nres(max_depth=2), nres(max_depth=2))
    def test_union_is_set_union(self, graph, r1, r2):
        assert evaluate_nre(graph, union(r1, r2)) == evaluate_nre(
            graph, r1
        ) | evaluate_nre(graph, r2)

    @settings(max_examples=60, deadline=None)
    @given(graphs(), nres(max_depth=2))
    def test_epsilon_identity_of_concat(self, graph, expr):
        assert evaluate_nre(graph, concat(epsilon(), expr)) == evaluate_nre(graph, expr)

    @settings(max_examples=60, deadline=None)
    @given(graphs(), nres(max_depth=2), nres(max_depth=2), nres(max_depth=2))
    def test_concat_distributes_over_union(self, graph, r, s, t):
        left = evaluate_nre(graph, concat(r, union(s, t)))
        right = evaluate_nre(graph, union(concat(r, s), concat(r, t)))
        assert left == right

    @settings(max_examples=60, deadline=None)
    @given(graphs(), nres(max_depth=2))
    def test_star_unfolding(self, graph, expr):
        """r* = ε + r·r* (as relations)."""
        star_rel = evaluate_nre(graph, star(expr))
        unfolded = evaluate_nre(graph, union(epsilon(), concat(expr, star(expr))))
        assert star_rel == unfolded

    @settings(max_examples=60, deadline=None)
    @given(graphs(), nres(max_depth=2))
    def test_star_contains_epsilon_and_r(self, graph, expr):
        star_rel = evaluate_nre(graph, star(expr))
        assert evaluate_nre(graph, epsilon()) <= star_rel
        assert evaluate_nre(graph, expr) <= star_rel

    @settings(max_examples=60, deadline=None)
    @given(graphs(), nres(max_depth=2))
    def test_nest_characterisation(self, graph, expr):
        """⟦[r]⟧ = {(u, u) | ∃v. (u, v) ∈ ⟦r⟧}."""
        nested = evaluate_nre(graph, nest(expr))
        sources = {u for u, _ in evaluate_nre(graph, expr)}
        assert nested == {(u, u) for u in sources}

    @settings(max_examples=60, deadline=None)
    @given(graphs(), nres(max_depth=2))
    def test_idempotent_union(self, graph, expr):
        assert evaluate_nre(graph, union(expr, expr)) == evaluate_nre(graph, expr)


class TestMonotonicity:
    """The property the certain-answer engine relies on (see core.certain)."""

    @settings(max_examples=80, deadline=None)
    @given(graphs(max_nodes=5, max_edges=8), nres(), st.integers(0, 10_000))
    def test_answers_grow_under_extension(self, graph, expr, seed):
        rng = random.Random(seed)
        extended = graph.copy()
        node_pool = sorted(graph.nodes(), key=repr) + ["fresh1", "fresh2"]
        for _ in range(3):
            extended.add_edge(
                rng.choice(node_pool), rng.choice(ALPHABET), rng.choice(node_pool)
            )
        before = evaluate_nre(graph, expr)
        after = evaluate_nre(extended, expr)
        assert before <= after


class TestChangedRows:
    """The changed-row sets the incremental answer layer patches with."""

    @staticmethod
    def change(graph: GraphDatabase, seed: int):
        """Flip random edges; return the graph after, and exactly what changed."""
        rng = random.Random(seed)
        changed = graph.copy()
        node_pool = sorted(graph.nodes(), key=repr) + ["fresh1", "fresh2"]
        for _ in range(rng.randint(1, 4)):
            edge = (rng.choice(node_pool), rng.choice(ALPHABET), rng.choice(node_pool))
            if changed.has_edge(*edge):
                changed.remove_edge(*edge)
            else:
                changed.add_edge(*edge)
        for node in node_pool:  # drop the nodes the removals left bare
            bare = not changed.edges_from(node) | changed.edges_to(node)
            if node in changed and bare:
                changed.discard_node(node)
        edges = {(e.source, e.label, e.target) for e in graph.edges() ^ changed.edges()}
        nodes = set(graph.nodes()) ^ set(changed.nodes())
        return changed, edges, nodes

    @staticmethod
    def differ(graph: GraphDatabase, changed: GraphDatabase, expr) -> set:
        """The sources whose ``expr`` row differs between the two graphs."""
        before, after = rows(reference_pairs(graph, expr)), rows(
            reference_pairs(changed, expr)
        )
        return {
            u for u in before.keys() | after.keys() if before.get(u) != after.get(u)
        }

    @settings(max_examples=150, deadline=None)
    @given(graphs(max_nodes=6, max_edges=10), nres(), st.integers(0, 10_000))
    def test_touched_sources_cover_every_changed_row(self, graph, expr, seed):
        changed, edges, nodes = self.change(graph, seed)
        differ = self.differ(graph, changed, expr)
        assert differ <= touched_sources(changed, expr, edges, nodes)

    @settings(max_examples=150, deadline=None)
    @given(
        graphs(max_nodes=6, max_edges=10),
        st.sampled_from(ALPHABET),
        st.sampled_from([label, backward]),
        st.integers(0, 10_000),
    )
    def test_touched_sources_of_a_label_nest_are_exact(self, graph, name, step, seed):
        expr = nest(step(name))
        changed, edges, nodes = self.change(graph, seed)
        differ = self.differ(graph, changed, expr)
        assert touched_sources(changed, expr, edges, nodes) == differ

    @settings(max_examples=150, deadline=None)
    @given(graphs(), nres(), st.integers(0, 10_000))
    def test_preimage_is_the_sources_meeting_the_targets(self, graph, expr, seed):
        rng = random.Random(seed)
        pool = sorted(graph.nodes(), key=repr)
        targets = set(rng.sample(pool, rng.randint(0, len(pool))))
        expected = {
            u for u, vs in rows(reference_pairs(graph, expr)).items() if vs & targets
        }
        assert _preimage(graph, expr, targets) == expected
