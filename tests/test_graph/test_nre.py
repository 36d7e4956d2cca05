"""Unit tests for the NRE AST and smart constructors."""

from repro.graph.nre import (
    Backward,
    Concat,
    Epsilon,
    Label,
    Nest,
    Star,
    Union,
    backward,
    concat,
    epsilon,
    label,
    nest,
    plus,
    star,
    union,
    word,
)


class TestConstructors:
    def test_label(self):
        assert label("a") == Label("a")

    def test_backward(self):
        assert backward("a") == Backward("a")

    def test_epsilon_is_shared(self):
        assert epsilon() is epsilon()

    def test_union_two(self):
        assert union(label("a"), label("b")) == Union(Label("a"), Label("b"))

    def test_union_deduplicates(self):
        assert union(label("a"), label("a")) == Label("a")

    def test_union_single(self):
        assert union(label("a")) == Label("a")

    def test_concat_two(self):
        assert concat(label("a"), label("b")) == Concat(Label("a"), Label("b"))

    def test_concat_elides_epsilon(self):
        assert concat(epsilon(), label("a")) == Label("a")
        assert concat(label("a"), epsilon()) == Label("a")

    def test_concat_empty_is_epsilon(self):
        assert concat() == Epsilon()

    def test_star_idempotent(self):
        assert star(star(label("a"))) == star(label("a"))

    def test_star_of_epsilon_is_epsilon(self):
        assert star(epsilon()) == Epsilon()

    def test_plus_is_concat_with_star(self):
        assert plus(label("f")) == Concat(Label("f"), Star(Label("f")))

    def test_nest(self):
        assert nest(label("h")) == Nest(Label("h"))

    def test_word(self):
        assert word("a", "b", "c") == concat(label("a"), label("b"), label("c"))


class TestOperatorSugar:
    def test_add_is_union(self):
        assert label("a") + label("b") == union(label("a"), label("b"))

    def test_mul_is_concat(self):
        assert label("a") * label("b") == concat(label("a"), label("b"))


class TestWalkAndSize:
    def test_atom_size(self):
        assert label("a").size() == 1

    def test_nested_size(self):
        expr = concat(label("a"), star(union(label("b"), label("c"))))
        # concat, a, star, union, b, c
        assert expr.size() == 6

    def test_walk_preorder(self):
        expr = union(label("a"), label("b"))
        kinds = [type(node).__name__ for node in expr.walk()]
        assert kinds == ["Union", "Label", "Label"]

    def test_children_of_atoms_empty(self):
        assert label("a").children() == ()
        assert epsilon().children() == ()


class TestDisplay:
    def test_label_str(self):
        assert str(label("f")) == "f"

    def test_backward_str(self):
        assert str(backward("f")) == "f-"

    def test_star_parenthesises_compounds(self):
        assert str(star(concat(label("a"), label("b")))) == "(a . b)*"

    def test_star_of_atom_unparenthesised(self):
        assert str(star(label("a"))) == "a*"

    def test_nest_str(self):
        assert str(nest(label("h"))) == "[h]"

    def test_union_str(self):
        assert str(union(label("a"), label("b"))) == "(a + b)"


class TestValueSemantics:
    def test_hashable_and_comparable(self):
        expressions = {label("a"), label("a"), star(label("a"))}
        assert len(expressions) == 2

    def test_structural_equality(self):
        one = concat(label("a"), star(label("b")))
        two = concat(label("a"), star(label("b")))
        assert one == two
        assert hash(one) == hash(two)

    def test_compound_hash_is_memoised_and_not_pickled(self):
        """The memo is salted per process, so a pickled NRE carries none."""
        import pickle

        from repro.engine.query import QueryEngine
        from repro.graph.database import GraphDatabase
        from repro.graph.parser import parse_nre

        expr = parse_nre("f . f*[h] . (f- + h)*")
        kinds = (Union, Concat, Star, Nest)
        compound = [n for n in expr.walk() if isinstance(n, kinds)]
        assert {type(n) for n in compound} == set(kinds)
        first = hash(expr)
        assert all("_hash" in n.__dict__ for n in compound)
        clone = pickle.loads(pickle.dumps(expr))
        assert clone == expr and clone is not expr
        assert not any("_hash" in n.__dict__ for n in clone.walk())
        assert hash(clone) == first
        graph = GraphDatabase(edges=[("u", "f", "v"), ("v", "h", "w")])
        engine = QueryEngine()
        assert engine.pairs(graph, expr) == engine.pairs(graph, clone)
        assert engine.stats.relations_evaluated == 1
