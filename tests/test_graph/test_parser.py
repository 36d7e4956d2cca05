"""Unit tests for the NRE concrete-syntax parser."""

import pytest

from repro.errors import ParseError
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
    label,
    nest,
    star,
    union,
)
from repro.graph.parser import parse_nre


class TestAtoms:
    def test_label(self):
        assert parse_nre("a") == Label("a")

    def test_backward(self):
        assert parse_nre("a-") == Backward("a")

    def test_epsilon_parens(self):
        assert parse_nre("()") == Epsilon()

    def test_epsilon_keyword(self):
        assert parse_nre("eps") == Epsilon()

    def test_multichar_label(self):
        assert parse_nre("sameAs") == Label("sameAs")


class TestCombinators:
    def test_union(self):
        assert parse_nre("a + b") == union(label("a"), label("b"))

    def test_concat_dot(self):
        assert parse_nre("a . b") == concat(label("a"), label("b"))

    def test_concat_unicode_dot(self):
        assert parse_nre("a · b") == concat(label("a"), label("b"))

    def test_star_postfix(self):
        assert parse_nre("a*") == star(label("a"))

    def test_star_on_group(self):
        assert parse_nre("(a + b)*") == star(union(label("a"), label("b")))

    def test_star_on_backward(self):
        assert parse_nre("(f-)*") == star(backward("f"))

    def test_nest_standalone(self):
        assert parse_nre("[h]") == nest(label("h"))

    def test_nest_postfix_is_concatenation(self):
        assert parse_nre("a[h]") == concat(label("a"), nest(label("h")))

    def test_double_star_collapses(self):
        assert parse_nre("a**") == star(label("a"))


class TestPrecedence:
    def test_concat_binds_tighter_than_union(self):
        assert parse_nre("a . b + c") == union(
            concat(label("a"), label("b")), label("c")
        )

    def test_star_binds_tighter_than_concat(self):
        assert parse_nre("a . b*") == concat(label("a"), star(label("b")))

    def test_parentheses_override(self):
        assert parse_nre("a . (b + c)") == concat(
            label("a"), union(label("b"), label("c"))
        )


class TestPaperExpressions:
    def test_example22_head(self):
        expr = parse_nre("f . f*")
        assert expr == concat(label("f"), star(label("f")))

    def test_example22_query(self):
        expr = parse_nre("f . f*[h] . f- . (f-)*")
        expected = concat(
            label("f"),
            star(label("f")),
            nest(label("h")),
            backward("f"),
            star(backward("f")),
        )
        assert expr == expected

    def test_example52_head(self):
        expr = parse_nre("a . (b* + c*) . a")
        assert expr == concat(
            label("a"), union(star(label("b")), star(label("c"))), label("a")
        )

    def test_sore_word(self):
        expr = parse_nre("t1 . f1 . a")
        assert expr == concat(label("t1"), label("f1"), label("a"))


class TestErrors:
    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_nre("")

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse_nre("(a + b")

    def test_unbalanced_bracket(self):
        with pytest.raises(ParseError):
            parse_nre("[h")

    def test_trailing_tokens(self):
        with pytest.raises(ParseError):
            parse_nre("a b")

    def test_dangling_operator(self):
        with pytest.raises(ParseError):
            parse_nre("a +")

    def test_unexpected_character(self):
        with pytest.raises(ParseError):
            parse_nre("a # b")


class TestRoundTrip:
    @pytest.mark.parametrize(
        "text",
        [
            "a",
            "a-",
            "a + b",
            "a . b . c",
            "a*",
            "(a + b)*",
            "[a . b]",
            "f . f*[h] . f- . (f-)*",
            "a . (b* + c*) . a",
        ],
    )
    def test_str_reparses_to_same_ast(self, text):
        expr = parse_nre(text)
        assert parse_nre(str(expr)) == expr

    def test_random_asts_round_trip(self):
        """parse(str(e)) == e for smart-constructor ASTs — the stability
        that makes the parse/compile caches hit regardless of whether an
        expression arrived as text or was printed and re-read."""
        import random

        from repro.scenarios.generators import random_nre

        for seed in range(300):
            expr = random_nre(depth=4, rng=random.Random(seed))
            assert parse_nre(str(expr)) == expr, str(expr)

    def test_parse_nre_is_memoised(self):
        assert parse_nre("a . b*") is parse_nre("a . b*")

    def test_engine_cache_hits_through_round_trip(self):
        from repro.engine.query import QueryEngine
        from repro.graph.database import GraphDatabase

        expr = parse_nre("f . f*[h] . f- . (f-)*")
        graph = GraphDatabase(edges=[("a", "f", "b"), ("b", "h", "c")])
        engine = QueryEngine()
        assert engine.pairs(graph, parse_nre(str(expr))) is engine.pairs(graph, expr)
        assert engine.stats.relations_evaluated == 1
