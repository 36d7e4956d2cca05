"""Unit tests for relational instances."""

import pytest

from repro.errors import SchemaError
from repro.relational.instance import RelationalInstance
from repro.relational.schema import RelationSymbol, RelationalSchema


@pytest.fixture
def schema():
    s = RelationalSchema()
    s.declare("R", 1)
    s.declare("E", 2)
    return s


class TestConstruction:
    def test_empty(self, schema):
        instance = RelationalInstance(schema)
        assert instance.size() == 0

    def test_from_facts_mapping(self, schema):
        instance = RelationalInstance(schema, {"R": [("a",)], "E": [("a", "b")]})
        assert instance.size() == 2

    def test_facts_checked_against_schema(self, schema):
        with pytest.raises(SchemaError):
            RelationalInstance(schema, {"R": [("a", "b")]})


class TestAdd:
    def test_add_and_contains(self, schema):
        instance = RelationalInstance(schema)
        instance.add("E", ("a", "b"))
        assert instance.contains("E", ("a", "b"))
        assert not instance.contains("E", ("b", "a"))

    def test_add_by_symbol(self, schema):
        instance = RelationalInstance(schema)
        instance.add(schema["R"], ("a",))
        assert instance.contains("R", ("a",))

    def test_add_foreign_symbol_rejected(self, schema):
        instance = RelationalInstance(schema)
        with pytest.raises(SchemaError):
            instance.add(RelationSymbol("X", 1), ("a",))

    def test_arity_mismatch_rejected(self, schema):
        instance = RelationalInstance(schema)
        with pytest.raises(SchemaError, match="arity"):
            instance.add("E", ("a",))

    def test_unknown_relation_rejected(self, schema):
        instance = RelationalInstance(schema)
        with pytest.raises(SchemaError):
            instance.add("Nope", ("a",))

    def test_duplicates_collapse(self, schema):
        instance = RelationalInstance(schema)
        instance.add("R", ("a",))
        instance.add("R", ("a",))
        assert instance.size() == 1

    def test_add_all(self, schema):
        instance = RelationalInstance(schema)
        instance.add_all("E", [("a", "b"), ("b", "c")])
        assert len(instance.tuples("E")) == 2


class TestInspection:
    def test_tuples_returns_frozenset(self, schema):
        instance = RelationalInstance(schema, {"R": [("a",)]})
        assert isinstance(instance.tuples("R"), frozenset)

    def test_active_domain(self, schema):
        instance = RelationalInstance(schema, {"E": [("a", "b")], "R": [("c",)]})
        assert instance.active_domain() == {"a", "b", "c"}

    def test_active_domain_is_memoised(self, schema):
        instance = RelationalInstance(schema, {"E": [("a", "b")]})
        assert instance.active_domain() is instance.active_domain()

    def test_active_domain_memo_dropped_by_add(self, schema):
        instance = RelationalInstance(schema, {"E": [("a", "b")]})
        assert instance.active_domain() == {"a", "b"}
        instance.add("R", ("c",))
        assert instance.active_domain() == {"a", "b", "c"}

    def test_active_domain_memo_dropped_by_add_all(self, schema):
        instance = RelationalInstance(schema, {"E": [("a", "b")]})
        assert instance.active_domain() == {"a", "b"}
        instance.add_all("E", [("c", "d"), ("d", "e")])
        assert instance.active_domain() == {"a", "b", "c", "d", "e"}

    def test_active_domain_memo_dropped_by_remove(self, schema):
        instance = RelationalInstance(schema, {"E": [("a", "b")], "R": [("c",)]})
        assert instance.active_domain() == {"a", "b", "c"}
        assert instance.remove("R", ("c",))
        assert instance.active_domain() == {"a", "b"}

    def test_active_domain_memo_not_shared_by_copy(self, schema):
        instance = RelationalInstance(schema, {"R": [("a",)]})
        assert instance.active_domain() == {"a"}
        clone = instance.copy()
        clone.add("R", ("b",))
        assert clone.active_domain() == {"a", "b"}
        assert instance.active_domain() == {"a"}
        instance.remove("R", ("a",))
        assert instance.active_domain() == frozenset()
        assert clone.active_domain() == {"a", "b"}

    def test_iter_yields_facts(self, schema):
        instance = RelationalInstance(schema, {"E": [("a", "b")]})
        assert list(instance) == [("E", ("a", "b"))]

    def test_len(self, schema):
        instance = RelationalInstance(schema, {"E": [("a", "b"), ("b", "c")]})
        assert len(instance) == 2

    def test_repr_shows_facts(self, schema):
        instance = RelationalInstance(schema, {"R": [("a",)]})
        assert "R" in repr(instance)


class TestCopyAndEquality:
    def test_copy_is_independent(self, schema):
        instance = RelationalInstance(schema, {"R": [("a",)]})
        clone = instance.copy()
        clone.add("R", ("b",))
        assert instance.size() == 1
        assert clone.size() == 2

    def test_equality(self, schema):
        one = RelationalInstance(schema, {"R": [("a",)]})
        two = RelationalInstance(schema, {"R": [("a",)]})
        assert one == two

    def test_inequality_on_facts(self, schema):
        one = RelationalInstance(schema, {"R": [("a",)]})
        two = RelationalInstance(schema, {"R": [("b",)]})
        assert one != two
