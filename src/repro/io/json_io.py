"""JSON-friendly dictionaries for the library's value types.

Node ids are restricted to strings for serialization (the scenario and
benchmark code uses strings throughout); labeled nulls round-trip through a
``{"null": label}`` wrapper so they stay distinguishable from string
constants.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any

from repro.errors import ParseError
from repro.graph.database import GraphDatabase
from repro.graph.nre import (
    NRE,
    Backward,
    Concat,
    Epsilon,
    Label,
    Nest,
    Star,
    Union,
)
from repro.patterns.pattern import GraphPattern, Null, is_null
from repro.relational.instance import RelationalInstance
from repro.relational.schema import RelationalSchema


def _node_to_json(node: object) -> Any:
    if is_null(node):
        return {"null": node.label}  # type: ignore[union-attr]
    return node


def _node_from_json(value: Any) -> object:
    if isinstance(value, dict) and set(value) == {"null"}:
        return Null(value["null"])
    return value


def graph_to_dict(graph: GraphDatabase) -> dict:
    """Serialise a graph to a plain dictionary.

    Nodes and edges are sorted by ``repr`` of their JSON form.  Edges are
    read as the graph's plain triples, and each node is encoded and
    ``repr``-ed once: an edge's key is spelled as ``repr`` of its
    ``[source, label, target]`` list would spell it.
    """
    encoded = {}
    for node in graph.nodes():
        value = _node_to_json(node)
        encoded[node] = (repr(value), value)
    edges = []
    for source, lab, target in graph.live_triples():
        source_repr, source_value = encoded[source]
        target_repr, target_value = encoded[target]
        edges.append(
            (
                f"[{source_repr}, {lab!r}, {target_repr}]",
                [source_value, lab, target_value],
            )
        )
    by_key = itemgetter(0)
    return {
        "alphabet": sorted(graph.alphabet),
        "nodes": [value for _, value in sorted(encoded.values(), key=by_key)],
        "edges": [edge for _, edge in sorted(edges, key=by_key)],
    }


def graph_from_dict(data: dict) -> GraphDatabase:
    """Rebuild a graph from :func:`graph_to_dict` output."""
    graph = GraphDatabase(alphabet=data.get("alphabet"))
    for node in data.get("nodes", []):
        graph.add_node(_node_from_json(node))
    for source, lab, target in data.get("edges", []):
        graph.add_edge(_node_from_json(source), lab, _node_from_json(target))
    return graph


def nre_to_dict(expr: NRE) -> dict:
    """Serialise an NRE AST."""
    if isinstance(expr, Epsilon):
        return {"op": "epsilon"}
    if isinstance(expr, Label):
        return {"op": "label", "name": expr.name}
    if isinstance(expr, Backward):
        return {"op": "backward", "name": expr.name}
    if isinstance(expr, Union):
        return {"op": "union", "left": nre_to_dict(expr.left), "right": nre_to_dict(expr.right)}
    if isinstance(expr, Concat):
        return {"op": "concat", "left": nre_to_dict(expr.left), "right": nre_to_dict(expr.right)}
    if isinstance(expr, Star):
        return {"op": "star", "inner": nre_to_dict(expr.inner)}
    if isinstance(expr, Nest):
        return {"op": "nest", "inner": nre_to_dict(expr.inner)}
    raise ParseError(f"unknown NRE node {expr!r}")


def nre_from_dict(data: dict) -> NRE:
    """Rebuild an NRE from :func:`nre_to_dict` output."""
    op = data.get("op")
    if op == "epsilon":
        return Epsilon()
    if op == "label":
        return Label(data["name"])
    if op == "backward":
        return Backward(data["name"])
    if op == "union":
        return Union(nre_from_dict(data["left"]), nre_from_dict(data["right"]))
    if op == "concat":
        return Concat(nre_from_dict(data["left"]), nre_from_dict(data["right"]))
    if op == "star":
        return Star(nre_from_dict(data["inner"]))
    if op == "nest":
        return Nest(nre_from_dict(data["inner"]))
    raise ParseError(f"unknown NRE op {op!r}")


def pattern_to_dict(pattern: GraphPattern) -> dict:
    """Serialise a graph pattern (edges carry NRE dictionaries)."""
    return {
        "alphabet": sorted(pattern.alphabet or []),
        "nodes": sorted((_node_to_json(n) for n in pattern.nodes()), key=repr),
        "edges": sorted(
            (
                [
                    _node_to_json(e.source),
                    nre_to_dict(e.nre),
                    _node_to_json(e.target),
                ]
                for e in pattern.edges()
            ),
            key=repr,
        ),
    }


def pattern_from_dict(data: dict) -> GraphPattern:
    """Rebuild a pattern from :func:`pattern_to_dict` output."""
    pattern = GraphPattern(alphabet=data.get("alphabet"))
    for node in data.get("nodes", []):
        pattern.add_node(_node_from_json(node))
    for source, expr, target in data.get("edges", []):
        pattern.add_edge(
            _node_from_json(source), nre_from_dict(expr), _node_from_json(target)
        )
    return pattern


def instance_to_dict(instance: RelationalInstance) -> dict:
    """Serialise a relational instance with its schema."""
    return {
        "schema": [[symbol.name, symbol.arity] for symbol in instance.schema],
        "facts": {
            symbol.name: sorted([list(t) for t in instance.tuples(symbol)], key=repr)
            for symbol in instance.schema
        },
    }


def instance_from_dict(data: dict) -> RelationalInstance:
    """Rebuild an instance from :func:`instance_to_dict` output."""
    schema = RelationalSchema()
    for name, arity in data.get("schema", []):
        schema.declare(name, arity)
    instance = RelationalInstance(schema)
    for name, tuples in data.get("facts", {}).items():
        for values in tuples:
            instance.add(name, tuple(values))
    return instance


def document_to_dict(setting, instance: RelationalInstance) -> dict:
    """Serialise an *exchange document* — the wire unit of the CLI and the
    service: one setting plus one source instance."""
    from repro.io.dependencies import setting_to_dict  # import cycle guard

    return {
        "setting": setting_to_dict(setting),
        "instance": instance_to_dict(instance),
    }


def document_from_dict(data: dict):
    """Rebuild ``(setting, instance)`` from :func:`document_to_dict` output.

    Raises :class:`~repro.errors.ParseError` on a structurally invalid
    document — the service validates shape before scheduling work, but the
    deep parse happens here, in the worker.
    """
    from repro.io.dependencies import setting_from_dict  # import cycle guard

    if not isinstance(data, dict):
        raise ParseError("exchange document must be an object")
    missing = {"setting", "instance"} - set(data)
    if missing:
        raise ParseError(f"exchange document is missing {sorted(missing)}")
    return setting_from_dict(data["setting"]), instance_from_dict(data["instance"])
