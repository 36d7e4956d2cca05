"""Synthetic workload generators for the scaling benchmarks.

The paper ships no datasets, so the benchmark harness drives the engines
with three random families (parameters documented in EXPERIMENTS.md):

* :func:`random_flights_instance` — Flight/Hotel instances generalising the
  running example: ``flights`` flights over ``cities`` cities with up to
  ``max_stops`` hotel stops each, drawn from ``hotels`` hotels.  Shared
  hotels across flights are what make the hotel egd fire, so the
  ``hotels``/``flights`` ratio controls merge pressure;
* :func:`random_graph` — Erdős–Rényi-style edge-labeled graphs for the NRE
  engine benchmarks;
* :func:`random_nre` — random NRE ASTs of bounded depth for differential
  testing and throughput measurements.
"""

from __future__ import annotations

import random

from repro.graph.database import GraphDatabase
from repro.graph.nre import (
    NRE,
    backward,
    concat,
    epsilon,
    label,
    nest,
    star,
    union,
)
from repro.relational.instance import RelationalInstance
from repro.scenarios.flights import flights_schema
from repro.scenarios.scale import GeneratorConfig


def resolve_rng(
    rng: random.Random | None = None,
    seed: int | None = None,
    config: GeneratorConfig | None = None,
) -> random.Random:
    """One seeding convention for every random family in this module.

    Precedence mirrors the scalable families' :class:`GeneratorConfig`
    surface: an explicit ``rng`` wins, else ``seed`` builds a fresh
    ``random.Random(seed)``, else ``config`` contributes ``config.rng()``
    (positioned at the stream start), else the generator is unseeded.
    Passing ``rng`` together with ``seed``/``config`` is ambiguous and
    rejected.
    """
    if rng is not None:
        if seed is not None or config is not None:
            raise ValueError("pass either rng or seed/config, not both")
        return rng
    if seed is not None:
        if config is not None:
            raise ValueError("pass either seed or config, not both")
        return random.Random(seed)
    if config is not None:
        return config.rng()
    return random.Random()


def random_flights_instance(
    flights: int,
    *,
    cities: int,
    hotels: int,
    max_stops: int = 2,
    rng: random.Random | None = None,
    seed: int | None = None,
    config: GeneratorConfig | None = None,
) -> RelationalInstance:
    """Return a random Flight/Hotel instance over the Example 2.2 schema.

    Source and destination cities are distinct when ``cities ≥ 2``; each
    flight gets 1..``max_stops`` hotel stops.  Seeding follows the shared
    :func:`resolve_rng` convention (``rng`` / ``seed`` / a scalable-family
    :class:`~repro.scenarios.scale.GeneratorConfig`).
    """
    generator = resolve_rng(rng, seed, config)
    instance = RelationalInstance(flights_schema())
    city_names = [f"c{i}" for i in range(1, cities + 1)]
    hotel_names = [f"h{i}" for i in range(1, hotels + 1)]
    for index in range(1, flights + 1):
        flight_id = f"{index:02d}"
        src = generator.choice(city_names)
        if len(city_names) > 1:
            dest = generator.choice([c for c in city_names if c != src])
        else:
            dest = src
        instance.add("Flight", (flight_id, src, dest))
        for _ in range(generator.randint(1, max_stops)):
            instance.add("Hotel", (flight_id, generator.choice(hotel_names)))
    return instance


def random_graph(
    nodes: int,
    edges: int,
    alphabet: tuple[str, ...] = ("a", "b", "c"),
    rng: random.Random | None = None,
    seed: int | None = None,
) -> GraphDatabase:
    """Return a random edge-labeled graph with ``nodes`` nodes, ``edges`` edges."""
    generator = resolve_rng(rng, seed)
    node_names = [f"n{i}" for i in range(nodes)]
    graph = GraphDatabase(alphabet=set(alphabet), nodes=node_names)
    for _ in range(edges):
        graph.add_edge(
            generator.choice(node_names),
            generator.choice(alphabet),
            generator.choice(node_names),
        )
    return graph


def random_fragment_setting(
    rng: random.Random | None = None,
    max_labels: int = 4,
    max_tgds: int = 2,
    max_egds: int = 3,
    max_facts: int = 3,
    seed: int | None = None,
):
    """Return a random (setting, instance) pair in the Theorem 4.1 fragment.

    Heads are unions of 1–2 symbols over ≤ ``max_labels`` labels (with
    optional existentials), egd bodies are words of length 1–2; instances
    hold ≤ ``max_facts`` binary facts over three constants.  Settings from
    this family are exactly where the SAT-based existence decision is
    *complete*, so they drive the differential test pitting it against the
    enumeration back-end.
    """
    from repro.core.setting import DataExchangeSetting
    from repro.graph.cnre import CNREAtom, CNREQuery
    from repro.graph.nre import concat, label, union as nre_union
    from repro.mappings.egd import TargetEgd
    from repro.mappings.stt import SourceToTargetTgd
    from repro.relational.query import ConjunctiveQuery, RelationalAtom, Variable
    from repro.relational.schema import RelationalSchema

    generator = resolve_rng(rng, seed)
    labels = [f"l{i}" for i in range(1, generator.randint(2, max_labels) + 1)]
    constants = ["k1", "k2", "k3"]

    schema = RelationalSchema()
    schema.declare("R", 2)
    instance = RelationalInstance(schema)
    for _ in range(generator.randint(1, max_facts)):
        instance.add(
            "R", (generator.choice(constants), generator.choice(constants))
        )

    x, y, z = Variable("x"), Variable("y"), Variable("z")
    tgds = []
    for index in range(generator.randint(1, max_tgds)):
        atoms = [CNREAtom(x, _random_symbol_union(labels, generator), y)]
        if generator.random() < 0.5:
            target = z if generator.random() < 0.5 else x
            atoms.append(
                CNREAtom(y, _random_symbol_union(labels, generator), target)
            )
        tgds.append(
            SourceToTargetTgd(
                ConjunctiveQuery([RelationalAtom("R", (x, y))]),
                CNREQuery(atoms),
                name=f"tgd{index}",
            )
        )

    egds = []
    for index in range(generator.randint(0, max_egds)):
        word_labels = [
            generator.choice(labels)
            for _ in range(generator.randint(1, 2))
        ]
        body = CNREQuery(
            [CNREAtom(x, concat(*(label(l) for l in word_labels)), y)]
        )
        egds.append(TargetEgd(body, x, y, name=f"egd{index}"))

    setting = DataExchangeSetting(schema, labels, tgds, egds, name="random-fragment")
    return setting, instance


def _random_symbol_union(labels, generator: random.Random):
    from repro.graph.nre import label, union as nre_union

    chosen = generator.sample(labels, generator.randint(1, min(2, len(labels))))
    return nre_union(*(label(l) for l in chosen))


def random_nre(
    depth: int = 3,
    alphabet: tuple[str, ...] = ("a", "b", "c"),
    rng: random.Random | None = None,
    allow_nest: bool = True,
    seed: int | None = None,
) -> NRE:
    """Return a random NRE of at most ``depth`` combinator levels.

    Leaves are ε, forward, and backward labels; inner nodes pick among
    union, concatenation, star, and (optionally) nesting.  Used for the
    differential tests between the two NRE evaluators — every grammar
    production is reachable.
    """
    generator = resolve_rng(rng, seed)
    if depth <= 0:
        kind = generator.randrange(5)
        if kind == 0:
            return epsilon()
        name = generator.choice(alphabet)
        return label(name) if kind < 4 else backward(name)
    kind = generator.randrange(8 if allow_nest else 7)
    if kind in (0, 1):
        return union(
            random_nre(depth - 1, alphabet, generator, allow_nest),
            random_nre(depth - 1, alphabet, generator, allow_nest),
        )
    if kind in (2, 3):
        return concat(
            random_nre(depth - 1, alphabet, generator, allow_nest),
            random_nre(depth - 1, alphabet, generator, allow_nest),
        )
    if kind in (4, 5):
        return star(random_nre(depth - 1, alphabet, generator, allow_nest))
    if kind == 6:
        return random_nre(depth - 1, alphabet, generator, allow_nest)
    return nest(random_nre(depth - 1, alphabet, generator, allow_nest))
