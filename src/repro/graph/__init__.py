"""Graph substrate: edge-labeled graphs and nested regular expressions.

This package implements the *target* side of the exchange setting
(paper, Section 2, "Target schemas and queries"):

* :class:`~repro.graph.database.GraphDatabase` — a directed edge-labeled
  graph ``G = (V, E)`` with ``E ⊆ V × Σ × V``, holding its own hash-index
  storage; ``GraphDatabase.freeze()`` returns its read-only subclass
  :class:`~repro.graph.database.FrozenGraphDatabase`;
* :mod:`repro.graph.nre` — the NRE abstract syntax
  ``r := ε | a | a⁻ | r + r | r · r | r* | [r]``;
* :func:`~repro.graph.parser.parse_nre` — concrete syntax, e.g.
  ``"f . f*[h] . f- . (f-)*"``;
* :mod:`repro.graph.eval` — relation-at-a-time evaluation of
  ``⟦r⟧_G ⊆ V × V`` over successor maps (whole relations, and single
  sources pushed into the leftmost operand);
* :mod:`repro.graph.cnre` — conjunctions of NREs (CNRE) with variables, the
  paper's target query language, plus homomorphism-based evaluation;
* :mod:`repro.graph.witness` — extraction of concrete witness trees proving
  ``(u, v) ∈ ⟦r⟧``, used to instantiate graph patterns into solutions;
* :mod:`repro.graph.classes` — structural classifiers (``SORE(·)``,
  star-freeness, nesting depth) used to state the paper's restrictions;
* :mod:`repro.graph.snapshot` — version-stamped save/load of graphs as
  edge lists (``save_snapshot`` / ``load_snapshot``) plus the
  content-keyed ``SnapshotStore`` the service uses for warm-tenant
  restarts.
"""

from repro.graph.database import Edge, Fingerprint, FrozenGraphDatabase, GraphDatabase
from repro.graph.snapshot import (
    SnapshotStore,
    load_snapshot,
    save_snapshot,
)
from repro.graph.nre import (
    NRE,
    Epsilon,
    Label,
    Backward,
    Union,
    Concat,
    Star,
    Nest,
    epsilon,
    label,
    backward,
    union,
    concat,
    star,
    nest,
)
from repro.graph.parser import parse_nre
from repro.graph.eval import evaluate_nre, nre_pairs, nre_reachable, nre_holds
from repro.graph.cnre import CNREAtom, CNREQuery, evaluate_cnre, cnre_homomorphisms
from repro.graph.witness import witness_tree, materialize_witness, WitnessTree
from repro.graph.classes import (
    is_single_symbol,
    is_union_of_symbols,
    is_sore_concat,
    is_star_free,
    nesting_depth,
    alphabet_of,
)
from repro.graph.language import (
    matches_word,
    is_empty_language,
    shortest_word_length,
    language_is_finite,
    enumerate_words,
)

__all__ = [
    "GraphDatabase",
    "Edge",
    "FrozenGraphDatabase",
    "Fingerprint",
    "SnapshotStore",
    "save_snapshot",
    "load_snapshot",
    "NRE",
    "Epsilon",
    "Label",
    "Backward",
    "Union",
    "Concat",
    "Star",
    "Nest",
    "epsilon",
    "label",
    "backward",
    "union",
    "concat",
    "star",
    "nest",
    "parse_nre",
    "evaluate_nre",
    "nre_pairs",
    "nre_reachable",
    "nre_holds",
    "CNREAtom",
    "CNREQuery",
    "evaluate_cnre",
    "cnre_homomorphisms",
    "witness_tree",
    "materialize_witness",
    "WitnessTree",
    "is_single_symbol",
    "is_union_of_symbols",
    "is_sore_concat",
    "is_star_free",
    "nesting_depth",
    "alphabet_of",
    "matches_word",
    "is_empty_language",
    "shortest_word_length",
    "language_is_finite",
    "enumerate_words",
]
