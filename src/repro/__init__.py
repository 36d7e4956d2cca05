"""repro — relational-to-graph data exchange with target constraints.

A complete implementation of the system described in

    Iovka Boneva, Angela Bonifati, Radu Ciucanu.
    *Graph Data Exchange with Target Constraints.*
    GraphQ @ EDBT/ICDT 2015, CEUR-WS Vol-1330, pp. 171–176.

The public API re-exported here covers the common workflow:

1. model the source (:class:`RelationalSchema`, :class:`RelationalInstance`)
   and the mappings (:func:`parse_st_tgd`, :func:`parse_egd`,
   :func:`parse_sameas`, :func:`parse_target_tgd`);
2. bundle them into a :class:`DataExchangeSetting`;
3. chase (:func:`chase_pattern`, :func:`chase_with_egds`,
   :func:`solve_with_sameas`), decide existence (:func:`decide_existence`),
   and answer queries (:func:`certain_answers_nre`, :func:`evaluate_nre`).

All chase variants share the indexed delta engine of :mod:`repro.engine`
(:class:`TriggerMatcher`): trigger matching is answered from hash indexes
maintained incrementally by :class:`GraphDatabase` and
:class:`RelationalInstance`, and fixpoint rounds only re-match the part of
the target changed since the previous round.

>>> import repro
>>> schema = repro.RelationalSchema()
>>> _ = schema.declare("Flight", 3)
>>> _ = schema.declare("Hotel", 2)
>>> instance = repro.RelationalInstance(schema, {
...     "Flight": [("01", "c1", "c2")], "Hotel": [("01", "hx")]})
>>> tgd = repro.parse_st_tgd(
...     "Flight(x1, x2, x3), Hotel(x1, x4) -> (x2, f, y), (y, h, x4)")
>>> result = repro.chase_pattern([tgd], instance, alphabet={"f", "h"})
>>> result.expect_pattern().edge_count()
2

See ``examples/quickstart.py`` for the end-to-end tour,
``README.md`` for the project overview, and ``docs/ARCHITECTURE.md`` for
the package-by-package map onto the paper.
"""

from repro.errors import (
    ReproError,
    SchemaError,
    ParseError,
    EvaluationError,
    ChaseFailure,
    BoundExceeded,
    NotSupportedError,
)
from repro.relational import (
    RelationSymbol,
    RelationalSchema,
    RelationalInstance,
    ConjunctiveQuery,
    evaluate_cq,
    parse_cq,
)
from repro.graph import (
    GraphDatabase,
    NRE,
    parse_nre,
    evaluate_nre,
    CNREQuery,
    CNREAtom,
    evaluate_cnre,
)
from repro.patterns import (
    GraphPattern,
    Null,
    find_homomorphism,
    has_homomorphism,
    in_rep,
    canonical_instantiation,
)
from repro.mappings import (
    SourceToTargetTgd,
    TargetEgd,
    TargetTgd,
    SameAsConstraint,
    SAME_AS_LABEL,
    parse_st_tgd,
    parse_egd,
    parse_target_tgd,
    parse_sameas,
)
from repro.chase import (
    ChaseResult,
    chase_pattern,
    chase_relational,
    chase_with_egds,
    solve_with_sameas,
    chase_target_tgds,
)
from repro.chase.result import ChaseStats
from repro.engine import (
    EvalStats,
    QueryEngine,
    TriggerMatcher,
    default_engine,
    is_simple_query,
)
from repro.core import (
    DataExchangeSetting,
    is_solution,
    decide_existence,
    ExistenceStatus,
    certain_answers_nre,
    is_certain_answer,
    UniversalRepresentative,
    universal_representative,
)

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "SchemaError",
    "ParseError",
    "EvaluationError",
    "ChaseFailure",
    "BoundExceeded",
    "NotSupportedError",
    "RelationSymbol",
    "RelationalSchema",
    "RelationalInstance",
    "ConjunctiveQuery",
    "evaluate_cq",
    "parse_cq",
    "GraphDatabase",
    "NRE",
    "parse_nre",
    "evaluate_nre",
    "CNREQuery",
    "CNREAtom",
    "evaluate_cnre",
    "GraphPattern",
    "Null",
    "find_homomorphism",
    "has_homomorphism",
    "in_rep",
    "canonical_instantiation",
    "SourceToTargetTgd",
    "TargetEgd",
    "TargetTgd",
    "SameAsConstraint",
    "SAME_AS_LABEL",
    "parse_st_tgd",
    "parse_egd",
    "parse_target_tgd",
    "parse_sameas",
    "ChaseResult",
    "ChaseStats",
    "TriggerMatcher",
    "is_simple_query",
    "QueryEngine",
    "EvalStats",
    "default_engine",
    "chase_pattern",
    "chase_relational",
    "chase_with_egds",
    "solve_with_sameas",
    "chase_target_tgds",
    "DataExchangeSetting",
    "is_solution",
    "decide_existence",
    "ExistenceStatus",
    "certain_answers_nre",
    "is_certain_answer",
    "UniversalRepresentative",
    "universal_representative",
    "__version__",
]
