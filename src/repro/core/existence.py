"""The existence-of-solutions problem.

The paper proves the problem NP-hard for egd settings (Theorem 4.1) and
trivial for sameAs settings (Section 4.2).  Accordingly,
:func:`decide_existence` runs a *strategy stack*, from cheap-and-sound to
expensive-and-bounded, and reports which strategy decided:

1. **no target constraints** — a solution always exists: chase the pattern
   and instantiate it canonically (Section 3.2);
2. **sameAs (± nothing else)** — always exists: the Section 4.2
   constructive algorithm (chase, instantiate, saturate);
3. **egds present** —
   a. for the Theorem 4.1 fragment (union-of-symbols heads, word egd
      bodies): the *loop-collapse refutation* (cheap, keeps Example 5.2's
      exact diagnosis), then the **complete SAT decision** on the
      persistent incremental solver (:mod:`repro.core.satpipeline`) —
      bounded-model search over the chased pattern's node set, complete by
      the induced-subgraph argument in :mod:`repro.solver.encode`.  The
      adapted chase is *skipped* here: the SAT decision subsumes its
      verdict, and the chase fixpoint was the single largest cost of the
      Theorem 4.1 scaling benchmark;
   b. otherwise the Section 5 *adapted chase*: failure proves
      non-existence (sound, incomplete — Example 5.2), followed by the
      loop-collapse refutation;
   c. the bounded candidate search (:mod:`repro.core.search`): a found
      candidate is a verified solution (sound EXISTS); exhausting the
      bounds without one yields UNKNOWN, never a non-existence claim;
4. **general target tgds** — bounded chase repair on the canonical
   instantiation; success is a verified solution, failure is UNKNOWN.

Every EXISTS result carries a *witness graph* that has passed
:func:`repro.core.solution.is_solution` — no strategy is trusted blindly.
The check runs set at a time on the graph's adjacency indexes (one probe
per distinct frontier row of each s-t tgd, one pass over the adjacency
sets per functional egd), so verifying a chased witness costs far less
than the chase that built it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.chase.egd_chase import chase_with_egds
from repro.chase.pattern_chase import chase_pattern
from repro.chase.result import ChaseResult
from repro.chase.sameas_chase import solve_with_sameas
from repro.core.satpipeline import pipeline_for
from repro.core.search import CandidateSearchConfig, candidate_solutions
from repro.core.setting import DataExchangeSetting
from repro.core.solution import is_solution
from repro.errors import NotSupportedError
from repro.graph.database import GraphDatabase
from repro.graph.nre import Label, Union as NREUnion
from repro.patterns.rep import canonical_instantiation
from repro.relational.instance import RelationalInstance
from repro.relational.query import is_variable
from repro.telemetry import span


class ExistenceStatus(enum.Enum):
    """Outcome of the existence decision."""

    EXISTS = "exists"
    NOT_EXISTS = "not-exists"
    UNKNOWN = "unknown"


@dataclass
class ExistenceResult:
    """The decision, the deciding strategy, and a verified witness if any."""

    status: ExistenceStatus
    method: str
    witness: GraphDatabase | None = None
    detail: str = ""

    @property
    def exists(self) -> bool:
        """Convenience: whether the status is EXISTS."""
        return self.status is ExistenceStatus.EXISTS


def _verified(
    graph: GraphDatabase,
    setting: DataExchangeSetting,
    instance: RelationalInstance,
    method: str,
) -> ExistenceResult:
    """Return ``graph`` as the EXISTS witness of ``method`` once it verifies.

    A witness that is not a solution is a library bug, never an answer.
    """
    with span("solution.verify", method=method):
        verified = is_solution(instance, graph, setting)
    if not verified:
        raise AssertionError(
            f"strategy {method!r} produced a non-solution witness — "
            "this is a bug in the library, please report it"
        )
    return ExistenceResult(ExistenceStatus.EXISTS, method, witness=graph)


def existence_from_chase(
    chase: ChaseResult,
    setting: DataExchangeSetting,
    instance: RelationalInstance,
) -> ExistenceResult:
    """Decide existence from the Section 3.1 chase of ``instance``.

    ``chase`` is :func:`repro.core.tractable.chase_universal`'s result for
    this setting and instance.  In the fragment that chase is a complete
    decision: failure proves no solution exists, and otherwise the chased
    graph is a solution — verified here, every time, before it is
    returned as the witness.  The graph is only read.
    """
    if chase.failed:
        left, right = chase.failure_witness  # type: ignore[misc]
        return ExistenceResult(
            ExistenceStatus.NOT_EXISTS,
            "chase-failure",
            detail=f"egd chase tried to equate constants {left!r} and {right!r}",
        )
    return _verified(chase.expect_graph(), setting, instance, "relational-chase")


def collapsing_labels(setting: DataExchangeSetting) -> frozenset[str]:
    """Return the labels ``a`` with an egd forcing every ``a``-edge to loop.

    An egd collapses ``a`` when its body is the single atom
    ``(x, a₁ + … + aₖ, y)`` with ``{x, y}`` exactly the equated pair and
    ``a`` among the symbols: any ``a``-edge between distinct nodes then
    matches the body and violates the equality.
    """
    collapsed: set[str] = set()
    for egd in setting.egds():
        if len(egd.body.atoms) != 1:
            continue
        atom = egd.body.atoms[0]
        endpoints = {atom.subject, atom.object}
        if endpoints != {egd.left, egd.right}:
            continue
        symbols = _union_symbols(atom.nre)
        if symbols is not None:
            collapsed.update(symbols)
    return frozenset(collapsed)


def _union_symbols(expr) -> list[str] | None:
    if isinstance(expr, Label):
        return [expr.name]
    if isinstance(expr, NREUnion):
        left = _union_symbols(expr.left)
        right = _union_symbols(expr.right)
        if left is None or right is None:
            return None
        return left + right
    return None


def loop_collapse_refutation(
    setting: DataExchangeSetting, instance: RelationalInstance
) -> str | None:
    """Refute existence when egds force all edges to be self-loops.

    If every symbol of Σ has a collapsing egd, then in any solution every
    edge is a self-loop, so any NRE path stays at its node; head atoms then
    require their endpoint images to be *equal*.  Unifying each trigger's
    head endpoints (frontier variables pinned to constants) therefore must
    not equate two distinct constants — if it does, no solution exists.

    Returns a human-readable refutation, or ``None`` when inconclusive.
    This is precisely the argument deciding Example 5.2.
    """
    if not setting.alphabet <= collapsing_labels(setting):
        return None
    for tgd in setting.st_tgds:
        for match in tgd.body_matches(instance):
            parent: dict[object, object] = {}

            def find(x: object) -> object:
                parent.setdefault(x, x)
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            def value(term: object) -> object:
                if is_variable(term):
                    if term in match:
                        return ("const", match[term])  # type: ignore[index]
                    return ("var", term)
                return ("const", term)

            conflict = None
            for atom in tgd.head.atoms:
                left, right = find(value(atom.subject)), find(value(atom.object))
                if left == right:
                    continue
                if left[0] == "const" and right[0] == "const":
                    conflict = (left[1], right[1])
                    break
                # Prefer constants as class representatives.
                if left[0] == "const":
                    parent[right] = left
                else:
                    parent[left] = right
            if conflict is not None:
                return (
                    "all alphabet symbols have collapsing egds, so every edge "
                    "of a solution is a self-loop; but the trigger "
                    f"{ {v.name: match[v] for v in tgd.body.variables()} } of "
                    f"s-t tgd {tgd} forces constants {conflict[0]!r} and "
                    f"{conflict[1]!r} to coincide"
                )
    return None


def _complete_sat_decision(
    setting: DataExchangeSetting,
    instance: RelationalInstance,
) -> ExistenceResult | None:
    """The complete Theorem 4.1 decision on the persistent SAT pipeline.

    A stateless entry point (all state lives in the value-keyed pipeline
    registry, shared safely across re-entrant callers — the serving
    layer's workers call this once per request): returns the decided
    :class:`ExistenceResult`, or ``None`` when the pipeline is
    inapplicable (or its decode self-check tripped) and the caller must
    fall back to the sound chase/enumeration strategies.  An UNSAT verdict
    is refined through :func:`loop_collapse_refutation` so Example 5.2
    keeps its exact diagnosis; loop-collapse is *not* consulted on the
    EXISTS path (it is a refutation — it can never fire on a satisfiable
    setting, so checking it up front would be pure overhead).
    """
    pipeline = pipeline_for(setting, instance)
    if pipeline is None:
        return None
    try:
        witness = pipeline.existence_witness()
    except NotSupportedError:
        return None  # decode self-check tripped: fall back to the chase
    if witness is None:
        refutation = loop_collapse_refutation(setting, instance)
        if refutation is not None:
            return ExistenceResult(
                ExistenceStatus.NOT_EXISTS, "loop-collapse", detail=refutation
            )
        return ExistenceResult(
            ExistenceStatus.NOT_EXISTS,
            "sat-bounded-complete",
            detail=(
                f"UNSAT over the {len(pipeline.nodes)}-node "
                "universe; complete for union-of-symbols heads "
                "with word egds"
            ),
        )
    # The pipeline verified the witness through the fragment-exact
    # solution check already.
    return ExistenceResult(
        ExistenceStatus.EXISTS, "sat-bounded-complete", witness=witness
    )


def decide_existence(
    setting: DataExchangeSetting,
    instance: RelationalInstance,
    search_config: CandidateSearchConfig | None = None,
    star_bound: int = 2,
    engine=None,
) -> ExistenceResult:
    """Decide whether ``Sol_Ω(I) ≠ ∅`` (see the module docstring).

    The result's ``method`` names the deciding strategy; UNKNOWN results
    mean every applicable bounded strategy was exhausted inconclusively.
    ``engine`` is the query engine forwarded to the bounded candidate
    search (strategy 3/4); witness verification and the other strategies
    use the shared default engine through the trigger matcher.
    """
    fragment = setting.fragment()

    # 1. No target constraints: solutions always exist (Section 3.2).
    if not fragment.has_target_constraints:
        pattern = chase_pattern(
            setting.st_tgds, instance, alphabet=setting.alphabet
        ).expect_pattern()
        witness = canonical_instantiation(pattern, star_bound=star_bound).graph
        return _verified(witness, setting, instance, "pattern-instantiation")

    # 2. sameAs only: the Section 4.2 constructive algorithm.
    if fragment.has_sameas and not fragment.has_egds and not fragment.has_general_tgds:
        result = solve_with_sameas(
            setting.st_tgds,
            setting.sameas_constraints(),
            instance,
            alphabet=setting.alphabet,
            star_bound=star_bound,
        )
        return _verified(result.expect_graph(), setting, instance, "sameas-construction")

    # 3. egds present.
    if fragment.has_egds:
        # 3a. Single-symbol fragment: the relational chase is itself a
        # complete decision procedure (Section 3.1) — it either
        # materialises a concrete solution or proves none exists by trying
        # to equate two constants.  It runs near-linearly in the instance,
        # so it decides *before* the bounded SAT universe (whose encoding
        # is super-cubic in the pattern's node count): the scale workloads
        # (10^5+ source nodes) are decidable only through this path.
        if (
            fragment.heads_single_symbols
            and not fragment.has_general_tgds
            and not fragment.has_sameas
        ):
            from repro.core.tractable import chase_universal  # cycle guard

            return existence_from_chase(
                chase_universal(setting, instance), setting, instance
            )
        sat_attempted = False
        if fragment.sat_encodable:
            # Complete fragment: the persistent incremental SAT decision
            # runs first.  The adapted chase is *not* run — SAT completeness
            # subsumes its verdict, and the chase fixpoint was the single
            # largest cost of the Theorem 4.1 benchmark.
            sat_attempted = True
            decided = _complete_sat_decision(setting, instance)
            if decided is not None:
                return decided
            refutation = loop_collapse_refutation(setting, instance)
            if refutation is not None:
                return ExistenceResult(
                    ExistenceStatus.NOT_EXISTS, "loop-collapse", detail=refutation
                )
        # Non-encodable settings (or an inapplicable pipeline): the adapted
        # chase refutes soundly, then loop-collapse (unless already tried).
        chase_result = chase_with_egds(
            setting.st_tgds, setting.egds(), instance, alphabet=setting.alphabet
        )
        if chase_result.failed:
            left, right = chase_result.failure_witness  # type: ignore[misc]
            return ExistenceResult(
                ExistenceStatus.NOT_EXISTS,
                "chase-failure",
                detail=f"egd chase tried to equate constants {left!r} and {right!r}",
            )
        if not sat_attempted:
            refutation = loop_collapse_refutation(setting, instance)
            if refutation is not None:
                return ExistenceResult(
                    ExistenceStatus.NOT_EXISTS, "loop-collapse", detail=refutation
                )

    # 3d / 4. Bounded candidate search (also repairs general target tgds).
    config = search_config if search_config is not None else CandidateSearchConfig(
        star_bound=star_bound
    )
    for candidate in candidate_solutions(setting, instance, config, engine=engine):
        return _verified(candidate, setting, instance, "candidate-search")

    return ExistenceResult(
        ExistenceStatus.UNKNOWN,
        "bounds-exhausted",
        detail=(
            "no sound refutation applied and the bounded candidate search "
            f"(star_bound={config.star_bound}) found no solution"
        ),
    )
