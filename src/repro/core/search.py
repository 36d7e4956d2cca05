"""Bounded enumeration of candidate solutions.

Every solution G contains a homomorphic image of the chased pattern π
(that is what makes π a universal representative for the constraint-free
part of the setting).  The *minimal* solutions — the only ones that matter
for certain answers of monotone queries, and sufficient witnesses for
existence — are therefore obtained by:

1. choosing, for every NRE edge of π, a concrete witness (union branches,
   star unrollings up to ``star_bound`` — :mod:`repro.graph.witness`);
2. choosing a *quotient*: which nulls collapse with each other or with
   constants (egds force such identifications in solutions; the choices are
   enumerated as set partitions of the nulls with an optional constant per
   block);
3. repairing constraint kinds that are always repairable: sameAs constraints
   by saturation, general target tgds by a bounded chase;
4. filtering by the full solution predicate.

The enumeration is exponential (witness choices × partitions), which is the
expected shape: the paper proves existence NP-hard (Theorem 4.1) and
certain answers coNP-hard (Corollary 4.2), so *some* exponential lives here
by necessity.  All knobs are explicit in :class:`CandidateSearchConfig`.

Step 1 is a *pruned backtracking* search rather than a blind product: a
partial witness combination whose partial graph already violates an egd
between two **distinct constants** can never complete to a solution —
adding the remaining witnesses only adds edges (NRE bodies are monotone,
so the violating match survives), quotients rename nulls but fix constants
(the match's image still violates), and the repair steps of step 3 only add
edges too.  Cutting those subtrees early is what makes the
``max_instantiations`` budget meaningful on settings whose witness-choice
space is large but mostly inconsistent — the seed code enumerated the raw
product and routinely burned its entire budget inside a fully-conflicted
region (Hypothesis seed 2781 was the canonical failure: a verified SAT
witness existed while the first 512 product combinations all violated the
``l2·l1`` egd, so ``candidate_solutions`` reported nothing).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Hashable, Iterator

from repro.chase.egd_chase import chase_with_egds
from repro.chase.pattern_chase import chase_pattern
from repro.chase.sameas_chase import saturate_sameas
from repro.chase.target_tgd_chase import chase_target_tgds
from repro.core.setting import DataExchangeSetting
from repro.core.solution import is_solution
from repro.engine.matcher import TriggerMatcher
from repro.errors import BoundExceeded, NotSupportedError
from repro.graph.database import GraphDatabase
from repro.graph.witness import default_fresh_factory, enumerate_witnesses
from repro.patterns.pattern import GraphPattern, PatternEdge
from repro.patterns.rep import Instantiation, assemble_witnesses
from repro.relational.instance import RelationalInstance

Node = Hashable


@dataclass(frozen=True)
class CandidateSearchConfig:
    """Bounds for the candidate-solution enumeration."""

    star_bound: int = 1
    """Maximum star unrollings per star occurrence in edge witnesses."""

    max_candidates: int | None = None
    """Stop after yielding this many solutions (``None`` = unbounded)."""

    max_instantiations: int | None = 512
    """Cap on witness-choice combinations examined."""

    max_quotients: int | None = 512
    """Cap on null quotients examined per instantiation."""

    tgd_rounds: int = 10
    """Round budget for repairing general target tgds."""

    quotient_nulls: bool = True
    """Whether to enumerate null identifications at all (needed under egds)."""

    prune_coarser: bool = True
    """Skip quotients coarsening an accepted solution quotient.

    Sound for certain answers and existence: the skipped solution is a
    homomorphic image (identity on constants) of an accepted one, so its
    answer set on constant tuples is a superset (monotonicity of NREs).
    Automatically disabled when general target tgds are present.
    """


def _partitions(items: list[Node]) -> Iterator[list[list[Node]]]:
    """Yield all set partitions of ``items`` (restricted-growth strings)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in _partitions(rest):
        for i, block in enumerate(partition):
            yield partition[:i] + [[first] + block] + partition[i + 1 :]
        yield [[first]] + partition


def _quotient_maps(
    null_nodes: list[Node],
    constants: list[Node],
    limit: int | None,
) -> list[dict[Node, Node]]:
    """Return maps sending each null-derived node to its representative.

    Each set partition of the nulls becomes several maps: every block maps
    either to its own first element (stays null-like) or to one constant.
    The list is ordered from finest (identity) to coarsest, measured by the
    number of identifications performed; the coarsening-pruning in
    :func:`candidate_solutions` relies on this order.
    """

    def rank(mapping: dict[Node, Node]) -> int:
        merged_away = sum(1 for node, target in mapping.items() if node != target)
        into_constants = sum(1 for target in mapping.values() if target in constant_set)
        return merged_away + into_constants

    constant_set = set(constants)
    maps: list[dict[Node, Node]] = []
    for partition in _partitions(null_nodes):
        per_block_choices = [[block[0]] + constants for block in partition]
        for targets in itertools.product(*per_block_choices):
            mapping: dict[Node, Node] = {}
            for block, target in zip(partition, targets):
                for member in block:
                    mapping[member] = target
            maps.append(mapping)
            if limit is not None and len(maps) >= limit:
                maps.sort(key=rank)
                return maps
    maps.sort(key=rank)
    return maps


def _coarsens(
    finer: dict[Node, Node],
    candidate: dict[Node, Node],
    null_nodes: list[Node],
    constants: set[Node],
) -> bool:
    """Whether ``candidate`` factors through ``finer`` (identifies at least
    as much, and agrees on every constant ``finer`` already pinned).

    When it does, the candidate's solution is a homomorphic image of the
    finer one (identity on constants), so by monotonicity of NREs its
    answer set on constant tuples is a superset — useless for certain-answer
    intersections and redundant as an existence witness.
    """
    image: dict[Node, Node] = {}
    for node in null_nodes:
        finer_value = finer.get(node, node)
        candidate_value = candidate.get(node, node)
        if finer_value in constants:
            if candidate_value != finer_value:
                return False
            continue
        pinned = image.get(finer_value)
        if pinned is None:
            image[finer_value] = candidate_value
        elif pinned != candidate_value:
            return False
    return True


def _apply_quotient(graph: GraphDatabase, mapping: dict[Node, Node]) -> GraphDatabase:
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


def chased_pattern_for(
    setting: DataExchangeSetting, instance: RelationalInstance
) -> GraphPattern | None:
    """Chase the pattern (with egd steps when egds are present).

    Returns ``None`` when the egd chase fails — then no solution exists and
    the search space is empty.
    """
    if setting.egds():
        result = chase_with_egds(
            setting.st_tgds, setting.egds(), instance, alphabet=setting.alphabet
        )
        if result.failed:
            return None
        return result.expect_pattern()
    return chase_pattern(
        setting.st_tgds, instance, alphabet=setting.alphabet
    ).expect_pattern()


def _has_constant_egd_conflict(
    graph: GraphDatabase,
    egds,
    constants: set[Node],
    engine,
) -> bool:
    """Whether ``graph`` violates some egd between two distinct constants.

    Such a violation is *permanent*: witnesses still to be chosen only add
    edges, quotients only rename nulls, and the repair chases only add edges
    — none of which can retract an NRE match between two constants.  Used
    by the backtracking enumeration to cut conflicted subtrees early.
    """
    for egd in egds:
        matcher = TriggerMatcher(graph, engine=engine)
        for hom in matcher.matches(egd.body):
            left, right = hom[egd.left], hom[egd.right]
            if left != right and left in constants and right in constants:
                return True
    return False


def _pruned_instantiations(
    pattern: GraphPattern,
    setting: DataExchangeSetting,
    cfg: CandidateSearchConfig,
    sigma,
    engine,
) -> Iterator[Instantiation]:
    """Enumerate full witness combinations, pruning doomed prefixes.

    Yields exactly the assemblable combinations the raw product would have
    yielded, minus those whose partial graph already carries a
    constant-to-constant egd violation (see
    :func:`_has_constant_egd_conflict` — every completion of such a prefix
    fails the solution check, so skipping them loses nothing and keeps the
    ``max_instantiations`` budget for combinations that can still win).
    """
    edges = sorted(pattern.edges(), key=PatternEdge.sort_key)
    fresh = default_fresh_factory()
    per_edge = [
        list(enumerate_witnesses(e.nre, e.source, e.target, cfg.star_bound, fresh))
        for e in edges
    ]
    egds = list(setting.egds())
    constants = set(pattern.constants())

    def extend(index: int, chosen: list) -> Iterator[Instantiation]:
        partial = assemble_witnesses(pattern, chosen, sigma)
        if partial is None:
            return
        if egds and _has_constant_egd_conflict(
            partial.graph, egds, constants, engine
        ):
            return
        if index == len(per_edge):
            yield partial
            return
        for witness in per_edge[index]:
            yield from extend(index + 1, chosen + [witness])

    yield from extend(0, [])


def candidate_solutions(
    setting: DataExchangeSetting,
    instance: RelationalInstance,
    config: CandidateSearchConfig | None = None,
    engine=None,
) -> Iterator[GraphDatabase]:
    """Yield distinct (bounded-)minimal solutions for ``instance`` under Ω.

    Every yielded graph passes the full :func:`repro.core.solution.is_solution`
    check, so consumers may rely on them being genuine solutions.  ``engine``
    is the query engine used for egd pruning and (downstream) solution
    checking; ``None`` selects the shared compiled engine.

    On egd settings in the SAT-encodable fragment the shared incremental
    pipeline (:mod:`repro.core.satpipeline`) is consulted first: its
    existence verdict is *complete* there, so a refuted universe prunes
    the whole exponential enumeration in one (usually cached) SAT call.
    """
    cfg = config if config is not None else CandidateSearchConfig()
    if setting.egds() and setting.fragment().sat_encodable:
        from repro.core.satpipeline import pipeline_for

        pipeline = pipeline_for(setting, instance)
        if pipeline is not None:
            try:
                refuted = not pipeline.has_solution()
            except NotSupportedError:  # pragma: no cover - decode self-check
                refuted = False
            if refuted:
                return  # complete: no solutions exist, nothing to enumerate
    pattern = chased_pattern_for(setting, instance)
    if pattern is None:
        return

    sigma = setting.effective_alphabet()
    constants = sorted(
        (n for n in pattern.constants()), key=repr
    )
    seen: set[frozenset] = set()
    solution_signatures: set[frozenset] = set()
    yielded = 0
    examined_instantiations = 0

    for instantiation in _pruned_instantiations(
        pattern, setting, cfg, sigma, engine
    ):
        examined_instantiations += 1
        if (
            cfg.max_instantiations is not None
            and examined_instantiations > cfg.max_instantiations
        ):
            return
        null_nodes = sorted(
            {
                instantiation.assignment[null]
                for null in pattern.nulls()
            },
            key=repr,
        )
        if cfg.quotient_nulls:
            quotients = _quotient_maps(null_nodes, constants, cfg.max_quotients)
        else:
            quotients = [{}]
        constant_set = set(constants)
        # Pruning: once a quotient yields a solution, every coarser quotient
        # of the same instantiation is a homomorphic image of it (identity
        # on constants), hence answer-superset by monotonicity — skip it.
        # Disabled when general target tgds are present (their bounded-chase
        # repair does not commute with homomorphisms in general).
        prune = cfg.prune_coarser and not setting.general_target_tgds()
        accepted: list[dict[Node, Node]] = []
        for mapping in quotients:
            if prune and any(
                _coarsens(done, mapping, null_nodes, constant_set)
                for done in accepted
            ):
                continue
            graph = _apply_quotient(instantiation.graph, mapping)
            graph = _repair(graph, setting, cfg)
            if graph is None:
                continue
            signature = frozenset(graph.edges()) | frozenset(
                ("node", n) for n in graph.nodes()
            )
            if signature in seen:
                if signature in solution_signatures:
                    accepted.append(mapping)
                continue
            seen.add(signature)
            if is_solution(instance, graph, setting):
                solution_signatures.add(signature)
                accepted.append(mapping)
                yield graph
                yielded += 1
                if cfg.max_candidates is not None and yielded >= cfg.max_candidates:
                    return


def _repair(
    graph: GraphDatabase,
    setting: DataExchangeSetting,
    cfg: CandidateSearchConfig,
) -> GraphDatabase | None:
    """Apply the always-repairable constraint kinds; ``None`` if repair fails."""
    if setting.sameas_constraints():
        graph = saturate_sameas(graph, list(setting.sameas_constraints()))
    general = setting.general_target_tgds()
    if general:
        try:
            result = chase_target_tgds(
                graph, general, max_rounds=cfg.tgd_rounds, strict=True
            )
        except BoundExceeded:
            return None
        graph = result.expect_graph()
        if setting.sameas_constraints():
            graph = saturate_sameas(graph, list(setting.sameas_constraints()))
    return graph
