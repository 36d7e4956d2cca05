"""The persistent incremental SAT pipeline for the Theorem 4.1 fragment.

Before this module existed, every certain-answer probe and every existence
decision on a SAT-encodable setting re-encoded the bounded-model CNF and
re-ran the solver from scratch — although consecutive probes share the
whole base encoding (s-t tgd clauses + egd blocking clauses) and differ
only in which query pair is being blocked.  A :class:`SatPipeline` keeps
**one solver per (setting, instance) universe** and makes the differences
incremental:

* the base encoding (:func:`~repro.solver.encode.encode_bounded_existence`)
  is built once and ingested into one
  :class:`~repro.solver.cdcl.CDCLSolver`;
* each probed pair gets a fresh **guard variable**; its blocking clauses
  are added once, extended with ``¬guard``, and activated per solve with
  ``solve(assumptions=[guard])`` — so *candidate selection is an
  assumption literal*, not a new formula;
* everything the CDCL solver learns while probing one pair is implied by
  the clause database alone and therefore **carries over to every later
  probe** of the same universe, instead of being thrown away per call;
* decoded witnesses are verified through the fragment-exact
  :func:`~repro.solver.encode.check_fragment_solution` and memoised by
  edge signature (deterministic phase saving makes the solver reproduce
  the same model across probes, so verification usually runs once).

Soundness is inherited from the encode module's completeness argument: a
guarded blocking clause is satisfiable with its guard false, so adding
pair constraints never changes the satisfiability of the base encoding —
which is why the existence verdict can be decided once and cached.

Pipelines are cached by **value** (setting fingerprint + instance
fingerprint, see :func:`pipeline_for`), which is what makes
the serving model fast: a steady stream of requests over the same exchange
setting hits one warm solver no matter how the request objects were
constructed.
"""

from __future__ import annotations

import threading
from typing import Hashable

from repro.chase.pattern_chase import chase_pattern
from repro.core.setting import DataExchangeSetting
from repro.errors import NotSupportedError
from repro.graph.database import GraphDatabase
from repro.graph.nre import NRE
from repro.relational.instance import RelationalInstance
from repro.solver.cdcl import CDCLSolver
from repro.solver.encode import (
    add_pair_blocking_clauses,
    check_fragment_solution,
    decode_edge_model,
    encode_bounded_existence,
)
from repro.telemetry import fold_stats, span

Node = Hashable

_UNSET = object()
_INAPPLICABLE = object()


class SatPipeline:
    """One persistent incremental solver for one (setting, instance) universe.

    Raises :class:`~repro.errors.NotSupportedError` at construction when
    the setting cannot be encoded (use :func:`pipeline_for`, which screens
    by fragment and caches the outcome).
    """

    def __init__(
        self,
        setting: DataExchangeSetting,
        instance: RelationalInstance,
    ):
        self.setting = setting
        # Snapshot the (mutable) instance: the pipeline is cached by value
        # fingerprint, so later mutations of the caller's object must not
        # leak into a pipeline that fingerprint-equal requests still hit —
        # witness verification would otherwise run against foreign facts.
        self.instance = instance.copy()
        instance = self.instance
        with span("solver.build"):
            pattern = chase_pattern(
                setting.st_tgds, instance, alphabet=setting.alphabet
            ).expect_pattern()
            self.nodes: list[Node] = sorted(pattern.nodes(), key=repr)
            self._members = set(self.nodes)
            self.cnf = encode_bounded_existence(setting, instance, self.nodes)
            self.solver = CDCLSolver(self.cnf)
        self.probes = 0
        """SAT solves issued through :meth:`probe_pair` (telemetry)."""
        self._guards: dict[tuple[NRE, Node, Node], int | None] = {}
        self._witnesses: dict[frozenset, GraphDatabase] = {}
        self._existence: object = _UNSET

    # ------------------------------------------------------------------ #

    def existence_witness(self) -> GraphDatabase | None:
        """A verified bounded solution, or ``None`` when none exists.

        Decided once per pipeline: guarded pair clauses never change the
        satisfiability of the base encoding (each is satisfiable with its
        guard false), so the verdict cannot go stale.
        """
        if self._existence is _UNSET:
            with span("solver.solve", kind="existence"):
                model = self.solver.solve()
            self._fold_solver_stats()
            self._existence = None if model is None else self._witness(model)
        return self._existence  # type: ignore[return-value]

    def has_solution(self) -> bool:
        """Whether any bounded solution exists (complete for the fragment)."""
        return self.existence_witness() is not None

    def probe_pair(
        self, query: NRE, source: Node, target: Node
    ) -> GraphDatabase | None:
        """Find a solution missing ``(source, target) ∈ ⟦query⟧``, or ``None``.

        ``None`` covers both "every bounded solution contains the pair"
        and "no solution at all" — in either case the pair is certain (the
        latter vacuously).  The returned graph is a verified solution.
        Raises :class:`~repro.errors.NotSupportedError` when ``query`` is
        not a union of words.
        """
        key = (query, source, target)
        guard = self._guards.get(key, _UNSET)
        if guard is _UNSET:
            guard = self._install_guard(query, source, target)
            self._guards[key] = guard
        self.probes += 1
        if guard is None:
            # The pair has no realisation over the universe: any solution
            # is a counterexample, and the existence answer is cached.
            return self.existence_witness()
        with span("solver.solve", kind="probe"):
            model = self.solver.solve((guard,))
        self._fold_solver_stats()
        if model is None:
            return None
        return self._witness(model)

    def guard_keys(self) -> tuple:
        """The ``(query, source, target)`` pairs probed so far, sorted.

        The working set a warm pipeline has accumulated — exactly what
        :func:`advance_pipeline` replays into the successor pipeline after
        an instance update, so the first post-update probe of a hot pair
        finds its blocking clauses already installed.
        """
        return tuple(sorted(self._guards, key=repr))

    def prewarm_pairs(self, keys) -> int:
        """Install blocking clauses for ``keys`` without solving.

        Each key is a ``(query, source, target)`` triple (typically another
        pipeline's :meth:`guard_keys`).  Keys whose query shape the encoder
        rejects are skipped — prewarming is best-effort by design.  Returns
        how many guards were newly installed.
        """
        installed = 0
        for key in keys:
            if key in self._guards:
                continue
            query, source, target = key
            try:
                self._guards[key] = self._install_guard(query, source, target)
            except NotSupportedError:
                continue
            installed += 1
        return installed

    # ------------------------------------------------------------------ #

    def _fold_solver_stats(self) -> None:
        """Fold the solver's cumulative counters into the telemetry registry.

        Called after every solve; :func:`~repro.telemetry.fold_stats` folds
        by delta, so repeated calls ship only the new work.
        """
        stats = getattr(self.solver, "stats", None)
        if stats is not None:
            fold_stats("solver", stats)

    def _install_guard(self, query: NRE, source: Node, target: Node) -> int | None:
        if source not in self._members or target not in self._members:
            return None
        guard = self.cnf.new_variable()
        added = add_pair_blocking_clauses(
            self.cnf, query, source, target, self.nodes, guard=guard
        )
        if not added:  # no path variables exist: the pair is unrealisable
            return None
        solver_add = self.solver.add_clause
        for clause in added:
            solver_add(clause)
        return guard

    def _witness(self, model: dict[int, bool]) -> GraphDatabase:
        witness = decode_edge_model(
            self.cnf, model, self.setting.alphabet, self.nodes
        )
        signature = frozenset(witness.edges()) | frozenset(
            ("node", n) for n in witness.nodes()
        )
        cached = self._witnesses.get(signature)
        if cached is not None:
            return cached
        if not check_fragment_solution(self.instance, witness, self.setting):
            # A decode/encode disagreement would be a bug; surface it as
            # "not supported" so callers fall back to the sound enumeration
            # instead of trusting a broken fast path.
            raise NotSupportedError(
                "decoded SAT model failed the fragment solution check"
            )
        self._witnesses[signature] = witness
        return witness


# (setting key, instance fingerprint) → SatPipeline, so a
# steady stream of value-equal requests — the serving model — reuses one
# warm solver with everything it has learnt.  Bounded like the encode
# module's path cache: wholesale clear past the limit.  The registry is
# lock-protected for re-entrant multi-threaded callers (the service's
# inline worker lane runs beside the server's event-loop thread); the
# pipelines *themselves* are single-threaded — callers must not probe one
# pipeline from two threads at once (the service serialises all library
# work per worker, so this never arises in the serving deployment).
_PIPELINES: dict = {}
_PIPELINE_LIMIT = 64
_PIPELINES_LOCK = threading.Lock()


def _setting_key(setting: DataExchangeSetting):
    key = getattr(setting, "_satpipeline_key", None)
    if key is None:
        key = (setting.alphabet, setting.st_tgds, setting.target_constraints)
        setting._satpipeline_key = key  # settings are immutable after init
    return key


def pipeline_for(
    setting: DataExchangeSetting,
    instance: RelationalInstance,
) -> SatPipeline | None:
    """Return the shared pipeline for this universe, or ``None`` if inapplicable.

    Screens by :attr:`~repro.core.setting.SettingFragment.sat_encodable`
    first; construction failures (encode raising ``NotSupportedError`` on
    shapes the syntactic fragment check over-approximates) are cached as
    inapplicable so they are not retried per probe.
    """
    if not setting.fragment().sat_encodable:
        return None
    key = (_setting_key(setting), instance.fingerprint())
    # Get-or-create under the registry lock: concurrent value-equal
    # requests must converge on ONE pipeline, not race to build two and
    # hand different solvers to different callers.
    with _PIPELINES_LOCK:
        entry = _PIPELINES.get(key)
        if entry is None:
            try:
                entry = SatPipeline(setting, instance)
            except NotSupportedError:
                entry = _INAPPLICABLE
            if len(_PIPELINES) >= _PIPELINE_LIMIT:
                _PIPELINES.clear()
            _PIPELINES[key] = entry
    return None if entry is _INAPPLICABLE else entry


def advance_pipeline(
    setting: DataExchangeSetting,
    old_instance: RelationalInstance,
    new_instance: RelationalInstance,
) -> SatPipeline | None:
    """Roll a warm pipeline forward across an instance update.

    A clause database encodes one concrete universe (the chase pattern's
    node set), so the old solver cannot be patched in place when the
    instance changes — but its *working set* can move: the successor
    pipeline for ``new_instance`` is built (or fetched) through
    :func:`pipeline_for`, and every pair the old pipeline had installed
    guards for is pre-warmed into it, so hot pairs keep answering from
    incremental assumptions instead of paying first-probe setup again.
    The old entry is evicted.  Returns the successor pipeline, or ``None``
    when the setting is not SAT-encodable.
    """
    if not setting.fragment().sat_encodable:
        return None
    old_key = (_setting_key(setting), old_instance.fingerprint())
    with _PIPELINES_LOCK:
        prior = _PIPELINES.pop(old_key, None)
    successor = pipeline_for(setting, new_instance)
    if successor is not None and isinstance(prior, SatPipeline):
        successor.prewarm_pairs(prior.guard_keys())
    return successor


def live_pipelines() -> list[SatPipeline]:
    """Every pipeline currently warm in this process's registry.

    The introspection hook worker processes use to flush accumulated
    solver counters into the telemetry registry at response time.
    """
    with _PIPELINES_LOCK:
        return [p for p in _PIPELINES.values() if isinstance(p, SatPipeline)]


def clear_pipelines() -> None:
    """Drop every cached pipeline (tests and long-running processes)."""
    with _PIPELINES_LOCK:
        _PIPELINES.clear()
