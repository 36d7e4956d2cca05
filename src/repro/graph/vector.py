"""The vectorized (numpy) product-automaton search.

The sweep path of :class:`repro.graph.automaton._Runner` on frozen CSR
graphs whenever numpy is importable (:mod:`repro.kernels`): it serves
``reachable``/``reachable_many`` and therefore ``pairs`` and
``answers_over``.  Instead of visiting one product config ``(node,
state)`` per Python iteration, a whole *frontier* moves at once:

* the per-state frontier is an ``int64`` array of flat configs
  ``src_index × |V| + node`` — one search evaluates **many sources
  simultaneously**, which is what turns a 120-source bulk sweep into a
  handful of large array ops instead of 120 small searches;
* the visited map is one boolean matrix of shape
  ``state_count × (n_src · |V|)``;
* edge expansion is a vectorized CSR gather: per drained state, degrees
  come from one fancy-indexed ``offsets`` read, the slice positions from
  ``np.repeat`` over the degree counts plus an ``arange``, and the
  successor configs from one fancy-indexed ``targets`` read — no
  per-node Python at all;
* nested ``[·]`` tests batch their candidate arrays through a recursive
  multi-source search, memoised per (sub-automaton, node) in boolean
  ``known`` / ``value`` arrays shared by every source.

Frontier insertion filters fresh configs through the visited row
(``succ[~row[succ]]``) *before* appending, so cross-batch duplicates
never re-expand; duplicates *within* one gathered array (two frontier
nodes sharing a successor in the same drain) are tolerated — their
second expansion finds every successor already visited — because the
sort a full dedupe needs costs more than the duplicate work saves.

Single-pair probes do not come here: per-probe numpy dispatch loses to
the generated code of :mod:`repro.graph.codegen`.  Answers are
byte-identical to codegen and to the reference evaluator; the property
suite in ``tests/test_properties/test_kernel_properties.py`` pins that
over random graphs and NREs, with numpy present and masked.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro import kernels

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.graph.automaton import CompiledAutomaton

# Soft cap on product-space configs materialised per batched search;
# callers chunk source lists so the visited matrix stays ~state_count ×
# this many bools regardless of how many sources they sweep.
CHUNK_CONFIGS = 1 << 19


class VectorSearch:
    """Batched product-automaton searches over one frozen CSR backend.

    Owned by a :class:`~repro.graph.automaton._Runner`: one instance per
    (graph, runner), holding the resolved per-state move tables and the
    nested-test memos.  ``stats`` is the runner's duck-typed counter
    object (may be ``None``).
    """

    def __init__(self, csr, stats: object | None = None):
        self.csr = csr
        self.stats = stats
        self.np = kernels.get_numpy()
        # automaton cache_key -> per-state (moves, checks) with numpy
        # CSR buffers bound.
        self._resolved: dict[int, tuple] = {}
        # automaton cache_key -> (known, value) boolean arrays over |V|:
        # the vectorized nested-test memo (node-level — test answers are
        # source-independent, so every source shares one row).
        self._test_memo: dict[int, tuple] = {}

    # ------------------------------------------------------------------ #
    # Public modes
    # ------------------------------------------------------------------ #

    def reachable_many(
        self, compiled: "CompiledAutomaton", source_ids: Sequence[int]
    ) -> list:
        """Per-source accepted node ids (ascending), one list entry per source.

        The bulk-traversal entry point: all sources advance through one
        shared product BFS, chunked so the visited matrix never exceeds
        ~:data:`CHUNK_CONFIGS` configs per state.
        """
        np = self.np
        node_count = self.csr.node_count()
        per_chunk = max(1, CHUNK_CONFIGS // max(1, node_count))
        results: list = []
        for begin in range(0, len(source_ids), per_chunk):
            chunk = source_ids[begin : begin + per_chunk]
            hits = self._run_collect(compiled, chunk)
            for index in range(len(chunk)):
                row = hits[index * node_count : (index + 1) * node_count]
                results.append(np.flatnonzero(row))
        return results

    def nonempty_many(
        self, compiled: "CompiledAutomaton", source_ids: Sequence[int]
    ):
        """Boolean array: whether each source reaches *any* accepting config.

        The batched nested-test question, with per-source early exit:
        sources whose verdict is already ``True`` drop out of every later
        frontier, and the whole search stops once every source is done.
        """
        np = self.np
        verdict = np.zeros(len(source_ids), dtype=bool)
        node_count = self.csr.node_count()
        per_chunk = max(1, CHUNK_CONFIGS // max(1, node_count))
        for begin in range(0, len(source_ids), per_chunk):
            chunk = source_ids[begin : begin + per_chunk]
            verdict[begin : begin + len(chunk)] = self._run_nonempty(
                compiled, chunk
            )
        return verdict

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _resolve(self, compiled: "CompiledAutomaton") -> tuple:
        """Bind the automaton's per-state moves to the numpy CSR buffers.

        Per state: ``(moves, checks)`` where each move is ``(offsets,
        targets, next_states)`` — forward and backward merged, absent
        labels contributing nothing — and checks are the compiled nested
        tests ``(sub_automaton, next_state)``.
        """
        key = compiled.cache_key
        resolved = self._resolved.get(key)
        if resolved is None:
            csr = self.csr
            per_state = []
            for state in range(compiled.state_count):
                moves = []
                for lab, targets in compiled.fwd[state].items():
                    buffers = csr.forward_arrays(lab)
                    if buffers is not None:
                        moves.append((buffers[0], buffers[1], targets))
                for lab, targets in compiled.bwd[state].items():
                    buffers = csr.backward_arrays(lab)
                    if buffers is not None:
                        moves.append((buffers[0], buffers[1], targets))
                per_state.append((tuple(moves), compiled.tests[state]))
            resolved = self._resolved[key] = tuple(per_state)
        return resolved

    def _gather(self, np, offsets, targets, node, srcbase):
        """One vectorized CSR expansion of a frontier.

        Returns the flat successor configs (with intra-array duplicates,
        see the module docstring) or ``None`` when the frontier has no
        edges under this label.
        """
        starts = offsets[node]
        degs = offsets[node + 1] - starts
        total = int(degs.sum())
        if not total:
            return None
        # ndarray methods, not np.repeat/np.cumsum: the module-level
        # functions route through a dispatch wrapper that costs more than
        # the kernel's smaller gathers.
        cum = degs.cumsum()
        positions = (starts - (cum - degs)).repeat(degs)
        positions += np.arange(total, dtype=np.int64)
        succ = srcbase.repeat(degs)
        succ += targets[positions]
        return succ

    def _admitted(self, compiled_nested: "CompiledAutomaton", node):
        """Vectorized nested test: the boolean verdict per frontier node.

        Consults the (sub-automaton, node) memo arrays and batches every
        still-unknown node through one recursive :meth:`nonempty_many`.
        """
        np = self.np
        memo = self._test_memo.get(compiled_nested.cache_key)
        if memo is None:
            node_count = self.csr.node_count()
            memo = self._test_memo[compiled_nested.cache_key] = (
                np.zeros(node_count, dtype=bool),
                np.zeros(node_count, dtype=bool),
            )
        known, value = memo
        unknown = np.unique(node[~known[node]])
        stats = self.stats
        if unknown.size:
            if stats is not None:
                stats.nested_tests += int(unknown.size)  # type: ignore[attr-defined]
            value[unknown] = self.nonempty_many(compiled_nested, unknown)
            known[unknown] = True
        elif stats is not None:
            stats.nested_test_cache_hits += 1  # type: ignore[attr-defined]
        return value[node]

    def _run_collect(self, compiled: "CompiledAutomaton", source_ids):
        """Multi-source collect mode: the flat boolean hit mask."""
        np = self.np
        node_count = self.csr.node_count()
        state_count = compiled.state_count
        accepting = compiled.accepting
        resolved = self._resolve(compiled)
        n_src = len(source_ids)
        domain = n_src * node_count
        seen = np.zeros((state_count, domain), dtype=bool)
        start = compiled.start
        init = np.arange(n_src, dtype=np.int64) * node_count
        init += np.asarray(source_ids, dtype=np.int64)
        seen[start, init] = True
        pending: list = [None] * state_count
        pending[start] = [init]
        active = [start]
        while active:
            state = active.pop()
            chunks = pending[state]
            pending[state] = None
            if chunks is None:
                continue
            batch = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
            node = batch % node_count
            srcbase = batch - node
            moves, checks = resolved[state]
            for offsets, targets, next_states in moves:
                succ = self._gather(np, offsets, targets, node, srcbase)
                if succ is None:
                    continue
                for next_state in next_states:
                    row = seen[next_state]
                    fresh = succ[~row[succ]]
                    if fresh.size:
                        row[fresh] = True
                        bucket = pending[next_state]
                        if bucket is None:
                            pending[next_state] = [fresh]
                            active.append(next_state)
                        else:
                            bucket.append(fresh)
            for nested, next_state in checks:
                passed = batch[self._admitted(nested, node)]
                if passed.size:
                    row = seen[next_state]
                    fresh = passed[~row[passed]]
                    if fresh.size:
                        row[fresh] = True
                        bucket = pending[next_state]
                        if bucket is None:
                            pending[next_state] = [fresh]
                            active.append(next_state)
                        else:
                            bucket.append(fresh)
        hits = np.zeros(domain, dtype=bool)
        for state in range(state_count):
            if accepting[state]:
                hits |= seen[state]
        return hits

    def _run_nonempty(self, compiled: "CompiledAutomaton", source_ids):
        """Any-accepting-config mode with per-source early exit."""
        np = self.np
        node_count = self.csr.node_count()
        state_count = compiled.state_count
        accepting = compiled.accepting
        n_src = len(source_ids)
        found = np.zeros(n_src, dtype=bool)
        if accepting[compiled.start]:
            # ε ∈ L: every in-graph source trivially reaches itself.
            found[:] = True
            return found
        resolved = self._resolve(compiled)
        domain = n_src * node_count
        seen = np.zeros((state_count, domain), dtype=bool)
        start = compiled.start
        init = np.arange(n_src, dtype=np.int64) * node_count
        init += np.asarray(source_ids, dtype=np.int64)
        seen[start, init] = True
        pending: list = [None] * state_count
        pending[start] = [init]
        active = [start]
        remaining = n_src
        while active and remaining:
            state = active.pop()
            chunks = pending[state]
            pending[state] = None
            if chunks is None:
                continue
            batch = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
            # Retire configs of sources whose verdict is already settled.
            keep = ~found[batch // node_count]
            if not keep.all():
                batch = batch[keep]
            if not batch.size:
                continue
            node = batch % node_count
            srcbase = batch - node
            moves, checks = resolved[state]
            for offsets, targets, next_states in moves:
                succ = self._gather(np, offsets, targets, node, srcbase)
                if succ is None:
                    continue
                for next_state in next_states:
                    row = seen[next_state]
                    fresh = succ[~row[succ]]
                    if fresh.size:
                        row[fresh] = True
                        if accepting[next_state]:
                            found[fresh // node_count] = True
                            remaining = n_src - int(found.sum())
                            if not remaining:
                                return found
                        else:
                            bucket = pending[next_state]
                            if bucket is None:
                                pending[next_state] = [fresh]
                                active.append(next_state)
                            else:
                                bucket.append(fresh)
            for nested, next_state in checks:
                passed = batch[self._admitted(nested, node)]
                if passed.size:
                    row = seen[next_state]
                    fresh = passed[~row[passed]]
                    if fresh.size:
                        row[fresh] = True
                        if accepting[next_state]:
                            found[fresh // node_count] = True
                            remaining = n_src - int(found.sum())
                            if not remaining:
                                return found
                        else:
                            bucket = pending[next_state]
                            if bucket is None:
                                pending[next_state] = [fresh]
                                active.append(next_state)
                            else:
                                bucket.append(fresh)
        return found
