"""The generated-code (specializing) NRE search.

A generic product search walks every automaton through one interpreter
loop: per drained state it unpacks resolved move tuples, iterates hop
lists, and rebinds buffers — dispatch that is pure overhead once the
automaton is fixed.  This module removes that dispatch the way query
compilers do when they lower automata to code: each
:class:`~repro.graph.automaton.CompiledAutomaton` is lowered **once** to
a specialized Python source string in which

* the per-state dispatch is unrolled into direct ``if state == k:``
  branches, one per *live* state (states reachable from the start state
  through non-ε moves — dead states get no code at all);
* every move is straight-line code over its own label-resolved CSR
  buffer locals (``o3``/``g3``), with the flat-config bases
  (``state × |V|``) hoisted and the degree-1 fast path inlined;
* nested ``[·]`` tests become calls to memoised helper closures passed
  in as ``tests[k]`` — the memo lives in the driving
  :class:`CodegenSearch`, shared across every caller of the same
  sub-automaton;
* the three query modes get three *separate* functions — ``collect``,
  ``nonempty``, ``holds`` — so mode checks vanish from the hot loop and
  each variant keeps its own early exits (``nonempty`` returns on the
  first edge into an accepting state without even marking it visited;
  ``holds`` tests the target at insert time).

The source string is compiled with :func:`compile`/``exec`` once per
process and — because it is a plain string — pickles through the on-disk
:mod:`repro.graph.autocache` (format version 2), so a warm process skips
both Thompson compilation *and* code generation: it just ``exec``\\s the
cached source.

:class:`~repro.graph.automaton._Runner` routes every single-pair
``holds`` probe on a frozen CSR graph here, and, when numpy is absent,
every sweep as well (:mod:`repro.kernels`); dict-backed graphs run the
runner's generic hash-indexed search.  Codegen needs no numpy.  Answers
are byte-identical to the vector search and to the reference evaluator
on every query — pinned by the differential suite in
``tests/test_properties/test_kernel_properties.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.graph.automaton import CompiledAutomaton

CODEGEN_VERSION = 1
"""Bump on any change to the generated source's shape or calling
convention; stamped into every generated module so a loader can refuse
foreign source (the autocache directory version already isolates
formats — this is belt and braces for debugging)."""


@dataclass(frozen=True)
class _Plan:
    """The deterministic lowering plan shared by generator and binder.

    Everything the generated code's *caller* must reproduce —
    buffer order, nested-test order — is derived from this one
    structure, so a source string restored from the on-disk cache
    binds identically to one generated in-process.
    """

    live: tuple[int, ...]  # live state ids, dense index = position
    accepting: tuple[bool, ...]  # per dense index
    moves: tuple[tuple[tuple[int, tuple[int, ...]], ...], ...]
    # per dense index: ((buffer_index, dense_targets), ...)
    checks: tuple[tuple[tuple[int, int], ...], ...]
    # per dense index: ((test_index, dense_target), ...)
    buffers: tuple[tuple[str, str], ...]  # (label, "fwd"|"bwd") per buffer
    tests: tuple["CompiledAutomaton", ...]  # sub-automata by test index


def _plan_for(compiled: "CompiledAutomaton") -> _Plan:
    """Compute the lowering plan (memoised on the automaton instance).

    Live-state discovery is a BFS from the start state over non-ε move
    and test targets, in the automaton's own (deterministic, pickled)
    iteration order — the same walk :func:`source_for` compiles and
    :class:`CodegenSearch` binds, which is what keeps cached source and
    fresh binders aligned.
    """
    cached = compiled.__dict__.get("_codegen_plan")
    if cached is not None:
        return cached
    dense: dict[int, int] = {compiled.start: 0}
    order: list[int] = [compiled.start]
    cursor = 0
    while cursor < len(order):
        state = order[cursor]
        cursor += 1
        for targets in compiled.fwd[state].values():
            for target in targets:
                if target not in dense:
                    dense[target] = len(order)
                    order.append(target)
        for targets in compiled.bwd[state].values():
            for target in targets:
                if target not in dense:
                    dense[target] = len(order)
                    order.append(target)
        for _nested, target in compiled.tests[state]:
            if target not in dense:
                dense[target] = len(order)
                order.append(target)
    buffer_index: dict[tuple[str, str], int] = {}
    tests: list["CompiledAutomaton"] = []
    moves: list[tuple[tuple[int, tuple[int, ...]], ...]] = []
    checks: list[tuple[tuple[int, int], ...]] = []
    for state in order:
        state_moves: list[tuple[int, tuple[int, ...]]] = []
        for direction, table in (("fwd", compiled.fwd[state]), ("bwd", compiled.bwd[state])):
            for lab, targets in table.items():
                key = (lab, direction)
                index = buffer_index.setdefault(key, len(buffer_index))
                state_moves.append((index, tuple(dense[t] for t in targets)))
        state_checks: list[tuple[int, int]] = []
        for nested, target in compiled.tests[state]:
            state_checks.append((len(tests), dense[target]))
            tests.append(nested)
        moves.append(tuple(state_moves))
        checks.append(tuple(state_checks))
    plan = _Plan(
        live=tuple(order),
        accepting=tuple(compiled.accepting[s] for s in order),
        moves=tuple(moves),
        checks=tuple(checks),
        buffers=tuple(key for key, _ in sorted(buffer_index.items(), key=lambda kv: kv[1])),
        tests=tuple(tests),
    )
    object.__setattr__(compiled, "_codegen_plan", plan)
    return plan


# --------------------------------------------------------------------- #
# Source generation
# --------------------------------------------------------------------- #


def _cfg(dense: int, expr: str) -> str:
    """The flat-config expression ``dense × |V| + expr``, base folded."""
    return expr if dense == 0 else f"b{dense} + {expr}"


def _emit_prologue(lines: list[str], plan: _Plan, mode: str) -> None:
    """Shared function prologue: buffer locals, bases, seen, worklist."""
    emit = lines.append
    if plan.buffers:
        unpack = ", ".join(f"(o{i}, g{i})" for i in range(len(plan.buffers)))
        emit(f"    {unpack}, = b")
    for index in range(len(plan.tests)):
        emit(f"    t{index} = tests[{index}]")
    state_count = len(plan.live)
    emit(f"    seen = bytearray({state_count} * V)")
    for dense in range(1, state_count):
        emit(f"    b{dense} = {dense} * V" if dense > 1 else f"    b{dense} = V")
    emit("    seen[src] = 1")
    emit(f"    pending = [None] * {state_count}")
    emit("    pending[0] = [src]")
    emit("    active = [0]")
    emit("    active_append = active.append")
    if mode == "collect":
        emit("    hit_mask = bytearray(V)")
        emit("    hits = []")
        emit("    hits_append = hits.append")


def _emit_move(
    lines: list[str],
    buffer: int,
    dense_target: int,
    plan: _Plan,
    mode: str,
    pad: str,
) -> None:
    """One move's inlined CSR expansion into ``w{dense_target}``."""
    emit = lines.append
    accepting = plan.accepting[dense_target]
    if mode == "nonempty" and accepting:
        # Any successor at all lands in an accepting state: the verdict
        # is settled without touching the visited map.
        emit(f"{pad}for n in batch:")
        emit(f"{pad}    if o{buffer}[n] != o{buffer}[n + 1]:")
        emit(f"{pad}        return True")
        return
    found = mode == "holds" and accepting
    emit(f"{pad}a = w{dense_target}.append")
    emit(f"{pad}for n in batch:")
    emit(f"{pad}    lo = o{buffer}[n]; hi = o{buffer}[n + 1]")
    emit(f"{pad}    if lo != hi:")
    emit(f"{pad}        if hi - lo == 1:")
    emit(f"{pad}            t = g{buffer}[lo]")
    emit(f"{pad}            c = {_cfg(dense_target, 't')}")
    emit(f"{pad}            if not seen[c]:")
    emit(f"{pad}                seen[c] = 1")
    if found:
        emit(f"{pad}                if t == tgt:")
        emit(f"{pad}                    return True")
    emit(f"{pad}                a(t)")
    emit(f"{pad}        else:")
    emit(f"{pad}            for t in g{buffer}[lo:hi]:")
    emit(f"{pad}                c = {_cfg(dense_target, 't')}")
    emit(f"{pad}                if not seen[c]:")
    emit(f"{pad}                    seen[c] = 1")
    if found:
        emit(f"{pad}                    if t == tgt:")
        emit(f"{pad}                        return True")
    emit(f"{pad}                    a(t)")


def _emit_check(
    lines: list[str],
    test_index: int,
    dense_target: int,
    plan: _Plan,
    mode: str,
    pad: str,
) -> None:
    """One nested test's memoised-helper call into ``w{dense_target}``."""
    emit = lines.append
    accepting = plan.accepting[dense_target]
    if mode == "nonempty" and accepting:
        emit(f"{pad}for n in batch:")
        emit(f"{pad}    if t{test_index}(n):")
        emit(f"{pad}        return True")
        return
    found = mode == "holds" and accepting
    emit(f"{pad}a = w{dense_target}.append")
    emit(f"{pad}for n in batch:")
    emit(f"{pad}    c = {_cfg(dense_target, 'n')}")
    emit(f"{pad}    if not seen[c] and t{test_index}(n):")
    emit(f"{pad}        seen[c] = 1")
    if found:
        emit(f"{pad}        if n == tgt:")
        emit(f"{pad}            return True")
    emit(f"{pad}        a(n)")


def _emit_state(lines: list[str], dense: int, plan: _Plan, mode: str) -> None:
    """One live state's drain branch inside the dispatch chain."""
    emit = lines.append
    keyword = "if" if dense == 0 else "elif"
    emit(f"        {keyword} state == {dense}:")
    pad = "            "
    body_open = len(lines)
    if plan.accepting[dense] and mode == "collect":
        emit(f"{pad}for n in batch:")
        emit(f"{pad}    if not hit_mask[n]:")
        emit(f"{pad}        hit_mask[n] = 1")
        emit(f"{pad}        hits_append(n)")
    # Which states does this branch insert into?  One staging list per
    # target, flushed into the shared worklist after all moves ran.
    inserts: list[int] = []
    for _buffer, dense_targets in plan.moves[dense]:
        for target in dense_targets:
            skip = mode == "nonempty" and plan.accepting[target]
            if not skip and target not in inserts:
                inserts.append(target)
    for _test_index, target in plan.checks[dense]:
        skip = mode == "nonempty" and plan.accepting[target]
        if not skip and target not in inserts:
            inserts.append(target)
    for target in inserts:
        emit(f"{pad}w{target} = []")
    for buffer, dense_targets in plan.moves[dense]:
        for target in dense_targets:
            _emit_move(lines, buffer, target, plan, mode, pad)
    for test_index, target in plan.checks[dense]:
        _emit_check(lines, test_index, target, plan, mode, pad)
    for target in inserts:
        emit(f"{pad}if w{target}:")
        emit(f"{pad}    q = pending[{target}]")
        emit(f"{pad}    if q is None:")
        emit(f"{pad}        pending[{target}] = w{target}")
        emit(f"{pad}        active_append({target})")
        emit(f"{pad}    else:")
        emit(f"{pad}        q.extend(w{target})")
    if len(lines) == body_open:
        emit(f"{pad}pass")


def _emit_function(plan: _Plan, mode: str) -> list[str]:
    """Emit one mode's full function definition."""
    lines: list[str] = []
    emit = lines.append
    if mode == "holds":
        emit("def holds(src, tgt, V, b, tests):")
    else:
        emit(f"def {mode}(src, V, b, tests):")
    if mode == "nonempty" and plan.accepting[0]:
        # ε ∈ L: every in-graph source trivially reaches itself.
        emit("    return True")
        return lines
    if mode == "holds" and plan.accepting[0]:
        emit("    if src == tgt:")
        emit("        return True")
    _emit_prologue(lines, plan, mode)
    emit("    while active:")
    emit("        state = active.pop()")
    emit("        batch = pending[state]")
    emit("        if batch is None:")
    emit("            continue")
    emit("        pending[state] = None")
    for dense in range(len(plan.live)):
        if mode == "nonempty" and plan.accepting[dense]:
            # Unreachable: inserts into accepting states returned already
            # and the (non-accepting, checked above) start state is dense 0.
            continue
        _emit_state(lines, dense, plan, mode)
    if mode == "collect":
        emit("    return hits")
    else:
        emit("    return False")
    return lines


def source_for(compiled: "CompiledAutomaton") -> str:
    """Return the specialized module source (memoised on the instance).

    The string is pure metadata plus three function definitions — no
    imports, no captured objects — so it pickles through the autocache
    and ``exec``\\s identically in any process.
    """
    cached = compiled.__dict__.get("_codegen_source")
    if cached is not None:
        return cached
    plan = _plan_for(compiled)
    lines = [
        f"CODEGEN_VERSION = {CODEGEN_VERSION}",
        f"BUFFERS = {plan.buffers!r}",
        f"TEST_COUNT = {len(plan.tests)}",
        f"STATE_COUNT = {len(plan.live)}",
    ]
    for mode in ("collect", "nonempty", "holds"):
        lines.append("")
        lines.extend(_emit_function(plan, mode))
    source = "\n".join(lines) + "\n"
    object.__setattr__(compiled, "_codegen_source", source)
    return source


def ensure_sources(compiled: "CompiledAutomaton") -> None:
    """Pre-generate source for ``compiled`` and every nested automaton.

    Called by :func:`repro.graph.autocache.store` so the persisted pickle
    carries the generated source of the whole test tree — a warm process
    then skips code generation entirely.
    """
    source_for(compiled)
    for nested in _plan_for(compiled).tests:
        ensure_sources(nested)


def validate_sources(compiled: "CompiledAutomaton") -> None:
    """Drop any persisted source stamped by a different codegen version.

    Called by :func:`repro.graph.autocache.load` on restored automata:
    the cache directory's format version protects the *pickle* shape, but
    a generated-source change within one format would otherwise keep
    serving stale code forever (the ``_codegen_source`` memo wins over
    regeneration).  A mismatched stamp simply costs one regeneration.
    """
    stamp = f"CODEGEN_VERSION = {CODEGEN_VERSION}\n"
    stack = [compiled]
    seen: set[int] = set()
    while stack:
        automaton = stack.pop()
        if id(automaton) in seen:
            continue
        seen.add(id(automaton))
        source = automaton.__dict__.get("_codegen_source")
        if source is not None and not source.startswith(stamp):
            automaton.__dict__.pop("_codegen_source", None)
        for checks in automaton.tests:
            for nested, _target in checks:
                stack.append(nested)


@dataclass(frozen=True)
class CodegenProgram:
    """The executed form of one automaton's generated module."""

    collect: object  # (src, V, b, tests) -> list[int]
    nonempty: object  # (src, V, b, tests) -> bool
    holds: object  # (src, tgt, V, b, tests) -> bool
    plan: _Plan


def program_for(compiled: "CompiledAutomaton") -> CodegenProgram:
    """Compile and exec the generated source (once per process/instance).

    The code object and function objects are never pickled — only the
    source string round-trips; restoring in another process re-``exec``\\s
    it here on first use.
    """
    cached = compiled.__dict__.get("_codegen_program")
    if cached is not None:
        return cached
    plan = _plan_for(compiled)
    source = source_for(compiled)
    namespace: dict = {"__builtins__": __builtins__}
    code = compile(source, f"<nre-codegen-{compiled.cache_key}>", "exec")
    exec(code, namespace)  # noqa: S102 - our own generated source
    program = CodegenProgram(
        collect=namespace["collect"],
        nonempty=namespace["nonempty"],
        holds=namespace["holds"],
        plan=plan,
    )
    object.__setattr__(compiled, "_codegen_program", program)
    return program


class CodegenSearch:
    """Drives generated-code searches over one frozen CSR backend.

    The codegen twin of :class:`repro.graph.vector.VectorSearch`: owned
    by a :class:`~repro.graph.automaton._Runner`, holding the per-graph
    buffer bindings and the nested-test memo tables.  ``stats`` is the
    runner's duck-typed counter object (may be ``None``).
    """

    def __init__(self, csr, stats: object | None = None):
        self.csr = csr
        self.stats = stats
        # automaton cache_key -> (buffers tuple, tests tuple) with this
        # graph's CSR list buffers bound in the plan's buffer order.
        self._bound: dict[int, tuple] = {}
        # automaton cache_key -> {node_id: bool} nested-test memo.
        self._memo: dict[int, dict[int, bool]] = {}
        # Shared all-zero offsets for labels absent from the graph: the
        # generated loops read ``o[n]``/``o[n+1]`` unconditionally.
        self._zeros: list[int] | None = None

    # ------------------------------------------------------------------ #
    # Public modes (the _Runner entry points)
    # ------------------------------------------------------------------ #

    def collect(self, compiled: "CompiledAutomaton", source_id: int) -> list[int]:
        """Accepted node ids reachable from ``source_id`` (unordered)."""
        program = program_for(compiled)
        buffers, tests = self._binding(compiled, program)
        return program.collect(source_id, self.csr.node_count(), buffers, tests)

    def nonempty(self, compiled: "CompiledAutomaton", source_id: int) -> bool:
        """Whether any node is reachable — the nested-test question."""
        program = program_for(compiled)
        buffers, tests = self._binding(compiled, program)
        return program.nonempty(source_id, self.csr.node_count(), buffers, tests)

    def holds(
        self, compiled: "CompiledAutomaton", source_id: int, target_id: int
    ) -> bool:
        """Single-pair mode with insert-time early exit on the target."""
        program = program_for(compiled)
        buffers, tests = self._binding(compiled, program)
        return program.holds(
            source_id, target_id, self.csr.node_count(), buffers, tests
        )

    # ------------------------------------------------------------------ #
    # Binding
    # ------------------------------------------------------------------ #

    def _binding(
        self, compiled: "CompiledAutomaton", program: CodegenProgram
    ) -> tuple:
        key = compiled.cache_key
        bound = self._bound.get(key)
        if bound is None:
            csr = self.csr
            buffers = []
            for lab, direction in program.plan.buffers:
                lists = (
                    csr.forward_lists(lab)
                    if direction == "fwd"
                    else csr.backward_lists(lab)
                )
                if lists is None:
                    if self._zeros is None:
                        self._zeros = [0] * (csr.node_count() + 1)
                    lists = (self._zeros, ())
                buffers.append(lists)
            tests = tuple(
                self._make_test(nested) for nested in program.plan.tests
            )
            bound = self._bound[key] = (tuple(buffers), tests)
        return bound

    def _make_test(self, nested: "CompiledAutomaton"):
        """A memoised nested-test closure over this graph's binding."""
        memo = self._memo.setdefault(nested.cache_key, {})
        stats = self.stats
        memo_get = memo.get
        run = self.nonempty

        def test(node_id: int) -> bool:
            verdict = memo_get(node_id)
            if verdict is None:
                if stats is not None:
                    stats.nested_tests += 1  # type: ignore[attr-defined]
                verdict = memo[node_id] = run(nested, node_id)
            elif stats is not None:
                stats.nested_test_cache_hits += 1  # type: ignore[attr-defined]
            return verdict

        return test


def preview_source(expr_or_automaton) -> str:
    """Return the generated source for an NRE or compiled automaton.

    Debugging/teaching helper (used by the docs): accepts an NRE node,
    an :class:`~repro.graph.automaton.NREAutomaton`, or a
    :class:`~repro.graph.automaton.CompiledAutomaton`.

    >>> from repro.graph.parser import parse_nre
    >>> src = preview_source(parse_nre("a . b"))
    >>> "def collect" in src and "def holds" in src
    True
    """
    from repro.graph.automaton import NREAutomaton, compile_nre
    from repro.graph.nre import NRE

    if isinstance(expr_or_automaton, NRE):
        expr_or_automaton = compile_nre(expr_or_automaton)
    if isinstance(expr_or_automaton, NREAutomaton):
        expr_or_automaton = expr_or_automaton.compiled()
    return source_for(expr_or_automaton)
