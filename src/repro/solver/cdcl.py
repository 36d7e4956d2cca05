"""A CDCL SAT solver with incremental assumption-based solving.

Conflict-driven clause learning in the MiniSat lineage, sized for the
formulas the exchange pipeline produces (hundreds to a few thousand
variables), implemented from scratch:

* **two-watched-literal propagation** — each clause watches two of its
  literals; only clauses watching a newly-falsified literal are visited, so
  propagation never rescans (or copies) the clause database the way the
  chronological DPLL oracle in the test suite does;
* **1-UIP clause learning** — conflicts are analysed on the trail back to
  the first unique implication point, with local (reason-subsumption)
  minimisation of the learnt clause;
* **EVSIDS branching** — exponentially-decayed variable activities with a
  lazy max-heap (ties broken by variable index for determinism) and phase
  saving (initial phase ``False``, matching the DPLL model completion);
* **Luby restarts** — the 1, 1, 2, 1, 1, 2, 4, … sequence times a base
  conflict interval;
* **LBD-aware learnt-clause deletion** — learnt clauses carry their literal
  block distance; when the learnt database outgrows its budget the worst
  half (highest LBD, then lowest activity) is dropped, keeping binary,
  low-LBD, and currently-locked (reason) clauses.

The solver is **incremental**: :meth:`CDCLSolver.add_clause` may be called
between :meth:`CDCLSolver.solve` calls, and ``solve(assumptions=[...])``
decides satisfiability under a temporary conjunction of literals without
destroying anything learnt.  Everything the solver learns is implied by the
clause database alone (assumptions enter conflict analysis as decisions,
never as resolvents), so learnt clauses remain valid across both new
clauses and changed assumptions — the property the certain-answer pipeline
exploits to share one solver across a whole probe enumeration.  After an
UNSAT ``solve`` under assumptions, :attr:`CDCLSolver.core` holds a *final
conflict* — a subset of the assumptions that already forces
unsatisfiability — and :meth:`CDCLSolver.minimized_core` shrinks it by
incremental re-solving until every member is needed.

Every SAT verdict is self-checked: the model is asserted against the full
problem-clause database before it is returned.  The solver is fully
deterministic — no randomness anywhere, all ties broken by index.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from heapq import heappop, heappush
from typing import Iterable, Sequence

from repro.solver.cnf import CNF, Clause, Literal, canonical_clause

Model = dict[int, bool]

_RESTART_BASE = 100
"""Conflicts in the first Luby restart interval."""

_VAR_DECAY = 1.0 / 0.95
_CLA_DECAY = 1.0 / 0.999
_RESCALE_LIMIT = 1e100
_RESCALE_FACTOR = 1e-100


class _Learnt(list):
    """A learnt clause: a literal list carrying its LBD and activity.

    Problem clauses are plain Python lists — the propagation loop then
    indexes watched literals without an attribute dereference, and bulk
    ingestion allocates nothing beyond the list copy.  Only learnt clauses
    need metadata, so only they pay for a subclass instance.
    In either representation ``clause[0:2]`` are the watched literals.
    """

    __slots__ = ("lbd", "act")

    def __init__(self, lits: list[int], lbd: int = 0):
        super().__init__(lits)
        self.lbd = lbd
        self.act = 0.0


@dataclass
class CDCLStats:
    """Counters describing the lifetime of one solver instance."""

    solves: int = 0
    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0
    restarts: int = 0
    learned: int = 0
    deleted: int = 0

    def as_dict(self) -> dict[str, int]:
        """Every counter as a plain dict (telemetry folding, reporting).

        >>> CDCLStats(conflicts=4).as_dict()["conflicts"]
        4
        """
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def summary(self) -> str:
        """One-line human-readable rendering."""
        return (
            f"solves={self.solves} decisions={self.decisions} "
            f"propagations={self.propagations} conflicts={self.conflicts} "
            f"restarts={self.restarts} learned={self.learned} "
            f"deleted={self.deleted}"
        )


def _luby(index: int) -> int:
    """The ``index``-th term (0-based) of the Luby sequence 1,1,2,1,1,2,4,…"""
    size, seq = 1, 0
    while size < index + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != index:
        size = (size - 1) // 2
        seq -= 1
        index %= size
    return 1 << seq


class CDCLSolver:
    """An incremental conflict-driven SAT solver.

    >>> cnf = CNF()
    >>> x, y = cnf.new_variable(), cnf.new_variable()
    >>> cnf.add_clause([x, y]); cnf.add_clause([-x]); cnf.add_clause([-y, x])
    >>> CDCLSolver(cnf).solve() is None
    True

    Incremental use — clauses between solves, assumptions per solve:

    >>> solver = CDCLSolver()
    >>> a, b = solver.new_variable(), solver.new_variable()
    >>> solver.add_clause([a, b])
    True
    >>> solver.solve(assumptions=[-a])[b]
    True
    >>> solver.add_clause([-b])
    True
    >>> solver.solve(assumptions=[-a]) is None
    True
    >>> solver.core
    (-1,)
    """

    def __init__(self, cnf: CNF | None = None):
        self.stats = CDCLStats()
        self.ok = True
        self.nvars = 0
        # Per-variable arrays, 1-indexed (slot 0 unused).
        self._assign: list[int] = [0]  # 0 unassigned / +1 true / -1 false
        self._level: list[int] = [0]
        self._reason: list[list | None] = [None]
        self._polarity: list[bool] = [False]
        self._activity: list[float] = [0.0]
        self._seen = bytearray(1)
        self._watches: dict[int, list[list]] = {}
        self._clauses: list[list] = []
        self._learnts: list[_Learnt] = []
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._qhead = 0
        self._heap: list[tuple[float, int]] = []
        self._var_inc = 1.0
        self._cla_inc = 1.0
        self.core: tuple[int, ...] = ()
        """After an UNSAT :meth:`solve` with assumptions: a subset of the
        assumptions that already forces UNSAT (empty when the clause
        database itself is unsatisfiable)."""
        if cnf is not None:
            self.ensure_variables(cnf.variable_count)
            self._ingest(cnf.clauses)

    def _ingest(self, clauses: Iterable[Clause]) -> None:
        """Bulk-load already-canonical clauses (one deferred propagation).

        :class:`~repro.solver.cnf.CNF` canonicalises at insertion time, so
        clauses coming out of it need no re-canonicalisation; units are
        queued and propagated in a single fixpoint pass at the end instead
        of one pass per clause.
        """
        watches = self._watches
        units: list[int] = []
        long_clauses: list[Clause] = []
        for clause in clauses:
            if len(clause) > 1:
                long_clauses.append(clause)
            elif clause:
                units.append(clause[0])
            else:  # the empty clause
                self.ok = False
                return
        wrapped = [list(clause) for clause in long_clauses]
        self._clauses.extend(wrapped)
        for lits in wrapped:
            watches[lits[0]].append(lits)
            watches[lits[1]].append(lits)
        for lit in units:
            if not self._enqueue(lit, None):
                self.ok = False
                return
        if self._propagate() is not None:
            self.ok = False

    # ------------------------------------------------------------------ #
    # Variables and clauses
    # ------------------------------------------------------------------ #

    def new_variable(self) -> int:
        """Allocate and return a fresh variable."""
        self.ensure_variables(self.nvars + 1)
        return self.nvars

    def ensure_variables(self, count: int) -> None:
        """Grow the variable universe to at least ``count`` variables."""
        while self.nvars < count:
            self.nvars += 1
            variable = self.nvars
            self._assign.append(0)
            self._level.append(0)
            self._reason.append(None)
            self._polarity.append(False)
            self._activity.append(0.0)
            self._seen.append(0)
            self._watches[variable] = []
            self._watches[-variable] = []
            heappush(self._heap, (0.0, variable))

    def add_clause(self, literals: Iterable[Literal]) -> bool:
        """Add a clause; may be called between solves.

        Returns ``False`` when the clause database became unsatisfiable at
        the root level (the solver then answers UNSAT forever), ``True``
        otherwise.  Tautologies are dropped, duplicate literals merged, and
        literals already false at the root level removed.
        """
        if not self.ok:
            return False
        canonical = canonical_clause(literals)
        if canonical is None:  # tautology
            return True
        if self._trail_lim:
            self._cancel_until(0)
        top = max((l if l > 0 else -l for l in canonical), default=0)
        if top > self.nvars:
            self.ensure_variables(top)
        assign = self._assign
        lits: list[int] = []
        for lit in canonical:
            value = assign[lit] if lit > 0 else -assign[-lit]
            if value == 1:  # already true at the root: clause is redundant
                return True
            if value == -1:  # false at the root: literal can never help
                continue
            lits.append(lit)
        if not lits:
            self.ok = False
            return False
        if len(lits) == 1:
            if not self._enqueue(lits[0], None) or self._propagate() is not None:
                self.ok = False
                return False
            return True
        self._clauses.append(lits)
        self._watches[lits[0]].append(lits)
        self._watches[lits[1]].append(lits)
        return True

    # ------------------------------------------------------------------ #
    # Solving
    # ------------------------------------------------------------------ #

    def solve(self, assumptions: Sequence[Literal] = ()) -> Model | None:
        """Decide satisfiability under ``assumptions``; return a model or ``None``.

        The model assigns every variable.  On UNSAT, :attr:`core` holds the
        final conflict over the assumptions.  The solver remains usable —
        and keeps everything it has learnt — afterwards.
        """
        self.stats.solves += 1
        self.core = ()
        if not self.ok:
            return None
        assumption_list = [int(a) for a in assumptions]
        for a in assumption_list:
            if a == 0:
                raise ValueError("0 is not a literal")
            self.ensure_variables(a if a > 0 else -a)
        self._cancel_until(0)
        if self._propagate() is not None:
            self.ok = False
            return None
        model = self._search(assumption_list)
        self._cancel_until(0)
        return model

    def minimized_core(self) -> tuple[int, ...]:
        """Deletion-minimize :attr:`core` by incremental re-solving.

        Repeatedly drops one assumption and re-solves; the result is a core
        in which *every* member is needed (dropping any single one makes
        the remainder satisfiable).  Leaves :attr:`core` equal to the
        returned tuple.
        """
        core = list(self.core)
        i = 0
        while i < len(core):
            trial = core[:i] + core[i + 1 :]
            if self.solve(trial) is None:
                core = list(self.core)  # shrank by at least one; restart scan
                i = 0
            else:
                i += 1
        if self.solve(core) is not None:  # pragma: no cover - soundness guard
            raise AssertionError("minimized core is not a core")
        return tuple(core)

    # ------------------------------------------------------------------ #
    # The CDCL loop
    # ------------------------------------------------------------------ #

    def _search(self, assumptions: list[int]) -> Model | None:
        assign = self._assign
        restart_index = 0
        conflicts_left = _RESTART_BASE * _luby(restart_index)
        max_learnts = max(256, 2 * len(self._clauses))
        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.stats.conflicts += 1
                conflicts_left -= 1
                if not self._trail_lim:  # conflict at the root level
                    self.ok = False
                    return None
                learnt, backtrack_level, lbd = self._analyze(conflict)
                self._cancel_until(backtrack_level)
                self._record(learnt, lbd)
                self._decay_activities()
                continue
            if conflicts_left <= 0 and len(self._trail_lim) > len(assumptions):
                # Luby restart (never below the assumption levels).
                self.stats.restarts += 1
                restart_index += 1
                conflicts_left = _RESTART_BASE * _luby(restart_index)
                self._cancel_until(len(assumptions))
                continue
            if len(self._learnts) >= max_learnts:
                self._reduce_learnts()
                max_learnts = int(max_learnts * 1.3)
            level = len(self._trail_lim)
            if level < len(assumptions):
                lit = assumptions[level]
                value = assign[lit] if lit > 0 else -assign[-lit]
                if value == 1:  # already satisfied: open an empty level
                    self._trail_lim.append(len(self._trail))
                    continue
                if value == -1:  # assumption refuted: extract the core
                    self.core = self._analyze_final(lit)
                    return None
                self._trail_lim.append(len(self._trail))
                self._uncheck_assign(lit, None)
                continue
            lit = self._pick_branch()
            if lit == 0:  # every variable assigned: a model
                model = {v: assign[v] > 0 for v in range(1, self.nvars + 1)}
                self._check_model(model)
                return model
            self.stats.decisions += 1
            self._trail_lim.append(len(self._trail))
            self._uncheck_assign(lit, None)

    def _propagate(self) -> list | None:
        """Two-watched-literal unit propagation; return a conflict or ``None``."""
        assign = self._assign
        watches = self._watches
        trail = self._trail
        stats = self.stats
        while self._qhead < len(trail):
            p = trail[self._qhead]
            self._qhead += 1
            stats.propagations += 1
            false_lit = -p
            ws = watches[false_lit]
            i = j = 0
            n = len(ws)
            conflict: list | None = None
            while i < n:
                lits = ws[i]
                i += 1
                if lits[0] == false_lit:
                    lits[0] = lits[1]
                    lits[1] = false_lit
                first = lits[0]
                value = assign[first] if first > 0 else -assign[-first]
                if value == 1:  # clause already satisfied
                    ws[j] = lits
                    j += 1
                    continue
                for k in range(2, len(lits)):
                    other = lits[k]
                    if (assign[other] if other > 0 else -assign[-other]) != -1:
                        lits[1] = other
                        lits[k] = false_lit
                        watches[other].append(lits)
                        break
                else:
                    ws[j] = lits
                    j += 1
                    if value == -1:  # all literals false: conflict
                        conflict = lits
                        self._qhead = len(trail)
                        while i < n:
                            ws[j] = ws[i]
                            j += 1
                            i += 1
                        break
                    self._uncheck_assign(first, lits)
            del ws[j:]
            if conflict is not None:
                return conflict
        return None

    def _analyze(self, conflict: list) -> tuple[list[int], int, int]:
        """1-UIP conflict analysis: return (learnt clause, backjump level, LBD)."""
        seen = self._seen
        level = self._level
        reason = self._reason
        trail = self._trail
        current = len(self._trail_lim)
        learnt: list[int] = [0]
        to_clear: list[int] = []
        counter = 0
        p = 0
        index = len(trail) - 1
        while True:
            if type(conflict) is _Learnt:
                self._bump_clause(conflict)
            for q in conflict if p == 0 else conflict[1:]:
                v = q if q > 0 else -q
                if not seen[v] and level[v] > 0:
                    seen[v] = 1
                    to_clear.append(v)
                    self._bump_var(v)
                    if level[v] >= current:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[trail[index] if trail[index] > 0 else -trail[index]]:
                index -= 1
            p = trail[index]
            index -= 1
            v = p if p > 0 else -p
            seen[v] = 0
            counter -= 1
            if counter == 0:
                break
            conflict = reason[v]  # type: ignore[assignment]  # never None below the UIP
        learnt[0] = -p
        # Local minimisation: drop literals whose reason is fully seen.
        kept = [learnt[0]]
        for q in learnt[1:]:
            r = reason[q if q > 0 else -q]
            if r is None:
                kept.append(q)
                continue
            for lit in r:
                lv = lit if lit > 0 else -lit
                if not seen[lv] and level[lv] > 0:
                    kept.append(q)
                    break
        for v in to_clear:
            seen[v] = 0
        if len(kept) > 1:
            # Move a maximal-level literal into the first watch position.
            best = 1
            for k in range(2, len(kept)):
                if level[kept[k] if kept[k] > 0 else -kept[k]] > (
                    level[kept[best] if kept[best] > 0 else -kept[best]]
                ):
                    best = k
            kept[1], kept[best] = kept[best], kept[1]
            backtrack = level[kept[1] if kept[1] > 0 else -kept[1]]
        else:
            backtrack = 0
        lbd = len({level[q if q > 0 else -q] for q in kept})
        return kept, backtrack, lbd

    def _record(self, learnt: list[int], lbd: int) -> None:
        """Attach the learnt clause and assert its first literal."""
        self.stats.learned += 1
        if len(learnt) == 1:
            self._uncheck_assign(learnt[0], None)
            return
        clause = _Learnt(learnt, lbd)
        self._learnts.append(clause)
        self._watches[learnt[0]].append(clause)
        self._watches[learnt[1]].append(clause)
        self._bump_clause(clause)
        self._uncheck_assign(learnt[0], clause)

    def _analyze_final(self, failed: int) -> tuple[int, ...]:
        """Walk the trail to collect the assumptions implying ``¬failed``."""
        core = {failed}
        if not self._trail_lim:
            return tuple(core)
        seen = self._seen
        level = self._level
        reason = self._reason
        to_clear = [failed if failed > 0 else -failed]
        seen[to_clear[0]] = 1
        for i in range(len(self._trail) - 1, self._trail_lim[0] - 1, -1):
            lit = self._trail[i]
            v = lit if lit > 0 else -lit
            if not seen[v]:
                continue
            r = reason[v]
            if r is None:  # a decision here is an assumption
                core.add(lit)
            else:
                for q in r:
                    qv = q if q > 0 else -q
                    if not seen[qv] and level[qv] > 0:
                        seen[qv] = 1
                        to_clear.append(qv)
            seen[v] = 0
        for v in to_clear:
            seen[v] = 0
        return tuple(sorted(core, key=lambda l: (abs(l), l)))

    # ------------------------------------------------------------------ #
    # Assignment and trail
    # ------------------------------------------------------------------ #

    def _uncheck_assign(self, lit: int, reason: list | None) -> None:
        v = lit if lit > 0 else -lit
        self._assign[v] = 1 if lit > 0 else -1
        self._level[v] = len(self._trail_lim)
        self._reason[v] = reason
        self._polarity[v] = lit > 0
        self._trail.append(lit)

    def _enqueue(self, lit: int, reason: list | None) -> bool:
        v = lit if lit > 0 else -lit
        value = self._assign[v]
        if value != 0:
            return (value == 1) == (lit > 0)
        self._uncheck_assign(lit, reason)
        return True

    def _cancel_until(self, level: int) -> None:
        if len(self._trail_lim) <= level:
            return
        bound = self._trail_lim[level]
        assign = self._assign
        reason = self._reason
        activity = self._activity
        heap = self._heap
        trail = self._trail
        for i in range(len(trail) - 1, bound - 1, -1):
            lit = trail[i]
            v = lit if lit > 0 else -lit
            assign[v] = 0
            reason[v] = None
            heappush(heap, (-activity[v], v))
        del trail[bound:]
        del self._trail_lim[level:]
        self._qhead = bound

    def _pick_branch(self) -> int:
        """Return the decision literal with maximal activity, or 0 when done."""
        assign = self._assign
        activity = self._activity
        heap = self._heap
        while heap:
            act, v = heappop(heap)
            if assign[v] == 0 and -act == activity[v]:
                return v if self._polarity[v] else -v
        for v in range(1, self.nvars + 1):  # heap starved by staleness
            if assign[v] == 0:
                return v if self._polarity[v] else -v
        return 0

    # ------------------------------------------------------------------ #
    # Heuristic bookkeeping
    # ------------------------------------------------------------------ #

    def _bump_var(self, v: int) -> None:
        activity = self._activity
        activity[v] += self._var_inc
        if activity[v] > _RESCALE_LIMIT:
            for u in range(1, self.nvars + 1):
                activity[u] *= _RESCALE_FACTOR
            self._var_inc *= _RESCALE_FACTOR
            # Old heap entries are stale after a rescale; re-seed.
            self._heap = [
                (-activity[u], u) for u in range(1, self.nvars + 1)
                if self._assign[u] == 0
            ]
            self._heap.sort()
            return
        if self._assign[v] == 0:
            heappush(self._heap, (-activity[v], v))

    def _bump_clause(self, clause: _Learnt) -> None:
        clause.act += self._cla_inc
        if clause.act > 1e20:
            for c in self._learnts:
                c.act *= 1e-20
            self._cla_inc *= 1e-20

    def _decay_activities(self) -> None:
        self._var_inc *= _VAR_DECAY
        self._cla_inc *= _CLA_DECAY

    def _reduce_learnts(self) -> None:
        """Drop the worst half of the learnt clauses (LBD, then activity)."""
        reason = self._reason
        locked = {
            id(reason[v])
            for v in range(1, self.nvars + 1)
            if reason[v] is not None
        }
        ranked = sorted(
            self._learnts, key=lambda c: (-c.lbd, c.act)
        )  # worst first
        budget = len(ranked) // 2
        removed: set[int] = set()
        for clause in ranked:
            if len(removed) >= budget:
                break
            if (
                len(clause) == 2
                or clause.lbd <= 2
                or id(clause) in locked
            ):
                continue
            removed.add(id(clause))
            # Detach by identity: clauses are lists, and list.remove would
            # match by value — possibly unhooking a different, equal clause.
            for watched in (clause[0], clause[1]):
                ws = self._watches[watched]
                for idx in range(len(ws)):
                    if ws[idx] is clause:
                        del ws[idx]
                        break
        if removed:
            self.stats.deleted += len(removed)
            self._learnts = [c for c in self._learnts if id(c) not in removed]

    # ------------------------------------------------------------------ #
    # Self-check
    # ------------------------------------------------------------------ #

    def _check_model(self, model: Model) -> None:
        """Assert the model satisfies every problem clause (cheap, one pass)."""
        for clause in self._clauses:
            for lit in clause:
                if model[lit if lit > 0 else -lit] == (lit > 0):
                    break
            else:  # pragma: no cover - would be a solver bug
                raise AssertionError(f"model violates clause {clause}")


def solve_cnf_cdcl(cnf: CNF) -> Model | None:
    """One-shot convenience wrapper around :class:`CDCLSolver`."""
    return CDCLSolver(cnf).solve()
