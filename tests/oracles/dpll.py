"""A DPLL SAT solver — the differential oracle for the CDCL solver.

Implements the classic Davis–Putnam–Logemann–Loveland procedure with:

* unit propagation to fixpoint,
* pure-literal elimination,
* branching on the variable with the most clause occurrences (ties broken
  by index for determinism),
* plain chronological backtracking — deliberately so: the production
  solver is the conflict-driven :mod:`repro.solver.cdcl`, and this
  module's value is being a *simple, independent* implementation whose
  SAT/UNSAT verdicts the CDCL solver must match on every formula
  (the ``dpll_pipelines`` test fixture runs the whole certain-answer
  pipeline on it).

A brute-force :func:`enumerate_models` doubles as the second oracle in the
property tests: both solvers' verdicts must agree with exhaustive
enumeration on every random small formula.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterator, Sequence

from repro.solver.cnf import CNF, Clause

Model = dict[int, bool]


@dataclass
class SolverStats:
    """Counters describing one solver run."""

    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0

    def as_dict(self) -> dict[str, int]:
        """Every counter as a plain dict (telemetry folding, reporting).

        >>> SolverStats(decisions=2).as_dict()["decisions"]
        2
        """
        return {f.name: getattr(self, f.name) for f in fields(self)}


class DPLLSolver:
    """A reusable DPLL solver instance.

    >>> cnf = CNF()
    >>> x, y = cnf.new_variable(), cnf.new_variable()
    >>> cnf.add_clause([x, y]); cnf.add_clause([-x]); cnf.add_clause([-y, x])
    >>> DPLLSolver(cnf).solve() is None
    True
    """

    def __init__(self, cnf: CNF):
        self.cnf = cnf
        self.stats = SolverStats()
        self.core: tuple[int, ...] = ()
        """After an UNSAT :meth:`solve` under assumptions: the full
        assumption tuple (the *trivial* core — DPLL performs no conflict
        analysis, so it cannot do better; the CDCL solver's
        :attr:`~repro.solver.cdcl.CDCLSolver.core` is the precise one)."""

    def solve(self, assumptions: Sequence[int] = ()) -> Model | None:
        """Return a satisfying model, or ``None`` when unsatisfiable.

        ``assumptions`` are literals temporarily forced true for this call
        (the oracle-side mirror of the CDCL incremental interface — the
        solver itself remains stateless between calls).  The returned model
        assigns every variable of the formula (variables untouched by the
        search are completed with ``False``).

        Internally the assignment lives in a flat array indexed by variable
        with an undo *trail*, so branching costs O(1) instead of one dict
        copy per decision level.
        """
        self.core = ()
        assignment: list[bool | None] = [None] * (self.cnf.variable_count + 1)
        for literal in assumptions:
            if literal == 0:
                raise ValueError("0 is not a literal")
            variable, value = abs(literal), literal > 0
            if variable >= len(assignment):
                assignment.extend([None] * (variable + 1 - len(assignment)))
            if assignment[variable] is not None and assignment[variable] != value:
                self.core = tuple(assumptions)
                return None  # two assumptions contradict each other
            assignment[variable] = value
        if not self._search(list(self.cnf.clauses), assignment, []):
            if assumptions:
                self.core = tuple(assumptions)
            return None
        return {
            variable: bool(assignment[variable])
            for variable in range(1, self.cnf.variable_count + 1)
        }

    # ------------------------------------------------------------------ #

    def _search(
        self,
        clauses: list[Clause],
        assignment: list[bool | None],
        trail: list[int],
    ) -> bool:
        """Satisfy ``clauses``; True leaves the model in ``assignment``.

        On failure every variable assigned below this call is unwound from
        the trail, so the caller's assignment state is restored exactly.
        """
        mark = len(trail)
        simplified = self._propagate(clauses, assignment, trail)
        if simplified is None:
            self.stats.conflicts += 1
            self._undo(assignment, trail, mark)
            return False
        clauses = simplified
        if not clauses:
            return True

        self._assign_pure_literals(clauses, assignment, trail)
        clauses = [c for c in clauses if not self._clause_true(c, assignment)]
        if not clauses:
            return True

        variable, first = self._pick_branch_variable(clauses)
        self.stats.decisions += 1
        for value in (first, not first):
            level = len(trail)
            assignment[variable] = value
            trail.append(variable)
            if self._search(clauses, assignment, trail):
                return True
            self._undo(assignment, trail, level)
        self._undo(assignment, trail, mark)
        return False

    @staticmethod
    def _undo(assignment: list[bool | None], trail: list[int], mark: int) -> None:
        while len(trail) > mark:
            assignment[trail.pop()] = None

    def _propagate(
        self,
        clauses: list[Clause],
        assignment: list[bool | None],
        trail: list[int],
    ) -> list[Clause] | None:
        """Unit-propagate; return simplified clauses or ``None`` on conflict.

        All unit clauses found in one simplification pass are asserted
        together before re-scanning (two units contradicting each other are
        an immediate conflict), so a chain of ``k`` units costs ``O(k)``
        passes in the worst case but one pass in the common one — not the
        ``k`` full re-scans the one-unit-at-a-time loop performed.
        """
        while True:
            remaining: list[Clause] = []
            units: list[int] = []
            for clause in clauses:
                reduced: list[int] = []
                satisfied = False
                for literal in clause:
                    value = assignment[literal if literal > 0 else -literal]
                    if value is None:
                        reduced.append(literal)
                    elif value == (literal > 0):
                        satisfied = True
                        break
                if satisfied:
                    continue
                if not reduced:
                    return None  # conflict: clause fully falsified
                if len(reduced) == 1:
                    units.append(reduced[0])
                remaining.append(tuple(reduced))
            if not units:
                return remaining
            for unit in units:
                variable, value = abs(unit), unit > 0
                previous = assignment[variable]
                if previous is not None:
                    if previous != value:
                        return None  # two unit clauses demand opposite values
                    continue
                assignment[variable] = value
                trail.append(variable)
                self.stats.propagations += 1
            clauses = remaining

    @staticmethod
    def _clause_true(clause: Clause, assignment: list[bool | None]) -> bool:
        return any(
            assignment[abs(literal)] == (literal > 0)
            for literal in clause
            if assignment[abs(literal)] is not None
        )

    @staticmethod
    def _assign_pure_literals(
        clauses: list[Clause],
        assignment: list[bool | None],
        trail: list[int],
    ) -> None:
        polarity: dict[int, int] = {}  # var -> +1 / -1 / 0 (mixed)
        for clause in clauses:
            for literal in clause:
                variable = abs(literal)
                if assignment[variable] is None:
                    sign = 1 if literal > 0 else -1
                    seen = polarity.get(variable)
                    if seen is None:
                        polarity[variable] = sign
                    elif seen != sign:
                        polarity[variable] = 0
        for variable, sign in polarity.items():
            if sign:
                assignment[variable] = sign > 0
                trail.append(variable)

    @staticmethod
    def _pick_branch_variable(clauses: list[Clause]) -> tuple[int, bool]:
        """Choose the branch variable and which value to try first.

        The variable with the most clause occurrences wins (ties broken by
        index for determinism); ``True`` is tried first, matching the
        original search order.
        """
        occurrences: dict[int, int] = {}
        for clause in clauses:
            for literal in clause:
                variable = abs(literal)
                occurrences[variable] = occurrences.get(variable, 0) + 1
        best = min(occurrences, key=lambda v: (-occurrences[v], v))
        return best, True


def solve_cnf(cnf: CNF) -> Model | None:
    """One-shot convenience wrapper around :class:`DPLLSolver`."""
    return DPLLSolver(cnf).solve()


class IncrementalDPLL:
    """The incremental-solver interface, answered by from-scratch DPLL runs.

    This is the differential oracle for :class:`~repro.solver.cdcl.CDCLSolver`
    in the certain-answer pipeline: it exposes the same ``add_clause`` /
    ``solve(assumptions=...)`` surface, but keeps no state between solves —
    every call re-runs the chronological DPLL on the accumulated clause
    set, so its verdicts depend on nothing but the formula.  Swapping it
    into the pipeline must never change an answer, only the speed.
    """

    def __init__(self, cnf: CNF | None = None):
        self._cnf = CNF()
        if cnf is not None:
            self._cnf.variable_count = cnf.variable_count
            self._cnf.clauses = list(cnf.clauses)
        self.core: tuple[int, ...] = ()
        self.stats = SolverStats()
        self.ok = True

    @property
    def nvars(self) -> int:
        """The number of allocated variables."""
        return self._cnf.variable_count

    def new_variable(self) -> int:
        """Allocate and return a fresh variable."""
        return self._cnf.new_variable()

    def ensure_variables(self, count: int) -> None:
        """Grow the variable universe to at least ``count`` variables."""
        if self._cnf.variable_count < count:
            self._cnf.variable_count = count

    def add_clause(self, literals) -> bool:
        """Append a clause (canonicalised by :meth:`CNF.add_clause`)."""
        clause = list(literals)  # may be a one-shot iterable; read it once
        self.ensure_variables(max((abs(l) for l in clause), default=0))
        self._cnf.add_clause(clause)
        return True

    def solve(self, assumptions=()) -> Model | None:
        """Run a fresh DPLL search under ``assumptions``."""
        solver = DPLLSolver(self._cnf)
        model = solver.solve(assumptions)
        self.core = solver.core
        self.stats.decisions += solver.stats.decisions
        self.stats.propagations += solver.stats.propagations
        self.stats.conflicts += solver.stats.conflicts
        if model is None and not assumptions:
            self.ok = False
        return model


def enumerate_models(cnf: CNF, limit: int | None = None) -> Iterator[Model]:
    """Yield every model of ``cnf`` by exhaustive enumeration.

    Exponential in the variable count — strictly an oracle for tests and for
    tiny formulas (≤ ~20 variables).
    """
    n = cnf.variable_count
    produced = 0
    for bits in range(1 << n):
        model = {v: bool(bits >> (v - 1) & 1) for v in range(1, n + 1)}
        if cnf.is_satisfied_by(model):
            yield model
            produced += 1
            if limit is not None and produced >= limit:
                return
