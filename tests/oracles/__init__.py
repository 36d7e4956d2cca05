"""Differential oracles: simple, independent reference implementations.

Each production algorithm in :mod:`repro` has one execution path; the
slower reference it is pinned against lives here, outside the library,
so no user-settable option can select it:

* :mod:`oracles.dpll` — chronological DPLL (:class:`DPLLSolver`, the
  stateless incremental adapter :class:`IncrementalDPLL`,
  :func:`solve_cnf`) and the brute-force :func:`enumerate_models`,
  against :class:`repro.solver.cdcl.CDCLSolver`;
* :mod:`oracles.reference_eval` — the seed's set-algebraic pair-set
  evaluator (:func:`~oracles.reference_eval.evaluate_nre`), against the
  successor-map algebra :mod:`repro.graph.eval`;
* :mod:`oracles.reference_engine` — :class:`ReferenceEngine`, that
  evaluator behind the :class:`repro.engine.query.QueryEngine` interface;
* :mod:`oracles.sameas_journal` — :func:`saturate_journal`, the
  edge-at-a-time sameAs saturation, against the union-find
  :func:`repro.chase.sameas_chase.saturate_sameas`;
* :mod:`oracles.relational_chase` — :func:`chase_relational_sequential`,
  the edge-at-a-time §3.1 chase, against the tuple chase
  :func:`repro.chase.relational_chase.chase_relational`;
* :mod:`oracles.reference_solution` — the per-match
  :func:`~oracles.reference_solution.solution_violations` and the
  brute-force :func:`~oracles.reference_solution.egd_violation_set`,
  against the one-pass :func:`repro.core.solution.solution_violations`;
* :mod:`oracles.cnre_search` — the nested-loop
  :func:`~oracles.cnre_search.cnre_homomorphisms`, every atom scanning
  its whole pair set, against the join executor :mod:`repro.join`;
* :mod:`oracles.pattern_search` — the candidate/assign pattern search
  :func:`~oracles.pattern_search.all_homomorphisms`, against
  :func:`repro.patterns.homomorphism.all_homomorphisms`;
* :mod:`oracles.graph_homomorphism` — backtracking graph-to-graph
  homomorphisms (identity on frozen nodes), the universality check of
  chased graphs against solutions, and :func:`is_isomorphic`, which
  compares chased graphs with the paper's figures up to null names.

Tests import the package as ``oracles`` (``tests/`` is on the import
path under pytest, see ``pytest.ini``); the benchmarks import the same
modules, so there is one copy of each oracle.
"""

from oracles.dpll import (
    DPLLSolver,
    IncrementalDPLL,
    SolverStats,
    enumerate_models,
    solve_cnf,
)
from oracles.reference_engine import ReferenceEngine
from oracles.relational_chase import chase_relational_sequential
from oracles.sameas_journal import saturate_journal

__all__ = [
    "DPLLSolver",
    "IncrementalDPLL",
    "SolverStats",
    "enumerate_models",
    "solve_cnf",
    "ReferenceEngine",
    "chase_relational_sequential",
    "saturate_journal",
]
