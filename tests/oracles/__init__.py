"""Differential oracles: simple, independent reference implementations.

Each production algorithm in :mod:`repro` has one execution path; the
slower reference it is pinned against lives here, outside the library,
so no user-settable option can select it:

* :mod:`oracles.dpll` — chronological DPLL (:class:`DPLLSolver`, the
  stateless incremental adapter :class:`IncrementalDPLL`,
  :func:`solve_cnf`) and the brute-force :func:`enumerate_models`,
  against :class:`repro.solver.cdcl.CDCLSolver`;
* :mod:`oracles.reference_engine` — :class:`ReferenceEngine`, the
  set-algebraic evaluator behind the
  :class:`repro.engine.query.QueryEngine` interface;
* :mod:`oracles.sameas_journal` — :func:`saturate_journal`, the
  edge-at-a-time sameAs saturation, against the union-find
  :func:`repro.chase.sameas_chase.saturate_sameas`.

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
from oracles.sameas_journal import saturate_journal

__all__ = [
    "DPLLSolver",
    "IncrementalDPLL",
    "SolverStats",
    "enumerate_models",
    "solve_cnf",
    "ReferenceEngine",
    "saturate_journal",
]
