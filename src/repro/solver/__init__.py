"""SAT substrate: CNF formulas, the CDCL solver, and exchange encodings.

The paper's Theorem 4.1 reduces 3SAT to the existence of solutions; running
that reduction at scale — and deciding existence for the restricted fragment
at all — needs a SAT solver, which is implemented here from scratch:

* :mod:`repro.solver.cnf` — CNF formulas in DIMACS-style integer literals,
  canonicalised at insertion time (:func:`~repro.solver.cnf.canonical_clause`);
* :mod:`repro.solver.cdcl` — the production solver: conflict-driven clause
  learning with two-watched-literal propagation, 1-UIP learning, EVSIDS
  branching, Luby restarts, LBD-aware deletion, and an **incremental**
  interface (``add_clause`` between solves, ``solve(assumptions=[...])``
  with unsat-core extraction);
* :mod:`repro.solver.generators` — random k-CNF and planted-satisfiable
  instance generators for the scaling benchmarks;
* :mod:`repro.solver.encode` — the bounded-model encoding of
  existence-of-solutions into CNF for the Theorem 4.1 fragment
  (union-of-symbols heads, word egd bodies).

The CDCL solver is the only one the library runs.  The test suite pins
its SAT/UNSAT verdicts against a chronological DPLL and a brute-force
model enumerator kept outside the library (``tests/oracles/dpll.py``).
"""

from repro.solver.cnf import CNF, Clause, Literal, canonical_clause
from repro.solver.cdcl import CDCLSolver, CDCLStats, solve_cnf_cdcl
from repro.solver.generators import random_kcnf, planted_kcnf
from repro.solver.encode import encode_bounded_existence, decode_edge_model


def resolve_solver_name(name: None = None) -> str:
    """Name the SAT solver the pipeline runs: always ``"cdcl"``.

    The argument exists for callers that report the configuration; it
    must be ``None``, because the solver is not selectable.

    >>> resolve_solver_name(None)
    'cdcl'
    """
    if name is not None:
        raise ValueError(
            f"solver {name!r} cannot be selected; the pipeline runs CDCL"
        )
    return "cdcl"


__all__ = [
    "CNF",
    "Clause",
    "Literal",
    "canonical_clause",
    "CDCLSolver",
    "CDCLStats",
    "resolve_solver_name",
    "solve_cnf_cdcl",
    "random_kcnf",
    "planted_kcnf",
    "encode_bounded_existence",
    "decode_edge_model",
]
