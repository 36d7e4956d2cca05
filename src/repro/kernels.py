"""numpy gating for the query hot paths, and the CSR path report.

There is no execution-kernel option.  The product-automaton runner
(:class:`repro.graph.automaton._Runner`) picks its search from what it
can observe about each call:

* **dict-backed graph** — the generic hash-indexed product BFS;
* **frozen CSR graph, numpy importable** — sweeps (``reachable``,
  ``reachable_many``, and therefore ``pairs``/``answers_over``) run the
  array-at-a-time :class:`~repro.graph.vector.VectorSearch`, one shared
  multi-source search per sweep; single-pair ``holds`` probes run the
  generated-code :class:`~repro.graph.codegen.CodegenSearch`, whose
  unrolled per-state branches and insert-time early exit beat numpy's
  per-op overhead on small frontiers;
* **frozen CSR graph, numpy absent** — everything runs codegen, which
  is pure Python.

All numpy access in the library routes through :func:`get_numpy`, so
tests can simulate a numpy-less installation by monkeypatching one
attribute (``repro.kernels.NUMPY = None``) instead of manipulating
``sys.modules``.
"""

from __future__ import annotations

try:  # pragma: no cover - exercised via both branches in the test suite
    import numpy as _numpy
except ImportError:  # pragma: no cover - the container ships numpy
    _numpy = None

NUMPY = _numpy
"""The numpy module, or ``None``.  Tests monkeypatch this to mask numpy."""


def get_numpy():
    """Return the numpy module or ``None`` (the single masking point).

    >>> get_numpy() is NUMPY
    True
    """
    return NUMPY


def resolve_kernel(kernel: None = None) -> str:
    """Name the search that CSR sweeps will run in this process.

    ``"vector"`` when numpy is importable, ``"codegen"`` when it is
    masked or absent.  Single-pair probes always run codegen.  The
    argument exists for callers that report the configuration; it must
    be ``None``, because the kernel is not selectable.

    >>> resolve_kernel(None) in ("vector", "codegen")
    True
    """
    if kernel is not None:
        raise ValueError(
            f"kernel {kernel!r} cannot be selected; CSR searches are routed "
            "by call shape"
        )
    return "vector" if get_numpy() is not None else "codegen"
