"""numpy gating for the CSR build, and the kernel name perfbench prints.

All numpy access in the library routes through :func:`get_numpy`, so
tests can simulate a numpy-less installation by monkeypatching one
attribute (``repro.kernels.NUMPY = None``) instead of manipulating
``sys.modules``.  The only numpy consumers are the CSR buffer build of
:class:`~repro.graph.backends.CsrBackend` and the coercion of
snapshot-loaded buffers; NRE evaluation never touches numpy.
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
    """Name the NRE search: always ``"dict"``, the one product search.

    A shim for ``perfbench/run.py``, which prints it in its ``config:``
    line.  It goes with the ROADMAP benchmark-upkeep change, which stops
    perfbench from importing it.  The argument must be ``None``: there is
    no kernel to select.

    >>> resolve_kernel(None)
    'dict'
    """
    if kernel is not None:
        raise ValueError(f"kernel {kernel!r} cannot be selected; there is one search")
    return "dict"
