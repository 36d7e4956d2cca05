"""The name of the NRE search, printed by ``perfbench/run.py``."""

from __future__ import annotations


def resolve_kernel(kernel: None = None) -> str:
    """Name the NRE search: always ``"dict"``, the one relation algebra.

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
