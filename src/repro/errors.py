"""Exception hierarchy for the ``repro`` library.

Every error deliberately raised by the library derives from
:class:`ReproError`, so callers can catch library failures with a single
``except`` clause while still distinguishing the fine-grained categories.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class SchemaError(ReproError):
    """A schema is malformed or an object does not conform to its schema.

    Raised, for instance, when a tuple's arity does not match its relation
    symbol, or when a query mentions a relation absent from the schema.
    """


class ParseError(ReproError):
    """A textual expression (NRE, CQ, dependency) could not be parsed."""

    def __init__(self, message: str, text: str = "", position: int | None = None):
        self.text = text
        self.position = position
        if position is not None:
            message = f"{message} (at position {position} in {text!r})"
        super().__init__(message)


class EvaluationError(ReproError):
    """A query or expression could not be evaluated against an instance."""


class ChaseFailure(ReproError):
    """The chase failed: an egd attempted to equate two distinct constants.

    Chase failure is *semantic* information, not a bug: it proves that no
    solution exists (Section 5 of the paper).  The chase engines raise this
    only when asked for an exception-style API; the primary API returns a
    :class:`repro.chase.result.ChaseResult` carrying the failure.
    """

    def __init__(self, message: str, constants: tuple[object, object] | None = None):
        self.constants = constants
        super().__init__(message)


class BoundExceeded(ReproError):
    """A bounded decision procedure exhausted its budget inconclusively.

    Raised by the bounded existence and certain-answer procedures when the
    configured search bound is reached without a definite answer and the
    caller asked for strict behaviour.
    """


class FrozenGraphError(ReproError):
    """A mutation was attempted on a frozen (read-optimized) graph.

    Raised by the CSR storage backend's mutation hooks: a graph produced
    by :meth:`repro.graph.database.GraphDatabase.freeze` (or loaded from a
    snapshot) is immutable by construction.  Call
    :meth:`~repro.graph.database.GraphDatabase.thaw` to obtain a mutable
    dict-backed copy.
    """


class SnapshotError(ReproError):
    """A graph snapshot file is unreadable, foreign, or corrupt.

    Raised by :mod:`repro.graph.snapshot` when a file fails the magic,
    format-version, or payload-shape checks.  Snapshot loads are
    explicit user requests, so failures surface loudly instead of
    degrading silently (only :class:`~repro.graph.snapshot.SnapshotStore`
    lookups treat damage as a miss).
    """


class NotSupportedError(ReproError):
    """The requested operation is outside the implemented fragment.

    Example: running the Section 3.1 relational chase on an s-t tgd whose
    head uses a Kleene star (the fragment admits single-symbol NREs only).
    """
