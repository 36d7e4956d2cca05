"""The service wire protocol: JSON lines, validated requests, error envelopes.

One request per line, one response per line, both UTF-8 JSON.  A request::

    {"id": "r1", "op": "certain", "params": {"document": {...},
     "query": "f . f-"}, "deadline_s": 5.0}

and its response envelope, exactly one of::

    {"id": "r1", "ok": true,  "result": {...}, "cached": false}
    {"id": "r1", "ok": false, "error": {"code": "bad-request",
                                        "message": "..."}}

Validation happens *before* any work is scheduled: every operation has a
field specification (required/optional fields, types, defaults), unknown
fields and unknown operations are rejected, and defaults are filled in so
that two requests meaning the same thing normalise to the same parameter
dictionary.  That normalisation is what makes :func:`request_fingerprint`
a correct cache key — ``{"star_bound": 2}`` and ``{}`` fingerprint
identically because both normalise to the explicit default.

Error codes (stable API, tested):

=================== =====================================================
``bad-json``        the line was not valid JSON
``bad-request``     the request failed schema validation
``unknown-op``      the operation name is not served
``duplicate-id``    a request with this id is already in flight
``deadline-exceeded`` the per-request deadline elapsed before completion
``cancelled``       the job was cancelled (``cancel`` op) before it ran
``bounds-exceeded`` the library could not settle the answer within bounds
``unsupported``     the setting/query shape is outside the engine's scope
``internal-error``  anything else — the message carries the exception
=================== =====================================================
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any

PROTOCOL_VERSION = 1
"""Bumped on any incompatible change to the wire format."""

COMPUTE_OPS = ("apply_updates", "certain", "chase", "evaluate_batch", "exists")
"""Operations that run in the worker pool and are result-cacheable."""

CONTROL_OPS = ("cancel", "metrics", "ping", "shutdown", "stats", "traces")
"""Operations answered inline by the server itself.

``metrics`` and ``traces`` form the introspection plane: they read the
server's telemetry registry and trace ring without occupying a worker
slot, so a wedged pool can still be diagnosed over the same wire."""

MAX_LINE_BYTES = 32 * 1024 * 1024
"""Upper bound on one request line — a malformed client must not OOM us."""


class ProtocolError(Exception):
    """A request that must be answered with an error envelope."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


@dataclass(frozen=True)
class Request:
    """A validated request with normalised (default-filled) parameters."""

    id: str
    op: str
    params: dict[str, Any] = field(default_factory=dict)
    deadline_s: float | None = None
    no_cache: bool = False

    def fingerprint(self) -> str:
        """The result-cache key (op + normalised params, value-based)."""
        return request_fingerprint(self.op, self.params)


# --------------------------------------------------------------------- #
# Field specifications, one per operation.  Each spec maps a field name
# to (checker, required, default); checkers raise ProtocolError.
# --------------------------------------------------------------------- #


def _check_document(value: Any) -> dict:
    if not isinstance(value, dict):
        raise ProtocolError("bad-request", "document must be an object")
    missing = {"setting", "instance"} - set(value)
    if missing:
        raise ProtocolError(
            "bad-request",
            f"document is missing {sorted(missing)} "
            "(expected the CLI exchange-document shape)",
        )
    return value


def _check_star_bound(value: Any) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ProtocolError("bad-request", "star_bound must be an integer >= 0")
    return value


def _check_query(value: Any) -> str:
    if not isinstance(value, str) or not value.strip():
        raise ProtocolError("bad-request", "query must be a non-empty string")
    return value


def _check_queries(value: Any) -> list[str]:
    if (
        not isinstance(value, list)
        or not value
        or not all(isinstance(q, str) and q.strip() for q in value)
    ):
        raise ProtocolError(
            "bad-request", "queries must be a non-empty list of NRE strings"
        )
    return value


def _check_optional_queries(value: Any) -> list[str]:
    if not isinstance(value, list) or not all(
        isinstance(q, str) and q.strip() for q in value
    ):
        raise ProtocolError(
            "bad-request", "queries must be a list of NRE strings"
        )
    return value


def _check_updates(value: Any) -> list[dict]:
    if not isinstance(value, list):
        raise ProtocolError("bad-request", "updates must be a list")
    for update in value:
        if not isinstance(update, dict):
            raise ProtocolError("bad-request", "each update must be an object")
        unknown = set(update) - {"op", "relation", "tuple"}
        if unknown:
            raise ProtocolError(
                "bad-request", f"update has unknown fields {sorted(unknown)}"
            )
        if update.get("op") not in ("insert", "delete"):
            raise ProtocolError(
                "bad-request", "update op must be 'insert' or 'delete'"
            )
        relation = update.get("relation")
        if not isinstance(relation, str) or not relation:
            raise ProtocolError(
                "bad-request", "update relation must be a non-empty string"
            )
        values = update.get("tuple")
        if not isinstance(values, list):
            raise ProtocolError("bad-request", "update tuple must be a list")
    return value


def _check_pair(value: Any):
    if value is None:
        return None
    if not isinstance(value, list) or len(value) != 2 or not all(
        isinstance(v, str) for v in value
    ):
        raise ProtocolError(
            "bad-request", "pair must be a two-element list of constants"
        )
    return value


def _check_job(value: Any) -> str:
    if not isinstance(value, str) or not value:
        raise ProtocolError("bad-request", "job must be a request id string")
    return value


def _check_trace_limit(value: Any):
    if value is None:
        return None
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ProtocolError(
            "bad-request", "limit must be a positive integer or null"
        )
    return value


def _check_slow(value: Any) -> bool:
    if not isinstance(value, bool):
        raise ProtocolError("bad-request", "slow must be a boolean")
    return value


_COMMON = {
    "star_bound": (_check_star_bound, False, 2),
}

_SPECS: dict[str, dict[str, tuple]] = {
    "apply_updates": {
        "document": (_check_document, True, None),
        "updates": (_check_updates, True, None),
        "queries": (_check_optional_queries, False, []),
        **_COMMON,
    },
    "exists": {"document": (_check_document, True, None), **_COMMON},
    "certain": {
        "document": (_check_document, True, None),
        "query": (_check_query, True, None),
        "pair": (_check_pair, False, None),
        **_COMMON,
    },
    "chase": {"document": (_check_document, True, None)},
    "evaluate_batch": {
        "document": (_check_document, True, None),
        "queries": (_check_queries, True, None),
        **_COMMON,
    },
    "ping": {},
    "stats": {},
    "shutdown": {},
    "cancel": {"job": (_check_job, True, None)},
    "metrics": {},
    "traces": {
        "limit": (_check_trace_limit, False, None),
        "slow": (_check_slow, False, False),
    },
}


def validate_request(data: Any) -> Request:
    """Validate a decoded request object; raise :class:`ProtocolError`.

    Fills defaults so that the returned :class:`Request` carries the fully
    normalised parameter dictionary (the fingerprinting contract).
    """
    if not isinstance(data, dict):
        raise ProtocolError("bad-request", "request must be a JSON object")
    request_id = data.get("id")
    if not isinstance(request_id, str) or not request_id:
        raise ProtocolError("bad-request", "request needs a non-empty string id")
    op = data.get("op")
    if op not in _SPECS:
        raise ProtocolError(
            "unknown-op",
            f"unknown op {op!r}; served ops: "
            f"{sorted(COMPUTE_OPS) + sorted(CONTROL_OPS)}",
        )
    unknown_top = set(data) - {"id", "op", "params", "deadline_s", "no_cache"}
    if unknown_top:
        raise ProtocolError(
            "bad-request", f"unknown request fields {sorted(unknown_top)}"
        )
    deadline_s = data.get("deadline_s")
    if deadline_s is not None and (
        isinstance(deadline_s, bool) or not isinstance(deadline_s, (int, float))
    ):
        raise ProtocolError("bad-request", "deadline_s must be a number")
    no_cache = data.get("no_cache", False)
    if not isinstance(no_cache, bool):
        raise ProtocolError("bad-request", "no_cache must be a boolean")

    spec = _SPECS[op]
    params = data.get("params", {})
    if not isinstance(params, dict):
        raise ProtocolError("bad-request", "params must be an object")
    unknown = set(params) - set(spec)
    if unknown:
        raise ProtocolError(
            "bad-request", f"op {op!r} does not accept params {sorted(unknown)}"
        )
    normalised: dict[str, Any] = {}
    for name, (checker, required, default) in sorted(spec.items()):
        if name in params:
            normalised[name] = checker(params[name])
        elif required:
            raise ProtocolError(
                "bad-request", f"op {op!r} requires param {name!r}"
            )
        else:
            normalised[name] = default
    return Request(
        id=request_id,
        op=op,
        params=normalised,
        deadline_s=None if deadline_s is None else float(deadline_s),
        no_cache=no_cache,
    )


# --------------------------------------------------------------------- #
# Envelopes and the canonical wire rendering.
# --------------------------------------------------------------------- #


def ok_envelope(request_id: str | None, result: Any, cached: bool = False) -> dict:
    """A success envelope (``cached`` marks a result-cache hit)."""
    return {"id": request_id, "ok": True, "result": result, "cached": cached}


def error_envelope(request_id: str | None, code: str, message: str) -> dict:
    """A failure envelope with a stable error code."""
    return {"id": request_id, "ok": False, "error": {"code": code, "message": message}}


def canonical_bytes(obj: Any) -> bytes:
    """Deterministic JSON bytes (sorted keys, compact separators).

    Used both as the wire rendering and for byte-identity assertions
    between service responses and direct library calls.
    """
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    ).encode("utf-8")


def encode_line(obj: Any) -> bytes:
    """One protocol line: canonical JSON plus the newline terminator."""
    return canonical_bytes(obj) + b"\n"


def decode_line(line: bytes) -> Any:
    """Parse one wire line; raise ``ProtocolError('bad-json', ...)``."""
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError("bad-json", f"request line over {MAX_LINE_BYTES} bytes")
    try:
        return json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError("bad-json", f"undecodable request line: {error}") from None


def request_fingerprint(op: str, params: dict) -> str:
    """SHA-256 over the canonical rendering of (op, normalised params).

    Pure value identity: two requests built independently from equal
    documents and parameters collide on purpose — that collision *is* the
    result cache.
    """
    return hashlib.sha256(
        canonical_bytes({"op": op, "params": params})
    ).hexdigest()
