"""Framed JSON wire protocol for the partition server.

A frame is a 4-byte big-endian unsigned length prefix followed by that
many bytes of UTF-8 JSON.  Requests are objects with an ``"op"`` field
plus op-specific fields (``"tenant"``, ``"session"``, ``"modifiers"``,
...); responses are objects with ``"ok": true`` plus result fields, or
``"ok": false`` plus a typed ``"error"``:

.. code-block:: text

    +----------------+----------------------------------------+
    | length (u32be) | UTF-8 JSON payload (length bytes)      |
    +----------------+----------------------------------------+

    -> {"op": "submit", "tenant": "a", "session": "s0",
        "modifiers": [{"t": "ei", "u": 3, "v": 77, "w": 1}]}
    <- {"ok": true, "accepted": 1, "queue_depth": 1}
    <- {"ok": false,
        "error": {"code": "shed-overload", "retryable": true,
                  "message": "..."}}

Modifiers ride the journal's compact encoding
(:func:`repro.stream.journal.encode_modifier`), so the wire and the
recovery log agree on one serialization.

Any request may carry an optional ``"trace"`` object —
``{"id": "<tenant>/<op>#<n>", "attempt": 0, "parent": 7}`` — minted
by a tracing client (:func:`repro.obs.distrib.wire_trace`).  A server
booted with a trace recorder joins its op/worker/engine spans to that
id, so one trace shows client→server→kernel causality across retries
and failover; servers without a recorder ignore the field, and a
malformed context is rejected with ``bad-request`` rather than
silently dropped (:func:`repro.obs.distrib.parse_wire_trace`).

Error codes are a *closed* set (:data:`ERROR_CODES`): clients dispatch
on the code, never the message, and the quota/shed codes carry
``"retryable": true`` so a generic retry loop needs no server-specific
knowledge.  Frames are capped at :data:`MAX_FRAME` bytes in both
directions — a malformed length prefix must not make either side try
to allocate gigabytes.

Both a blocking (stdlib socket, for :class:`repro.serve.client.
ServeClient`) and an asyncio flavor of the frame codec live here so
the two sides cannot drift.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
from typing import Optional

from repro.utils.errors import ServeError

#: Hard cap on one frame's JSON payload, either direction.
MAX_FRAME = 4 * 1024 * 1024

#: Length prefix: unsigned 32-bit big-endian.
_LEN = struct.Struct(">I")

# -- typed error codes ----------------------------------------------------------

#: Request malformed (missing/ill-typed fields, unknown modifier kind).
E_BAD_REQUEST = "bad-request"
#: The ``op`` field names no known operation.
E_UNKNOWN_OP = "unknown-op"
#: The tenant is not registered and auto-registration is disabled.
E_UNKNOWN_TENANT = "unknown-tenant"
#: No session with that name exists for the tenant.
E_UNKNOWN_SESSION = "unknown-session"
#: ``create`` named a session that already exists.
E_SESSION_EXISTS = "session-exists"
#: Tenant is at its ``max_sessions`` quota.
E_QUOTA_SESSIONS = "quota-sessions"
#: Tenant is at its ``max_queued_modifiers`` quota.
E_QUOTA_QUEUE = "quota-queue"
#: Tenant exhausted its device-cycle budget for the current window.
E_QUOTA_CYCLES = "quota-cycles"
#: The server shed the request under load pressure.
E_SHED_OVERLOAD = "shed-overload"
#: The session's bounded ingest queue rejected the modifier.
E_BACKPRESSURE = "backpressure"
#: The assigned device worker died; the supervisor is failing over.
E_WORKER_FAILED = "worker-failed"
#: Client-side only: the per-request deadline elapsed.  The server
#: never sends this code — :class:`~repro.utils.errors.ServeTimeout`
#: carries it so retry loops can dispatch on one closed set.
E_TIMEOUT = "timeout"
#: Unexpected server-side failure (the message carries the cause).
E_INTERNAL = "internal"

#: Every code a response may carry.
ERROR_CODES = frozenset(
    {
        E_BAD_REQUEST,
        E_UNKNOWN_OP,
        E_UNKNOWN_TENANT,
        E_UNKNOWN_SESSION,
        E_SESSION_EXISTS,
        E_QUOTA_SESSIONS,
        E_QUOTA_QUEUE,
        E_QUOTA_CYCLES,
        E_SHED_OVERLOAD,
        E_BACKPRESSURE,
        E_WORKER_FAILED,
        E_TIMEOUT,
        E_INTERNAL,
    }
)

#: Codes that clear on their own; clients back off and resubmit.
#: ``worker-failed`` clears once the supervisor finishes failover;
#: ``timeout`` is ambiguous (the request may have executed), so retry
#: loops must re-synchronize on the session's ``next_seq`` first.
RETRYABLE_CODES = frozenset(
    {
        E_QUOTA_QUEUE,
        E_QUOTA_CYCLES,
        E_SHED_OVERLOAD,
        E_BACKPRESSURE,
        E_WORKER_FAILED,
        E_TIMEOUT,
    }
)

#: Codes whose *fate is ambiguous*: part of the request may have
#: executed even though no success response arrived — a timeout may
#: race the response, a connection may drop after the durable write,
#: and a worker can die mid-batch with a journaled prefix that
#: failover replays.  Retry loops re-synchronize on the session's
#: ``next_seq`` (reported by ``attach``) before resubmitting, so a
#: resubmit never double-applies.  ``backpressure`` is not ambiguous
#: but needs the same resync: it is raised during execution, after the
#: session may have queued and journaled a prefix of the submit.  The
#: shed and quota codes in :data:`RETRYABLE_CODES` reject before the
#: engine, so a plain resubmit is safe.
AMBIGUOUS_CODES = frozenset({E_TIMEOUT, E_INTERNAL, E_WORKER_FAILED})


def ok_response(**fields) -> dict:
    """A success response payload."""
    out = {"ok": True}
    out.update(fields)
    return out


def error_response(code: str, message: str, **fields) -> dict:
    """A typed failure response payload.

    ``code`` must come from :data:`ERROR_CODES`; the retry hint is
    derived from :data:`RETRYABLE_CODES` so the two can never disagree.
    """
    if code not in ERROR_CODES:
        raise ValueError(f"unknown serve error code {code!r}")
    error = {
        "code": code,
        "message": message,
        "retryable": code in RETRYABLE_CODES,
    }
    error.update(fields)
    return {"ok": False, "error": error}


def raise_for_response(response: dict) -> dict:
    """Return ``response`` if ok, else raise the typed :class:`ServeError`."""
    if response.get("ok"):
        return response
    error = response.get("error") or {}
    raise ServeError(
        error.get("message", "request failed"),
        code=error.get("code", E_INTERNAL),
        retryable=bool(error.get("retryable", False)),
    )


# -- frame codec ----------------------------------------------------------------


def encode_frame(payload: dict) -> bytes:
    """One request/response as length-prefixed JSON bytes."""
    body = json.dumps(
        payload, separators=(",", ":"), sort_keys=True
    ).encode("utf-8")
    if len(body) > MAX_FRAME:
        raise ServeError(
            f"frame of {len(body)} bytes exceeds MAX_FRAME={MAX_FRAME}",
            code=E_BAD_REQUEST,
        )
    return _LEN.pack(len(body)) + body


def _decode_length(prefix: bytes) -> int:
    (length,) = _LEN.unpack(prefix)
    if length > MAX_FRAME:
        raise ServeError(
            f"peer announced a {length}-byte frame "
            f"(MAX_FRAME={MAX_FRAME})",
            code=E_BAD_REQUEST,
        )
    return length


def _decode_body(body: bytes) -> dict:
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise ServeError(
            f"frame payload is not valid JSON: {err}",
            code=E_BAD_REQUEST,
        ) from err
    if not isinstance(payload, dict):
        raise ServeError(
            "frame payload must be a JSON object",
            code=E_BAD_REQUEST,
        )
    return payload


def recv_exact(sock: socket.socket, n: int) -> Optional[bytes]:
    """Blocking read of exactly ``n`` bytes; None on clean EOF at a
    frame boundary, :class:`ServeError` on a mid-frame disconnect."""
    chunks: list[bytes] = []
    got = 0
    while got < n:
        chunk = sock.recv(n - got)
        if not chunk:
            if got == 0:
                return None
            raise ServeError(
                f"connection closed mid-frame ({got}/{n} bytes)",
                code=E_INTERNAL,
            )
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def read_frame(sock: socket.socket) -> Optional[dict]:
    """Blocking frame read; None on clean EOF."""
    prefix = recv_exact(sock, _LEN.size)
    if prefix is None:
        return None
    body = recv_exact(sock, _decode_length(prefix))
    if body is None:
        raise ServeError(
            "connection closed between length prefix and payload",
            code=E_INTERNAL,
        )
    return _decode_body(body)


def write_frame(sock: socket.socket, payload: dict) -> None:
    """Blocking frame write."""
    sock.sendall(encode_frame(payload))


async def read_frame_async(
    reader: asyncio.StreamReader,
) -> Optional[dict]:
    """Async frame read; None on clean EOF at a frame boundary."""
    try:
        prefix = await reader.readexactly(_LEN.size)
    except asyncio.IncompleteReadError as err:
        if not err.partial:
            return None
        raise ServeError(
            "connection closed mid-length-prefix", code=E_INTERNAL
        ) from err
    length = _decode_length(prefix)
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as err:
        raise ServeError(
            f"connection closed mid-frame "
            f"({len(err.partial)}/{length} bytes)",
            code=E_INTERNAL,
        ) from err
    return _decode_body(body)


async def write_frame_async(
    writer: asyncio.StreamWriter, payload: dict
) -> None:
    """Async frame write (drains the transport)."""
    writer.write(encode_frame(payload))
    await writer.drain()
