"""The JSON-lines wire protocol of the online detection service.

Every message — request and reply — is one JSON object per line
(``\\n``-terminated UTF-8), wrapped in a versioned envelope:

.. code-block:: text

    request:  {"v": 1, "op": "ingest", "stream": "machine-1",
               "points": [[0.1, 0.2], [0.3, 0.4]], "id": 7}
    reply:    {"v": 1, "ok": true,  "op": "ingest", "id": 7,
               "accepted": 2, "seq_from": 10, "seq_to": 11, "pending": 2}
    error:    {"v": 1, "ok": false, "op": "ingest", "id": 7,
               "error": {"type": "queue_full", "message": "...",
                         "retry_after": 0.025}}

The optional ``id`` field is an opaque client correlation token, echoed
verbatim in the reply.  Verbs:

``create``
    Open a session: ``stream`` (new id), ``spec`` (a registry label such
    as ``"ae+sw+kswin"``; optional when the server has a default),
    ``n_channels`` (required), optional ``config`` (a dict of
    :class:`~repro.core.config.DetectorConfig` fields) and ``scorer``.
    Optional ``resume`` (``{"seq": N}``) opens the session from a spill
    checkpoint already placed in the server's spill directory instead of
    building a fresh detector — the receiving end of a live migration or
    crash recovery.  ``seq`` must be the checkpoint's ``t + 1`` (it
    continues the source's numbering); any other value is refused as
    ``bad_config`` and the file stays for a retry.  A server with a
    write-ahead log installs the file as the log's barrier checkpoint.
    Optional ``select`` arms online algorithm selection
    (:mod:`repro.select`): ``{"challengers": ["spec", ...], "policy":
    "ewma"|"ucb", ...}`` races shadow challenger detectors over the same
    points and hot-swaps the champion when a challenger sustainably wins
    (see :func:`repro.select.race.build_race` for every knob).  A
    ``postprocess`` list inside ``select`` (e.g. ``["zscore", "ewma:0.3"]``)
    chains score calibration stages; each result then carries a
    ``calibrated`` field alongside the untouched raw ``score``.
``ingest``
    Append ``points`` (a ``[B][N]`` nested list) to the session's ingest
    queue.  All-or-nothing: if the bounded queue cannot take the whole
    batch, the reply is a ``queue_full`` error carrying ``retry_after``
    seconds and nothing is enqueued.  Optional ``expect`` (the client's
    next expected sequence number) makes the verb **idempotent**: a
    block the session already assigned — a retry of an acknowledged
    request whose reply was lost — is re-acknowledged with
    ``duplicate: true`` instead of scored twice, and an ``expect``
    ahead of the session is rejected (``bad_points``).  ``expect`` must
    be a non-negative integer (``bad_request`` otherwise).  An empty
    ``points`` list is acknowledged as ``accepted: 0``.  When the server
    runs a write-ahead log, the block is logged durably *before* the
    acknowledgement.
``score``
    Collect scored results: ``max`` (a non-negative integer; anything
    else is ``bad_request`` and pops nothing) bounds the reply size, ``flush``
    (a boolean, default true; anything else is ``bad_request`` and pops
    nothing) synchronously drains the session's queue first so a
    client that just ingested can read every score without waiting for
    the micro-batch delay.  Results are ``{seq, score, nonconformity,
    drift, finetuned}`` dicts in sequence order.
``stats``
    Per-session state + telemetry and the fleet-wide merged rollup;
    ``stream`` restricts the reply to one session, and
    ``latency_windows: true`` (a boolean; anything else is
    ``bad_request``) includes each session's raw retained
    latency samples (so a router can merge reservoirs fleet-wide).
``describe``
    Deep introspection of one session (``stream`` required): the
    ``stats`` block plus the selection-race state when armed (champion
    and challenger lane statistics, promotion events) and the metadata
    of the stream's one on-disk checkpoint (``checkpoints.barrier`` with
    a write-ahead log, else ``checkpoints.spill``: path, stream clock
    ``t`` and model class).
``evict``
    Operational verb: flush then spill one session to the checkpoint
    directory (the store also evicts idle sessions on its own when over
    capacity).  The next ``ingest``/``score`` rehydrates transparently.
``close``
    Finalize a session: flush, drain — the reply carries any results
    the client had not collected yet (``results``) — then remove its
    on-disk state (spill, write-ahead log, barrier checkpoint) as the
    very last step, so a crash mid-close never loses scored data.
``ping`` / ``shutdown``
    Liveness probe / stop the server loop (the reply is sent first).

Scores cross the wire as JSON numbers; Python's ``json`` emits the
shortest round-tripping decimal for a float, so a finite ``float64``
survives encode→decode bit-for-bit — the service's end-to-end
bitwise-equivalence guarantee holds through the protocol layer.
"""

from __future__ import annotations

import json
import numbers
from typing import Any

from repro.core.exceptions import ReproError

#: bump when the envelope or a verb's fields change incompatibly.
PROTOCOL_VERSION = 1

OPS = (
    "create",
    "ingest",
    "score",
    "stats",
    "describe",
    "evict",
    "close",
    "ping",
    "shutdown",
)

#: verbs that do not address a single session.
_STREAMLESS_OPS = ("stats", "ping", "shutdown")

#: optional count fields per verb: a non-negative integer when present.
_COUNT_FIELDS = {"ingest": "expect", "score": "max"}

#: optional flag fields per verb: a JSON boolean when present.
_FLAG_FIELDS = {"score": "flush", "stats": "latency_windows"}

#: ``error.type`` values a client can dispatch on.
ERROR_TYPES = (
    "bad_request",
    "bad_config",
    "bad_points",
    "duplicate_stream",
    "unknown_stream",
    "spill_collision",
    "queue_full",
    "worker_down",
    "internal",
)


class ProtocolError(ReproError):
    """A message violated the wire protocol (shape, version or fields)."""


def encode(message: dict[str, Any]) -> bytes:
    """Serialize one message as a JSON line (UTF-8, ``\\n``-terminated).

    ``allow_nan=False`` keeps the wire format strict JSON: anything
    carrying a NaN/Inf is a programming error on the sending side, not
    something to smuggle past a standards-compliant peer.
    """
    return (json.dumps(message, allow_nan=False) + "\n").encode("utf-8")


def decode_line(line: bytes | str) -> dict[str, Any]:
    """Parse one received line into a message dict.

    Raises:
        ProtocolError: if the line is not a JSON object.
    """
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    try:
        message = json.loads(line)
    except json.JSONDecodeError as error:
        raise ProtocolError(f"not valid JSON: {error}") from None
    if not isinstance(message, dict):
        raise ProtocolError(
            f"message must be a JSON object, got {type(message).__name__}"
        )
    return message


def check_count(op: str, field: str, value: Any) -> None:
    """Refuse a count field that is not a non-negative integer.

    ``bool`` is an ``Integral`` subclass, and a float like 4.9 would
    truncate, so both are refused; integer types such as ``np.int64``
    pass.  :func:`parse_request` applies it to every request, and
    ``DetectionService.ingest`` to in-process ingests that never crossed
    the wire.

    Raises:
        ProtocolError: naming ``op`` and ``field``.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
        raise ProtocolError(
            f"{op} '{field}' must be a non-negative integer, got {value!r}"
        )


def parse_request(message: dict[str, Any]) -> dict[str, Any]:
    """Validate a request envelope; return it with defaults normalized.

    Raises:
        ProtocolError: on a missing/unsupported version, unknown verb, a
            session verb without a ``stream`` id, an ``ingest.expect``
            / ``score.max`` that is not a non-negative integer, or a
            ``score.flush`` / ``stats.latency_windows`` that is not a
            boolean (the string ``"false"`` would read as true).
    """
    version = message.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported protocol version {version!r} "
            f"(this server speaks v{PROTOCOL_VERSION})"
        )
    op = message.get("op")
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r} (valid: {', '.join(OPS)})")
    stream = message.get("stream")
    if op not in _STREAMLESS_OPS:
        if not isinstance(stream, str) or not stream:
            raise ProtocolError(f"op {op!r} requires a non-empty 'stream' id")
    elif stream is not None and not isinstance(stream, str):
        raise ProtocolError("'stream' must be a string when present")
    field = _COUNT_FIELDS.get(op)
    if field and message.get(field) is not None:
        check_count(op, field, message[field])
    flag = _FLAG_FIELDS.get(op)
    if flag and flag in message and not isinstance(message[flag], bool):
        raise ProtocolError(
            f"{op} '{flag}' must be a boolean, got {message[flag]!r}"
        )
    return message


def ok_reply(op: str, request: dict[str, Any] | None = None, **payload: Any) -> dict:
    """Build a success envelope, echoing the request's correlation id."""
    reply: dict[str, Any] = {"v": PROTOCOL_VERSION, "ok": True, "op": op}
    if request is not None and "id" in request:
        reply["id"] = request["id"]
    reply.update(payload)
    return reply


def error_reply(
    op: str | None,
    kind: str,
    message: str,
    request: dict[str, Any] | None = None,
    **extra: Any,
) -> dict:
    """Build an error envelope (``kind`` is one of :data:`ERROR_TYPES`)."""
    reply: dict[str, Any] = {
        "v": PROTOCOL_VERSION,
        "ok": False,
        "op": op,
        "error": {"type": kind, "message": message, **extra},
    }
    if request is not None and "id" in request:
        reply["id"] = request["id"]
    return reply
