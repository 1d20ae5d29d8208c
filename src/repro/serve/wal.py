"""Per-session write-ahead ingest log: crash-safe durability and replay.

A SIGKILL (or power loss) between an ``ingest`` acknowledgement and the
drain that scores the point silently violates the streaming contract —
the paper's protocol scores every point exactly once, in order, and the
serve layer promised the client the point was accepted.  The WAL closes
that gap:

- **Append before acknowledge.**  Every accepted ingest block is
  appended to the session's log *before* the ``ingest`` reply is sent.
  A crash after the ack can therefore always be replayed; a crash before
  the append leaves the client holding the data (the request was never
  acknowledged), which is the client's retry case, not data loss.
- **Checkpoint barriers bound replay.**  Every ``barrier_interval``
  scored points the session's detector is saved to its *barrier
  checkpoint* (atomic :func:`~repro.streaming.checkpoint.save_detector`,
  fsynced unless the policy is ``never``) and the log is compacted
  down to the entries past the barrier's stream clock ``t`` — recovery
  never replays more than one barrier interval plus whatever was in
  flight.
- **One checkpoint per logged session.**  An eviction is a barrier, a
  hot-swap commits through one, and a resumed stream's shipped
  checkpoint is installed as the barrier before the log opens
  (:meth:`SessionWal.open`); a fresh log removes a stale barrier.
- **Replay is the normal path.**  Recovery (:meth:`SessionWal.reattach`)
  anchors on the barrier alone and scrubs aborted swap intents; the
  service then replays the surviving entries through its ordinary
  scheduler drain (``result_limit`` and barriers included), and the
  chunked engine's bitwise invariance to block boundaries makes the
  recovered scores identical to an uninterrupted run
  (``tests/test_wal.py``).

File format: one log per stream (named like spill files, by a hash of
the stream id), a sequence of length-prefixed CRC-framed pickle records

.. code-block:: text

    <u32 payload length> <u32 crc32(payload)> <payload bytes>

starting with one ``open`` record (stream id, spec, channel count,
detector config — everything recovery needs to rebuild the session
without an external registry) followed by ``ingest`` records
(``seq_from`` + the raw float64 rows) and, when online algorithm
selection promotes a challenger, ``swap`` records (``t`` + the new
spec/config/scorer) that re-parameterize the session from that clock on
(compaction folds them back into the open record).  Torn tails — a crash mid-append
— are detected by the length/CRC frame and truncated back to the last
complete record; everything before the tear is intact by construction
(records are appended, never rewritten in place).  Compaction rewrites
the whole file through :func:`~repro.streaming.checkpoint.atomic_write`,
the same atomicity contract as checkpoints.

fsync policy (the durability/throughput trade, per
``BENCH_serve.json``):

- ``always`` — fsync after every append: no acknowledged point is ever
  lost, even to power loss.
- ``barrier`` (default) — appends are flushed to the OS (surviving a
  process crash, the common failure) but only barriers fsync; a power
  loss can lose points acknowledged since the last OS write-back.
- ``never`` — no fsync anywhere; durability against process crashes
  only, minimal overhead.

Replay dedup policy: entries are validated in log order — each record
must continue exactly where the previous ended; records that fall
entirely before the replay cursor are duplicate replays (a retried
append whose first attempt did land) and are dropped; records that
*overlap* the cursor are trimmed to the unseen rows; a record that
jumps *past* the cursor means an acknowledged record was lost and is a
hard :class:`WalCorruption` error — recovery must not silently skip
points the client believes were scored.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.exceptions import ConfigurationError, ReproError
from repro.obs import NULL_TELEMETRY, Telemetry
from repro.streaming.checkpoint import (
    atomic_write,
    fsync_dir,
    peek_checkpoint,
    save_detector,
    transfer_checkpoint,
)

#: valid values of :attr:`WalConfig.fsync`.
FSYNC_POLICIES = ("always", "barrier", "never")

#: Log size below which a barrier skips compaction.  The stale prefix
#: costs only disk and a little replay-time reading — never replay
#: *work* (``plan_replay`` drops entries at or before the barrier's
#: clock) — so rewriting the log on every barrier buys nothing.
COMPACT_MIN_BYTES = 256 * 1024

#: record frame: little-endian payload length + crc32 of the payload.
_FRAME = struct.Struct("<II")


class WalError(ReproError):
    """A write-ahead-log operation failed."""


class WalCorruption(WalError):
    """The log's entries are inconsistent (gap / reordered records).

    Raised only for damage replay cannot repair honestly: a missing
    acknowledged record.  Torn tails and duplicate replays are expected
    crash artifacts and are repaired/dropped silently.
    """


@dataclass(frozen=True)
class WalConfig:
    """Write-ahead-log knobs.

    Attributes:
        dir: directory holding the per-session logs and their barrier
            checkpoints (created eagerly).
        fsync: ``always`` / ``barrier`` / ``never`` — see the module
            docstring for the durability trade.
        barrier_interval: scored points between barrier checkpoints;
            the replay-cost bound.
    """

    dir: str | Path
    fsync: str = "barrier"
    barrier_interval: int = 256

    def __post_init__(self) -> None:
        if self.fsync not in FSYNC_POLICIES:
            raise ConfigurationError(
                f"wal fsync must be one of {FSYNC_POLICIES}, got {self.fsync!r}"
            )
        if self.barrier_interval < 1:
            raise ConfigurationError(
                f"wal barrier_interval must be >= 1, got {self.barrier_interval}"
            )


def _digest(stream_id: str) -> str:
    return hashlib.blake2b(stream_id.encode("utf-8"), digest_size=10).hexdigest()


def wal_filename(stream_id: str) -> str:
    """Deterministic, filesystem-safe log name for a stream id."""
    return f"session-{_digest(stream_id)}.wal"


def barrier_filename(stream_id: str) -> str:
    """The stream's barrier-checkpoint name (lives next to its log)."""
    return f"session-{_digest(stream_id)}.barrier.ckpt"


def _frame(record: dict[str, Any]) -> bytes:
    payload = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


def read_records(path: str | Path) -> tuple[list[dict[str, Any]], int, bool]:
    """Read every complete record of a log file.

    Returns ``(records, good_bytes, torn)``: the decoded records, the
    byte offset of the last complete record's end, and whether a torn
    tail (incomplete or CRC-failing trailing record) was found after it.
    A torn tail is the expected artifact of a crash mid-append — the
    caller truncates to ``good_bytes`` and loses only the unacknowledged
    write.
    """
    data = Path(path).read_bytes()
    records: list[dict[str, Any]] = []
    offset = 0
    torn = False
    while offset < len(data):
        if offset + _FRAME.size > len(data):
            torn = True
            break
        length, crc = _FRAME.unpack_from(data, offset)
        start = offset + _FRAME.size
        end = start + length
        if end > len(data):
            torn = True
            break
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            torn = True
            break
        try:
            record = pickle.loads(payload)
        except Exception:  # noqa: BLE001 — a mangled payload is a torn tail
            torn = True
            break
        if not isinstance(record, dict) or "kind" not in record:
            torn = True
            break
        records.append(record)
        offset = end
    return records, offset, torn


def _fold_swap(open_meta: dict[str, Any], record: dict[str, Any]) -> None:
    """Fold one *committed* hot-swap record into an open record's recipe.

    A swap record (written by :func:`repro.select.swap.hot_swap` as the
    intent step of the swap protocol) re-parameterizes the session from
    its clock ``t`` on: later records must be recovered under the *new*
    spec/config/scorer.  The record also carries the champion's result
    entries for the block that triggered the swap (``swap_results``) —
    recovery re-emits them, since the swap barrier trims that block from
    replay.  Folding mutates ``open_meta`` in place — applied in log
    order, the final recipe matches the live session at crash time.
    """
    if record.get("spec") is not None:
        open_meta["spec"] = record["spec"]
    if record.get("config") is not None:
        open_meta["config"] = record["config"]
    if "scorer" in record:
        open_meta["scorer"] = record["scorer"]
    open_meta["swapped"] = True
    open_meta["swap_t"] = int(record["t"])
    open_meta["swap_results"] = list(record.get("results") or ())


def plan_replay(
    records: list[dict[str, Any]], barrier_t: int
) -> tuple[dict[str, Any], list[tuple[int, np.ndarray]], int]:
    """Validate a log's records and compute what replay must score.

    Returns ``(open_meta, blocks, dropped)`` where ``blocks`` is the
    ordered list of ``(seq_from, rows)`` to feed through ``step_chunk``
    (already trimmed past ``barrier_t`` — the checkpoint's stream clock,
    i.e. the last *already scored* index) and ``dropped`` counts rows
    discarded as duplicates or already-scored.

    Raises:
        WalCorruption: on a missing ``open`` record or a sequence gap
            (an acknowledged record that is simply absent).
    """
    if not records or records[0].get("kind") != "open":
        raise WalCorruption("log does not start with an 'open' record")
    open_meta = dict(records[0])
    expected: int | None = None
    dropped = 0
    blocks: list[tuple[int, np.ndarray]] = []
    for record in records[1:]:
        if record.get("kind") == "swap":
            # A swap commits at its checkpoint save, not at this record
            # (the record is written first, as intent).  A surviving
            # checkpoint covering the swap clock proves the commit; a
            # record past the checkpoint is an aborted swap — ignore it
            # and replay through the pre-swap recipe.
            if int(record["t"]) <= barrier_t:
                _fold_swap(open_meta, record)
            continue
        if record.get("kind") != "ingest":
            raise WalCorruption(
                f"unexpected record kind {record.get('kind')!r} in log body"
            )
        seq_from = int(record["seq_from"])
        rows = np.asarray(record["rows"], dtype=np.float64)
        seq_to = seq_from + len(rows) - 1
        if expected is not None:
            if seq_to < expected:
                dropped += len(rows)  # duplicate replay of an acked block
                continue
            if seq_from > expected:
                raise WalCorruption(
                    f"log gap: expected seq {expected}, found record "
                    f"starting at {seq_from} — an acknowledged record "
                    "is missing"
                )
            if seq_from < expected:  # overlap: trim the already-seen rows
                dropped += expected - seq_from
                rows = rows[expected - seq_from :]
                seq_from = expected
        expected = seq_to + 1
        if seq_to <= barrier_t:
            dropped += len(rows)  # fully behind the checkpoint
            continue
        if seq_from <= barrier_t:  # straddles the checkpoint: trim
            dropped += barrier_t + 1 - seq_from
            rows = rows[barrier_t + 1 - seq_from :]
            seq_from = barrier_t + 1
        blocks.append((seq_from, rows))
    return open_meta, blocks, dropped


class SessionWal:
    """One stream's write-ahead log + barrier checkpoint, the session's
    only checkpoint: :meth:`barrier` writes it, :meth:`open` installs a
    resumed stream's shipped one, :meth:`reattach` recovers from it.

    All mutation happens under the owning session's lock (the scheduler
    and store already serialize on it), so the log needs no lock of its
    own.

    Args:
        config: directory / fsync / barrier-interval knobs.
        stream_id: the session key (hashed into the filenames).
        telemetry: sink for the ``wal_appends`` / ``wal_barriers`` /
            ``wal_truncated`` counters.
    """

    def __init__(
        self,
        config: WalConfig,
        stream_id: str,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.config = config
        self.stream_id = stream_id
        self.dir = Path(config.dir)
        self.path = self.dir / wal_filename(stream_id)
        self.barrier_path = self.dir / barrier_filename(stream_id)
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._durable = config.fsync != "never"
        self._handle = None
        #: stream clock of the newest barrier checkpoint (-1: none yet).
        self.barrier_t = -1
        self.n_appends = 0

    # ------------------------------------------------------------------
    def open(self, meta: dict[str, Any], checkpoint: Path | None = None) -> None:
        """Start a fresh log with one ``open`` record.

        ``meta`` must carry everything recovery needs to rebuild the
        session without this process's memory: the stream id, spec
        label, channel count, detector config dict and scorer.  An
        existing log at this path is an error — the store's recovery
        pass must adopt or discard it first.

        ``checkpoint`` (a resumed stream's shipped file) is copied into
        the barrier slot *before* the record is written, so no log exists
        without its anchor, and removed once the record is on disk.
        Without one, a barrier left in the slot (a crash inside an
        earlier close of this stream id) is removed instead, so recovery
        never anchors the new log on it.
        """
        if self.path.exists():
            raise WalError(
                f"log {self.path} already exists; recover or remove it "
                "before opening a new session on this stream id"
            )
        self.dir.mkdir(parents=True, exist_ok=True)
        record = {"kind": "open", "stream": self.stream_id, **meta}
        if checkpoint is None:
            self.barrier_path.unlink(missing_ok=True)
        else:
            shipped = transfer_checkpoint(
                checkpoint, self.barrier_path, durable=self._durable
            )
            self.barrier_t = int(shipped["t"])
            record["resume_seq"] = self.barrier_t + 1
        self._handle = open(self.path, "ab")
        self._write(record, sync=self._durable)
        if self._durable:
            fsync_dir(self.dir)
        if checkpoint is not None:
            checkpoint.unlink(missing_ok=True)

    @classmethod
    def reattach(
        cls,
        config: WalConfig,
        path: Path,
        telemetry: Telemetry | None = None,
    ) -> tuple["SessionWal", dict[str, Any], list[tuple[int, np.ndarray]], int, bool]:
        """Re-attach an orphaned log left by a crashed process.

        Truncates a torn tail, anchors on the barrier's clock (``-1``
        without one), plans the replay and checks it starts right after
        the anchor, then scrubs aborted swaps — before the caller
        replays, since a mid-replay barrier compacts the log and folds
        swap records by clock alone.  Returns ``(wal, open_meta, blocks,
        dropped, torn)``, the log open for appends; raises
        :class:`WalCorruption` on a log that cannot replay honestly.
        """
        records, good_bytes, torn = read_records(path)
        if torn:
            # A crash mid-append tore the tail record.  It was never
            # acknowledged (append happens before the ack), so dropping
            # it is correct — the client still holds the data.
            with open(path, "rb+") as handle:
                handle.truncate(good_bytes)
            (telemetry or NULL_TELEMETRY).count("wal_torn_tails")
        if not records:
            raise WalCorruption(f"log {path.name} has no complete records")
        stream = records[0].get("stream")
        if not isinstance(stream, str):
            raise WalCorruption(f"log {path.name} names no stream id")
        wal = cls(config, stream, telemetry=telemetry)
        if wal.path != path:
            raise WalCorruption(
                f"log {path.name} claims stream {stream!r}, which hashes "
                f"to {wal.path.name}"
            )
        if wal.barrier_path.exists():
            wal.barrier_t = int(peek_checkpoint(wal.barrier_path)["t"])
        open_meta, blocks, dropped = plan_replay(records, wal.barrier_t)
        start = blocks[0][0] if blocks else int(open_meta.get("resume_seq", 0))
        if start > wal.barrier_t + 1:
            raise WalCorruption(
                f"log {path.name} resumes at seq {start} but its barrier "
                f"checkpoint stops at t={wal.barrier_t}; acknowledged "
                "entries between them are gone"
            )
        wal.scrub_aborted_swaps(wal.barrier_t)
        wal._handle = open(wal.path, "ab")
        return wal, open_meta, blocks, dropped, torn

    def scrub_aborted_swaps(self, barrier_t: int) -> int:
        """Remove swap records past ``barrier_t`` from the log file.

        A swap record whose clock outruns every durable checkpoint is an
        aborted intent: the crash hit between the record and its commit
        checkpoint.  Replay planning already ignores it, but it must not
        survive on disk — a *later* barrier compaction folds swap
        records by clock alone and would resurrect the aborted recipe.
        Returns the number of records scrubbed.
        """
        records, _, _ = read_records(self.path)
        keep = [
            record
            for record in records
            if record.get("kind") != "swap" or int(record["t"]) <= barrier_t
        ]
        if len(keep) < len(records):
            self._rewrite(keep)
        return len(records) - len(keep)

    # ------------------------------------------------------------------
    def _write(self, record: dict[str, Any], sync: bool) -> None:
        """Append one framed record; ``sync`` fsyncs it."""
        if self._handle is None:
            raise WalError(f"log for stream {self.stream_id!r} is not open")
        self._handle.write(_frame(record))
        self._handle.flush()
        if sync:
            os.fsync(self._handle.fileno())

    def _rewrite(self, records: list[dict[str, Any]]) -> None:
        """Atomically replace the log file with ``records``."""
        if self._handle is not None:  # closed, reopened on the new file
            self._handle.close()
        try:
            atomic_write(
                self.path,
                lambda handle: handle.writelines(map(_frame, records)),
                durable=self._durable,
            )
        finally:
            if self._handle is not None:
                self._handle = open(self.path, "ab")

    def append(self, seq_from: int, block: np.ndarray) -> None:
        """Log one accepted ingest block (call *before* acknowledging)."""
        self._write(
            {
                "kind": "ingest",
                "seq_from": int(seq_from),
                "rows": np.ascontiguousarray(block, dtype=np.float64),
            },
            sync=self.config.fsync == "always",
        )
        self.n_appends += 1
        self.telemetry.count("wal_appends")

    def log_swap(self, meta: dict[str, Any]) -> None:
        """Log a hot-swap intent (``meta``: ``t`` / ``spec`` / ``config``
        / ``scorer`` / ``results``) — step one of the swap protocol.

        Fsynced under every policy but ``never``: the record must be
        durable *before* the swap's barrier (the commit point), so
        recovery can always tell a committed swap (checkpoint covers
        the record's ``t``) from an aborted one (it does not).  Swaps
        are rare; the extra fsync is off the steady-state hot path.
        """
        self._write(
            {"kind": "swap", "stream": self.stream_id, **meta},
            sync=self._durable,
        )
        self.telemetry.count("wal_swaps")

    # ------------------------------------------------------------------
    def barrier(self, detector, compact: bool | None = None) -> int:
        """Checkpoint the detector and compact the log past its clock.

        Two steps, each individually crash-safe, in an order that never
        loses data: (1) save the detector to the barrier checkpoint
        (atomic, fsynced unless the policy is ``never``), (2) rewrite
        the log keeping only the entries past the checkpoint's ``t``.  A
        crash between them leaves a new checkpoint and an over-long log
        — replay dedups the already-scored entries, so the only cost is
        wasted replay work.

        Step (2) is disk-space hygiene, not correctness — replay cost is
        bounded by the checkpoint's clock whether or not the stale
        prefix is still on disk — so by default it only runs once the
        log has accumulated :data:`COMPACT_MIN_BYTES` (barriers are on
        the scoring hot path; a full log rewrite per barrier is not).
        Pass ``compact=True``/``False`` to force either way.

        Returns the number of rows truncated from the log.
        """
        if self._handle is None:
            raise WalError(f"log for stream {self.stream_id!r} is not open")
        save_detector(detector, self.barrier_path, durable=self._durable)
        t = int(detector.t)
        self.barrier_t = t
        self.telemetry.count("wal_barriers")
        self._handle.flush()
        if compact is None:
            compact = self._handle.tell() >= COMPACT_MIN_BYTES
        if not compact:
            return 0
        records, _, _ = read_records(self.path)
        if not records or records[0].get("kind") != "open":
            raise WalError(f"log {self.path} lost its open record")
        open_record = dict(records[0])
        open_record["barrier_t"] = t
        keep = []
        truncated = 0
        for record in records[1:]:
            if record.get("kind") == "swap":
                # A swap at or before the barrier clock is part of the
                # recipe the checkpoint already embodies — fold it into
                # the rewritten open record instead of keeping the body
                # record (swaps happen at scored offsets, so ``> t`` is
                # unreachable, kept only as a safety net).
                if int(record["t"]) <= t:
                    _fold_swap(open_record, record)
                    if int(record["t"]) < t:
                        # A later barrier superseded the swap boundary:
                        # the carried results are stale (delivered, or
                        # lost under ordinary barrier semantics) — keep
                        # the recipe, drop the payload.
                        open_record["swap_results"] = []
                else:  # pragma: no cover — swaps never outrun the clock
                    keep.append(record)
                continue
            rows = record["rows"]
            if int(record["seq_from"]) + len(rows) - 1 > t:
                keep.append(record)
            else:
                truncated += len(rows)
        self._rewrite([open_record, *keep])
        if truncated:
            self.telemetry.count("wal_truncated", truncated)
        return truncated

    def due_for_barrier(self, scored: int) -> bool:
        """Whether ``scored`` points (stream clock + 1) warrant a barrier."""
        return scored - (self.barrier_t + 1) >= self.config.barrier_interval

    # ------------------------------------------------------------------
    def close(self, delete: bool = True) -> None:
        """Close the handle; ``delete=True`` removes log + checkpoint.

        Deletion is the *last* step of a session close — the caller must
        have drained buffered results first, so a crash any earlier
        still leaves a recoverable log on disk.  The log goes first: a
        crash between the two unlinks leaves a barrier without a log,
        which the next :meth:`open` of this stream id removes.
        """
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        if delete:
            self.path.unlink(missing_ok=True)
            self.barrier_path.unlink(missing_ok=True)
            if self._durable:
                fsync_dir(self.dir)
