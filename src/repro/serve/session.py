"""One live detector behind the service: queue, results, idle tracking.

A :class:`DetectorSession` wraps one detector (usually a
:class:`~repro.core.detector.StreamingAnomalyDetector` built from a
registry spec, but any object exposing the ``step_chunk`` contract works
— score-fusion ensembles included) with the state the service needs
around it:

- a **monotonic sequence number** per ingested point, so every scored
  result can be matched to the exact stream position it came from even
  though scoring happens asynchronously in micro-batches;
- a bounded **ingest queue** (filled by the scheduler's backpressure
  gate) and a bounded **result buffer** (drained by ``score`` requests);
- a per-session :class:`~repro.obs.Telemetry` attached to the detector,
  so ``stats`` can report per-stream counters and stage timers — and a
  fleet rollup, since telemetry payloads merge;
- **idle-time tracking** (``last_active``) that orders LRU eviction in
  the session store.

Sessions own no locks on the store; their own ``lock`` serializes
detector stepping, queue mutation and spill/rehydrate transitions.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.core.detector import StreamingAnomalyDetector
from repro.core.exceptions import StreamError
from repro.core.types import count_finetunes
from repro.obs import LatencyReservoir, Telemetry


class DetectorSession:
    """State of one live stream inside the detection service.

    Args:
        stream_id: the caller-chosen session key.
        detector: the live detector; anything with ``step_chunk``.
        n_channels: expected stream-vector width, validated at ingest
            time so a malformed point is rejected at the protocol edge
            instead of corrupting the detector mid-drain.
        spec_label: registry label for ``stats`` (e.g. ``"ae+sw+kswin"``).
        telemetry: per-session sink; attached to the detector when it
            carries a telemetry slot (duck-typed detectors run untraced).
        clock: monotonic time source (injectable for tests).
    """

    def __init__(
        self,
        stream_id: str,
        detector: Any,
        n_channels: int,
        spec_label: str = "custom",
        telemetry: Telemetry | None = None,
        clock: Callable[[], float] = time.monotonic,
        seq: int = 0,
    ) -> None:
        self.stream_id = stream_id
        self.detector = detector
        self.n_channels = int(n_channels)
        self.spec_label = spec_label
        self.telemetry = telemetry
        if telemetry is not None and isinstance(detector, StreamingAnomalyDetector):
            detector.telemetry = telemetry
        self._clock = clock
        self.lock = threading.RLock()

        #: next sequence number to assign (== points ingested so far).
        #: Non-zero when the session resumes a stream another process
        #: already served (migration / crash recovery): the checkpoint's
        #: ``t`` carries over so result sequence numbers stay continuous.
        self.seq = int(seq)
        #: points scored and moved to the result buffer so far.
        self.scored = int(seq)
        self.queue: deque[tuple[int, np.ndarray]] = deque()
        self.enqueued_at: deque[float] = deque()
        self.results: deque[dict[str, Any]] = deque()
        self.created_at = clock()
        self.last_active = self.created_at
        self.closed = False
        #: ingest→scored wait time per point, for p50/p99 in ``stats``.
        self.latency = LatencyReservoir()
        #: same-spec grouping key for the fused drain path; ``None``
        #: makes the session drain alone (custom detectors, or specs the
        #: service could not fingerprint).
        self.fleet_key: tuple | None = None

        #: evicted detector's checkpoint (spill or WAL barrier), set by the store.
        self.spill_path: Path | None = None
        self.n_evictions = 0
        self.n_rehydrations = 0

        #: per-session write-ahead ingest log
        #: (:class:`~repro.serve.wal.SessionWal`); ``None`` runs the
        #: session without durability.  Appended under this session's
        #: lock by the scheduler *before* an ingest is acknowledged;
        #: barriered after flushes and on evict/close.
        self.wal = None

        #: online algorithm selection
        #: (:class:`~repro.select.race.SelectionRace`); ``None`` runs
        #: the session without challenger lanes.  A session carrying a
        #: race is pinned in memory (never evicted) — its lanes are live
        #: state the spill checkpoint does not capture.
        self.race = None
        #: composable score postprocessors
        #: (:mod:`repro.select.postprocess`), applied in order to every
        #: champion score into the ``calibrated`` result field.  Held at
        #: session level so calibration state survives a hot-swap.
        self.postprocess: list = []
        #: shadow-lane cost accounting, kept out of the user-facing
        #: scoring counters and the ingest-latency reservoir so p50/p99
        #: stay comparable with selection off.
        self.points_shadow = 0
        self.shadow_ns = 0

    # ------------------------------------------------------------------
    @property
    def hydrated(self) -> bool:
        """Whether the detector is live in memory (vs evicted to disk)."""
        return self.detector is not None

    @property
    def evictable(self) -> bool:
        """Only full framework detectors checkpoint; duck-typed ones
        (e.g. ensembles) stay resident, and so do sessions racing
        challenger lanes (lane state is not in the spill checkpoint)."""
        if self.race is not None:
            return False
        return isinstance(self.detector, StreamingAnomalyDetector) or (
            self.detector is None and self.spill_path is not None
        )

    @property
    def queue_depth(self) -> int:
        return len(self.queue)

    @property
    def n_results(self) -> int:
        return len(self.results)

    def idle_seconds(self, now: float | None = None) -> float:
        return (now if now is not None else self._clock()) - self.last_active

    def touch(self) -> None:
        self.last_active = self._clock()

    # ------------------------------------------------------------------
    def validate_points(self, points: Any) -> np.ndarray:
        """Coerce an ingest payload to a finite ``(B, N)`` float block.

        Raises:
            StreamError: on a shape mismatch or non-finite values — the
                batch is rejected whole, before anything is enqueued, so
                detector state is never exposed to malformed input.
        """
        block = np.asarray(points, dtype=np.float64)
        if block.ndim == 1:
            block = block[:, None] if self.n_channels == 1 else block[None, :]
        if block.ndim != 2 or block.shape[1] != self.n_channels:
            raise StreamError(
                f"stream {self.stream_id!r} expects (B, {self.n_channels}) "
                f"points, got shape {block.shape}"
            )
        if not np.all(np.isfinite(block)):
            raise StreamError(
                f"stream {self.stream_id!r} ingest contains non-finite values"
            )
        return block

    def enqueue(self, block: np.ndarray) -> tuple[int, int]:
        """Append validated points; return their ``(seq_from, seq_to)``.

        Capacity is the scheduler's concern — it gates every call with
        the backpressure check before touching the queue.
        """
        with self.lock:
            now = self._clock()
            seq_from = self.seq
            for row in block:
                self.queue.append((self.seq, row))
                self.enqueued_at.append(now)
                self.seq += 1
            self.last_active = now
            return seq_from, self.seq - 1

    def oldest_wait(self, now: float | None = None) -> float:
        """Seconds the oldest queued point has been waiting (0 if none)."""
        if not self.enqueued_at:
            return 0.0
        return (now if now is not None else self._clock()) - self.enqueued_at[0]

    # ------------------------------------------------------------------
    def flush_prepare(
        self, max_batch: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """Pop up to ``max_batch`` queued points for scoring.

        Returns ``(seqs, enqueued_at, block)`` or ``None`` on an empty
        queue.  Caller must hold the session lock and follow up with
        :meth:`flush_finish` — the points are already off the queue.
        """
        k = min(len(self.queue), max_batch)
        if k == 0:
            return None
        if self.detector is None:
            raise RuntimeError(
                f"session {self.stream_id!r} flushed while evicted; "
                "the store must rehydrate first"
            )
        seqs = np.empty(k, dtype=np.int64)
        waits = np.empty(k, dtype=np.float64)
        rows = []
        for j in range(k):
            seq, row = self.queue.popleft()
            waits[j] = self.enqueued_at.popleft()
            seqs[j] = seq
            rows.append(row)
        return seqs, waits, np.stack(rows)

    def flush_finish(
        self,
        seqs: np.ndarray,
        enqueued_at: np.ndarray,
        result: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    ) -> int:
        """Append one scored block's results and record ingest latency."""
        a, f, drift, fine = result
        k = len(seqs)
        now = self._clock()
        for j in range(k):
            entry = {
                "seq": int(seqs[j]),
                "score": float(f[j]),
                "nonconformity": float(a[j]),
                "drift": bool(drift[j]),
                "finetuned": bool(fine[j]),
            }
            if self.postprocess:
                calibrated = entry["score"]
                for stage in self.postprocess:
                    calibrated = stage.update(calibrated)
                entry["calibrated"] = calibrated
            self.results.append(entry)
            self.latency.record(now - enqueued_at[j])
        self.scored += k
        self.last_active = now
        return k

    def run_selection(
        self,
        block: np.ndarray,
        result: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        telemetry: Telemetry | None = None,
    ) -> dict[str, Any] | None:
        """Shadow-score one just-flushed block and maybe hot-swap.

        Called by the scheduler *after* :meth:`flush_finish` — the
        champion's results and their ingest-latency samples are already
        recorded, so shadow-lane work never shows up in the user-facing
        percentiles.  It is timed into the separate ``shadow_ns`` /
        ``points_shadow`` accounting instead.  Returns the promotion
        event dict when the policy fired a hot-swap, else ``None``.
        Caller holds the session lock.
        """
        race = self.race
        if race is None:
            return None
        t0 = time.perf_counter_ns()
        lane = race.observe(block, result, self.detector)
        shadow_ns = time.perf_counter_ns() - t0
        shadow_points = len(block) * len(race.lanes)
        self.points_shadow += shadow_points
        self.shadow_ns += shadow_ns
        if telemetry is not None:
            telemetry.count("points_shadow", shadow_points)
            telemetry.count("shadow_ns", shadow_ns)
        if lane is None:
            return None
        from repro.select.swap import hot_swap

        # The triggering block's entries are the newest len(block)
        # results (flush_finish just appended them, same lock) — the
        # swap record carries them so a mid-swap crash can re-deliver.
        n = len(block)
        recent = list(self.results)[-n:] if n else []
        return hot_swap(self, lane, telemetry=telemetry, results=recent)

    def collect(self, max_results: int | None = None) -> list[dict[str, Any]]:
        """Drain up to ``max_results`` scored results, in sequence order."""
        with self.lock:
            k = len(self.results)
            if max_results is not None:
                k = min(k, max_results)
            out = [self.results.popleft() for _ in range(k)]
            if out:
                self.last_active = self._clock()
            return out

    # ------------------------------------------------------------------
    def describe(
        self, now: float | None = None, latency_window: bool = False
    ) -> dict[str, Any]:
        """JSON-safe session block for the ``stats`` verb.

        ``latency_window=True`` additionally includes the raw retained
        latency samples (``latency_window``), so a router can rebuild the
        reservoir and compute *fleet-level* percentiles with
        :func:`~repro.obs.merge_summaries` instead of averaging
        per-worker percentiles.
        """
        with self.lock:
            detector = self.detector
            info: dict[str, Any] = {
                "spec": self.spec_label,
                "n_channels": self.n_channels,
                "seq": self.seq,
                "scored": self.scored,
                "pending_points": len(self.queue),
                "pending_results": len(self.results),
                "hydrated": self.hydrated,
                "evictable": self.evictable,
                "n_evictions": self.n_evictions,
                "n_rehydrations": self.n_rehydrations,
                "idle_seconds": round(self.idle_seconds(now), 6),
                "ingest_latency": self.latency.summary(),
            }
            if latency_window:
                info["latency_window"] = self.latency.values().tolist()
            if self.wal is not None:
                info["wal"] = {
                    "appends": self.wal.n_appends,
                    "barrier_t": self.wal.barrier_t,
                    "fsync": self.wal.config.fsync,
                }
            if self.race is not None:
                info["selection"] = self.race.describe()
                info["shadow"] = {
                    "points_shadow": self.points_shadow,
                    "shadow_ns": self.shadow_ns,
                }
            if self.postprocess:
                info["postprocess"] = [
                    stage.describe() for stage in self.postprocess
                ]
            if detector is not None and hasattr(detector, "events"):
                info["n_finetunes"] = count_finetunes(detector.events)
            if self.telemetry is not None:
                info["telemetry"] = self.telemetry.as_dict()
            return info
