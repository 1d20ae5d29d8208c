"""Micro-batch scheduling: coalesce, bound, drain fairly.

Per-point scoring wastes the chunked engine — one ``step_chunk`` call
over ``B`` buffered points costs far less than ``B`` calls over one (see
``BENCH_stream.json``).  The scheduler buys that batching without
unbounded latency or memory:

- **Coalescing.**  Ingested points sit in the session's queue until the
  batch fills (``max_batch``) or the oldest point has waited
  ``max_delay_ms`` — the classic micro-batch trade of a bounded delay
  for a bigger block.  A ``score`` request flushes synchronously, so an
  interactive client never waits for the timer.
- **Backpressure.**  Queues are bounded (``queue_limit``).  An ingest
  that does not fit is rejected whole with :class:`QueueFull`, carrying
  a ``retry_after`` hint — the caller holds the data, the server's
  memory stays bounded.  Result buffers are bounded too
  (``result_limit``); a session whose client stops collecting stops
  being drained (``drain_blocked``), which propagates the pressure back
  to its ingest queue without stalling other sessions.
- **Fairness.**  The drain pass visits sessions round-robin, at most one
  micro-batch per session per pass, so a firehose stream cannot starve a
  trickle stream.
- **Fusion.**  Every drain is one
  :class:`~repro.streaming.fleet.FleetEngine` call.  Due sessions
  sharing a spec fingerprint
  (:attr:`~repro.serve.session.DetectorSession.fleet_key`) are drained
  together — K same-spec micro-batches become a handful of session-axis
  batched kernels instead of K small ones.  The engine (and its weight
  arena) is cached per group and reused while the membership is stable,
  so steady-state drains pay no re-stacking cost.  A lone session drains
  through a one-member engine, which the engine's ``min_fleet`` bypass
  steps per session.  Sessions whose drift strategy fires mid-drain stay
  grouped: the engine runs their fine-tunes fused (session-axis training
  kernels) and resumes fused scoring, so drift-heavy fleets keep a high
  ``fused_fraction``.

All scheduling decisions change only *when* points are scored, never
*what* is computed — the chunked engine's bitwise invariance to block
boundaries, and the fleet engine's bitwise equivalence to per-session
``step_chunk``, mean any drain order, any batch size and any grouping
yield scores identical to the offline
:func:`~repro.streaming.runner.run_stream`.
"""

from __future__ import annotations

import contextlib
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.core.exceptions import ConfigurationError, ReproError, StreamError
from repro.obs import NULL_TELEMETRY, Telemetry, merge_summaries
from repro.serve.session import DetectorSession
from repro.streaming.fleet import FleetEngine


class QueueFull(ReproError):
    """An ingest batch did not fit in the session's bounded queue.

    Attributes:
        stream_id: the session whose queue is full.
        depth: current queue depth.
        limit: the configured bound.
        retry_after: seconds after which a retry is likely to succeed
            (one micro-batch delay — by then the drain loop has run).
    """

    def __init__(
        self, stream_id: str, depth: int, limit: int, retry_after: float
    ) -> None:
        super().__init__(
            f"ingest queue for stream {stream_id!r} is full "
            f"({depth}/{limit} points); retry after {retry_after:.3f}s"
        )
        self.stream_id = stream_id
        self.depth = depth
        self.limit = limit
        self.retry_after = retry_after


@dataclass(frozen=True)
class SchedulerConfig:
    """Micro-batch and backpressure knobs.

    Attributes:
        max_batch: largest block coalesced into one ``step_chunk`` call;
            also the flush trigger on depth.
        max_delay_ms: bound on how long a buffered point may wait before
            the drain loop flushes its session anyway.
        queue_limit: per-session ingest-queue bound (backpressure).
        result_limit: per-session scored-result bound; a full buffer
            pauses draining for that session until the client collects.
    """

    max_batch: int = 64
    max_delay_ms: float = 25.0
    queue_limit: int = 512
    result_limit: int = 8192

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ConfigurationError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_delay_ms < 0:
            raise ConfigurationError(
                f"max_delay_ms must be >= 0, got {self.max_delay_ms}"
            )
        if self.queue_limit < 1:
            raise ConfigurationError(
                f"queue_limit must be >= 1, got {self.queue_limit}"
            )
        if self.result_limit < self.max_batch:
            raise ConfigurationError(
                f"result_limit ({self.result_limit}) must be >= max_batch "
                f"({self.max_batch})"
            )


class MicroBatchScheduler:
    """Admission control + fair micro-batch draining over a session store.

    Args:
        store: the :class:`~repro.serve.state.SessionStore` holding the
            sessions (the scheduler rehydrates through it before
            flushing an evicted session).
        config: batching and backpressure bounds.
        telemetry: fleet-level sink for the admission/drain counters.
        clock: monotonic time source (injectable for tests).
    """

    def __init__(
        self,
        store,
        config: SchedulerConfig | None = None,
        telemetry: Telemetry | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.store = store
        self.config = config if config is not None else SchedulerConfig()
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._clock = clock
        self._work = threading.Event()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        #: round-robin cursor: the stream id drained last, so the next
        #: pass starts just after it.
        self._rr_last: str | None = None
        #: fused-drain engine cache: fleet_key -> (detector id tuple,
        #: engine, member sessions).  The id tuple detects membership or
        #: rehydration changes (the engine holds the detectors, so the
        #: ids stay valid while the entry lives); a mismatch rebuilds
        #: the engine and its weight arena.
        self._fleets: dict[tuple, tuple[tuple, FleetEngine, list]] = {}
        #: optional hook run by the drain loop whenever it goes idle
        #: (the service wires the idle-session eviction sweep here).
        self.on_idle: Callable[[], Any] | None = None
        #: optional :class:`~repro.obs.RunLog` the service wires in so
        #: hot-swap promotions land in the deterministic audit log.
        self.run_log = None

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def submit(
        self,
        session: DetectorSession,
        block: np.ndarray,
        expect: int | None = None,
    ) -> tuple[int, int, bool]:
        """Enqueue a validated block; returns ``(seq_from, seq_to, dup)``.

        All-or-nothing: partial accepts would force clients to track
        split batches; rejecting whole keeps the retry loop trivial.
        Raises :class:`QueueFull` when the block does not fit.

        ``expect`` is the client's claimed next sequence number, making
        ingest **idempotent**: a block whose span the session has already
        assigned (``expect + len < seq``) is an exact replay of an
        acknowledged request whose reply was lost — it is dropped and
        re-acknowledged with ``dup=True`` instead of double-scored.  An
        ``expect`` *ahead* of the session is a protocol violation (the
        client skipped data) and is rejected.  ``expect`` is a
        non-negative ``int``: :meth:`~repro.serve.server.DetectionService.ingest`
        checks it before the block gets here, with the rule
        ``parse_request`` applies on the wire (truncating 4.9 to 4 would
        re-acknowledge a new point as a duplicate and drop it).

        When the session carries a WAL, the block is appended to the log
        *before* it enters the queue — an exception from the append
        (disk full, torn directory) means nothing was accepted and the
        client is never acknowledged for data that could not be made
        durable.
        """
        with session.lock:
            if expect is not None and expect != session.seq:
                if expect + len(block) <= session.seq:
                    self.telemetry.count("ingest_deduped")
                    return expect, expect + len(block) - 1, True
                raise StreamError(
                    f"stream {session.stream_id!r} is at seq "
                    f"{session.seq} but the ingest expected "
                    f"{expect}; refusing a gapped or partially "
                    "overlapping replay"
                )
            depth = session.queue_depth
            if depth + len(block) > self.config.queue_limit:
                self.telemetry.count("ingest_rejected")
                raise QueueFull(
                    session.stream_id,
                    depth,
                    self.config.queue_limit,
                    retry_after=self.retry_after(),
                )
            if session.wal is not None:
                session.wal.append(session.seq, block)
            span = session.enqueue(block)
        self.telemetry.count("points_ingested", len(block))
        self._work.set()
        return span[0], span[1], False

    def retry_after(self) -> float:
        """Backoff hint for rejected ingests: one micro-batch delay."""
        return max(self.config.max_delay_ms / 1000.0, 0.001)

    # ------------------------------------------------------------------
    # draining
    # ------------------------------------------------------------------
    def _due(self, session: DetectorSession, now: float) -> bool:
        return session.queue_depth >= self.config.max_batch or (
            session.queue_depth > 0
            and session.oldest_wait(now) * 1000.0 >= self.config.max_delay_ms
        )

    def _run_selection(self, session: DetectorSession, block, result) -> None:
        """Shadow-score the block and apply a promotion if one fired.

        Runs after the champion's ``flush_finish`` (latency samples are
        already recorded) and before the barrier check (a swap resets
        the barrier clock to the swap offset, so the barrier it just
        took is never immediately redone).  Caller holds the session
        lock.
        """
        if session.race is None:
            return
        old_key = session.fleet_key
        promotion = session.run_selection(block, result, telemetry=self.telemetry)
        if promotion is None:
            return
        # The promoted detector changes identity (and usually spec), so
        # any cached fused engine for the old group is stale — drop it
        # rather than letting its weight arena pin the old detector.
        if old_key is not None:
            self._fleets.pop(old_key, None)
        if self.run_log is not None:
            self.run_log.log("session_promoted", **promotion)

    # ------------------------------------------------------------------
    # fused draining
    # ------------------------------------------------------------------
    def _fleet_engine(self, sessions: list[DetectorSession]) -> FleetEngine:
        """The :class:`FleetEngine` for one drain over ``sessions``.

        A same-spec group reuses its cached engine while the membership
        is stable.  An engine below ``min_fleet`` (a lone session) is
        built per drain and not cached: it has no arena to keep, and a
        ``score`` flush between pumps must not evict the group's engine.
        """
        key = sessions[0].fleet_key
        ids = tuple(id(session.detector) for session in sessions)
        cached = self._fleets.get(key)
        if cached is not None and cached[0] == ids:
            return cached[1]
        engine = FleetEngine(
            [session.detector for session in sessions], telemetry=self.telemetry
        )
        if len(sessions) >= engine.min_fleet:
            self._fleets[key] = (ids, engine, list(sessions))
        return engine

    def _drain(self, members: list[DetectorSession]) -> int:
        """One micro-batch per member, through one fleet-engine call.

        The scheduler's only drain: a same-spec group, a lone due session
        and :meth:`flush_session` all come through here.  Bitwise neutral
        — the fleet engine is pinned to per-session ``step_chunk``
        (``tests/test_fleet.py``), and members it cannot fuse step
        through their own engine inside the call.
        """
        # Sorted lock order keeps concurrent group flushes deadlock-free.
        members = sorted(members, key=lambda s: s.stream_id)
        scored = 0
        with contextlib.ExitStack() as stack:
            for session in members:
                stack.enter_context(session.lock)
            # Rehydrate before popping any queue: a session with queued
            # points is never an eviction candidate, so the capacity
            # enforcement a rehydrate triggers cannot spill a groupmate.
            ready: list[DetectorSession] = []
            for session in members:
                if session.queue_depth == 0:
                    continue
                if self.config.result_limit - session.n_results <= 0:
                    self.telemetry.count("drain_blocked")
                    continue
                if not session.hydrated:
                    self.store.rehydrate(session)
                ready.append(session)
            prepared = []
            for session in ready:
                room = self.config.result_limit - session.n_results
                batch = session.flush_prepare(min(self.config.max_batch, room))
                if batch is not None:
                    prepared.append((session, batch))
            if not prepared:
                return 0
            engine = self._fleet_engine([s for s, _ in prepared])
            fused_before = engine.fused_steps
            finetunes_before = engine.finetunes_fused
            points_training_before = engine.points_fused_training
            results = engine.step_chunk([batch[2] for _, batch in prepared])
            for (session, (seqs, waits, block)), result in zip(prepared, results):
                scored += session.flush_finish(seqs, waits, result)
                self._run_selection(session, block, result)
                self.telemetry.count("batches_flushed")
            # A drain counts as fused only if the engine fused a row
            # (a uRES group, say, drains entirely on the stock lane).
            fused = engine.fused_steps - fused_before
            if fused:
                self.telemetry.count("fused_drains")
                self.telemetry.count("points_fused", fused)
            finetunes = engine.finetunes_fused - finetunes_before
            if finetunes:
                self.telemetry.count("finetunes_fused", finetunes)
                self.telemetry.count(
                    "points_fused_training",
                    engine.points_fused_training - points_training_before,
                )
            for session, _ in prepared:
                self._maybe_barrier(session)
        if scored:
            self.telemetry.count("points_scored", scored)
        return scored

    def _maybe_barrier(self, session: DetectorSession) -> None:
        """Barrier the session's WAL once a full interval has been scored.

        Caller holds the session lock with the detector hydrated (it
        just flushed through it), so the checkpoint captures exactly the
        state the next replay must resume from.
        """
        wal = session.wal
        if wal is None or not session.hydrated:
            return
        if wal.due_for_barrier(session.scored):
            wal.barrier(session.detector)

    def fleet_manifests(self) -> dict[str, dict]:
        """Per-group fleet summaries for the ``stats`` verb.

        Each block is the group's :meth:`FleetEngine.manifest` plus an
        ingest-latency rollup over the member sessions' reservoirs.
        """
        out: dict[str, dict] = {}
        for key, (_, engine, sessions) in self._fleets.items():
            manifest = engine.manifest()
            manifest["ingest_latency"] = merge_summaries(
                [session.latency for session in sessions]
            )
            manifest["streams"] = [session.stream_id for session in sessions]
            label = f"{key[0]}@{key[1]}ch#{key[2][:8]}"
            out[label] = manifest
        return out

    def flush_session(self, session: DetectorSession) -> int:
        """Synchronously drain one session's whole queue (the ``score``
        verb's flush), stopping early only if its result buffer fills."""
        total = 0
        while True:
            scored = self._drain([session])
            if scored == 0:
                return total
            total += scored

    def pump(self, now: float | None = None) -> int:
        """One fair drain pass: each due session gets one micro-batch.

        Due sessions sharing a :attr:`fleet_key` are drained together
        through one fused group call; every other due session drains
        alone.  Returns the number of points scored; callers loop while
        it makes progress.  Visiting order rotates so the pass after a
        long batch resumes with the *next* session, not the same one.
        """
        now = now if now is not None else self._clock()
        sessions = self.store.sessions()
        if not sessions:
            return 0
        ids = [s.stream_id for s in sessions]
        start = 0
        if self._rr_last in ids:
            start = (ids.index(self._rr_last) + 1) % len(sessions)
        groups: dict[Any, list[DetectorSession]] = {}
        for offset in range(len(sessions)):
            session = sessions[(start + offset) % len(sessions)]
            if not self._due(session, now):
                continue
            # Racing sessions are pinned (non-evictable) but their
            # champions still join fused drains — the fleet key is the
            # champion's, and shadow lanes run per-session after the
            # fused flush.
            if session.fleet_key is not None and (
                session.evictable or session.race is not None
            ):
                groups.setdefault(session.fleet_key, []).append(session)
            else:
                groups[session.stream_id] = [session]
        scored = 0
        for members in groups.values():
            n = self._drain(members)
            if n:
                self._rr_last = members[-1].stream_id
                scored += n
        return scored

    def next_deadline_in(self, now: float | None = None) -> float | None:
        """Seconds until the oldest buffered point hits ``max_delay_ms``
        (``None`` when every queue is empty)."""
        now = now if now is not None else self._clock()
        waits = [
            session.oldest_wait(now)
            for session in self.store.sessions()
            if session.queue_depth > 0
        ]
        if not waits:
            return None
        return max(self.config.max_delay_ms / 1000.0 - max(waits), 0.0)

    # ------------------------------------------------------------------
    # drain thread
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the background drain loop (idempotent)."""
        if self._thread is not None and self._thread.is_alive():
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._drain_loop, name="repro-serve-drain", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        """Stop the drain loop and wait for it to exit."""
        self._stop.set()
        self._work.set()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None

    def _drain_loop(self) -> None:
        while not self._stop.is_set():
            if self.pump() == 0:
                if self.on_idle is not None:
                    self.on_idle()
                deadline = self.next_deadline_in()
                if deadline is None:
                    # Fully idle: drop cached fleet engines so their
                    # weight arenas stop pinning evicted detectors.
                    self._fleets.clear()
                # No queued work: sleep until woken; queued but not due:
                # sleep until the oldest point's deadline.
                timeout = deadline if deadline is not None else 0.25
                self._work.clear()
                self._work.wait(timeout=max(timeout, 0.001))
