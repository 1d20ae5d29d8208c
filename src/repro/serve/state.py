"""Session store: LRU residency with checkpoint-backed eviction.

A long-lived service accumulates sessions faster than memory allows —
every live detector carries model parameters, a training set and scorer
history.  The store keeps at most ``max_live`` detectors hydrated; the
least-recently-active evictable session beyond that is checkpointed —
a WAL barrier if it has a write-ahead log (the log owns a logged
session's one checkpoint, a resumed one's shipped file included), else
a *spill* file written by :func:`~repro.streaming.checkpoint.save_detector`
into the spill directory — and dropped from memory.  The session
object itself — sequence numbers, queues, result buffer, telemetry —
stays resident; only the detector is swapped out.  The next point for
an evicted stream rehydrates it transparently, and because checkpoint
round-trips are bitwise-exact (``tests/test_checkpoint_roundtrip.py``),
an evicted and rehydrated session scores identically to one that never
left memory.

Spill files are named by a hash of the stream id (ids are caller-chosen
and may not be filesystem-safe) and deleted on rehydrate and on close.

Locking: the store lock guards the session map and residency decisions;
detector state is guarded by each session's own lock.  The eviction scan
acquires session locks non-blocking and skips busy sessions, so the
store never deadlocks against a drain in progress — under pressure it
prefers staying briefly over capacity to stalling the hot path.
"""

from __future__ import annotations

import hashlib
import time
from pathlib import Path
from threading import RLock
from typing import Callable

from repro.core.exceptions import ConfigurationError, ReproError
from repro.core.registry import Recipe
from repro.obs import NULL_TELEMETRY, Telemetry
from repro.serve.session import DetectorSession
from repro.serve.wal import WalConfig, wal_filename
from repro.streaming.checkpoint import load_detector, peek_checkpoint, save_detector


class UnknownSessionError(ReproError):
    """A request addressed a stream id with no session."""


class DuplicateSessionError(ReproError):
    """A ``create`` reused a stream id that is still open."""


class SpillCollisionError(ReproError):
    """Two distinct stream ids hashed to the same spill filename.

    A 10-byte blake2b digest makes this astronomically unlikely, but a
    silent collision would let one stream's eviction overwrite another's
    checkpoint — cross-stream state corruption that surfaces as bitwise
    divergence much later.  The store refuses the second stream instead.
    """


def spill_filename(stream_id: str) -> str:
    """Deterministic, filesystem-safe checkpoint name for a stream id."""
    digest = hashlib.blake2b(stream_id.encode("utf-8"), digest_size=10).hexdigest()
    return f"session-{digest}.ckpt"


class SessionStore:
    """All sessions of one service, with bounded detector residency.

    Args:
        spill_dir: directory for spill files (created eagerly).
        max_live: hydrated-detector bound; a soft limit — when every
            candidate is busy or non-evictable the store stays over
            capacity rather than blocking.
        telemetry: fleet sink for eviction/rehydration counters.
        clock: monotonic time source shared with the sessions.
    """

    def __init__(
        self,
        spill_dir: str | Path,
        max_live: int = 64,
        telemetry: Telemetry | None = None,
        clock: Callable[[], float] = time.monotonic,
        wal_config: WalConfig | None = None,
    ) -> None:
        if max_live < 1:
            raise ConfigurationError(f"max_live must be >= 1, got {max_live}")
        self.spill_dir = Path(spill_dir)
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        self.max_live = max_live
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._clock = clock
        #: when set, sessions may carry a write-ahead log, and the startup
        #: sweep lists the logs in its directory that no session owns.
        self.wal_config = wal_config
        self._lock = RLock()
        self._sessions: dict[str, DetectorSession] = {}
        #: spill filename -> owning stream id (the collision guard).
        self._spill_claims: dict[str, str] = {}
        #: write-ahead logs found at startup that no live session owns —
        #: populated by the sweep, consumed by the service's recovery
        #: pass before it accepts traffic.
        self.orphaned_wals: list[Path] = []
        #: spill files found at startup that no live session owns — left
        #: by a crashed process.  Reported, never deleted: a router
        #: re-homing streams after a worker death adopts exactly these.
        self.orphaned_spills: list[Path] = self.startup_sweep()

    def startup_sweep(self) -> list[Path]:
        """Detect spill files no open session owns (crash leftovers).

        Returns the orphaned paths sorted by name and counts them into
        the fleet telemetry (``orphaned_spills``).  Files are *kept*:
        they may be adopted via :meth:`adopt` (crash recovery), and
        deleting state is the operator's call, not the store's.
        """
        with self._lock:
            owned = {
                spill_filename(stream_id) for stream_id in self._sessions
            }
            orphans = sorted(
                path
                for path in self.spill_dir.glob("session-*.ckpt")
                if path.name not in owned
            )
        if orphans:
            self.telemetry.count("orphaned_spills", len(orphans))
            self.telemetry.event(
                "orphaned_spills",
                n=len(orphans),
                files=[path.name for path in orphans[:16]],
            )
        if self.wal_config is not None:
            wal_dir = Path(self.wal_config.dir)
            wal_dir.mkdir(parents=True, exist_ok=True)
            with self._lock:
                owned_wals = {
                    wal_filename(stream_id) for stream_id in self._sessions
                }
                self.orphaned_wals = sorted(
                    path
                    for path in wal_dir.glob("session-*.wal")
                    if path.name not in owned_wals
                )
            if self.orphaned_wals:
                self.telemetry.event(
                    "orphaned_wals",
                    n=len(self.orphaned_wals),
                    files=[path.name for path in self.orphaned_wals[:16]],
                )
        return orphans

    def _claim_spill(self, stream_id: str) -> None:
        """Reserve the stream's spill filename; must hold the lock."""
        name = spill_filename(stream_id)
        owner = self._spill_claims.get(name)
        if owner is not None and owner != stream_id:
            raise SpillCollisionError(
                f"streams {owner!r} and {stream_id!r} both hash to spill "
                f"file {name!r}; refusing to share a checkpoint slot"
            )
        self._spill_claims[name] = stream_id

    # ------------------------------------------------------------------
    def _register(
        self, stream_id: str, detector, spill_path: Path | None = None, **fields
    ) -> DetectorSession:
        """Build a session and add it to the map (create and adopt)."""
        session = DetectorSession(stream_id, detector, clock=self._clock, **fields)
        session.spill_path = spill_path
        with self._lock:
            if stream_id in self._sessions:
                raise DuplicateSessionError(
                    f"stream {stream_id!r} already has an open session"
                )
            self._claim_spill(stream_id)
            self._sessions[stream_id] = session
            self.orphaned_spills = [
                orphan for orphan in self.orphaned_spills if orphan != spill_path
            ]
        return session

    def create(
        self,
        stream_id: str,
        detector,
        n_channels: int,
        recipe: Recipe | None = None,
        label: str = "custom",
        telemetry: Telemetry | None = None,
        seq: int = 0,
    ) -> DetectorSession:
        """Register a new session and enforce the residency bound.

        ``seq`` is non-zero only for crash recovery: the session resumes
        a stream mid-sequence with a detector already rebuilt to that
        point (WAL replay), so result sequence numbers stay continuous.
        """
        session = self._register(
            stream_id,
            detector,
            n_channels=n_channels,
            recipe=recipe,
            label=label,
            telemetry=telemetry,
            seq=seq,
        )
        self.telemetry.count("sessions_created")
        self.enforce_capacity(protect=session)
        return session

    def adopt(
        self,
        stream_id: str,
        n_channels: int,
        seq: int,
        recipe: Recipe | None = None,
        telemetry: Telemetry | None = None,
    ) -> DetectorSession:
        """Register a session resuming from a pre-placed spill file.

        The migration / crash-recovery entry point: the detector is
        *not* built — the session starts evicted, pointing at the spill
        checkpoint already sitting in this store's directory (placed by
        :func:`~repro.streaming.checkpoint.transfer_checkpoint`, or left
        by this worker's previous incarnation), and rehydrates on its
        first flush.  ``seq`` must be one past the checkpoint's last
        processed index (meta ``t + 1``) so result sequence numbers
        continue without a gap, and the checkpoint must hold the model
        ``recipe`` names (:meth:`Recipe.check_checkpoint`); anything else
        is refused before the session exists, leaving the file in place
        for a corrected retry.
        """
        path = self.spill_path_for(stream_id)
        if not path.exists():
            raise UnknownSessionError(
                f"no spill checkpoint at {path} to resume stream "
                f"{stream_id!r} from"
            )
        meta = peek_checkpoint(path)
        t = int(meta["t"])
        if seq != t + 1:
            raise ConfigurationError(
                f"resume seq {seq} does not continue the checkpoint for "
                f"stream {stream_id!r}, which stops at t={t} (expected "
                f"seq {t + 1})"
            )
        if recipe is not None:
            recipe.check_checkpoint(meta)
        session = self._register(
            stream_id,
            None,
            spill_path=path,
            n_channels=n_channels,
            recipe=recipe,
            telemetry=telemetry,
            seq=seq,
        )
        self.telemetry.count("sessions_adopted")
        return session

    def get(self, stream_id: str) -> DetectorSession:
        with self._lock:
            session = self._sessions.get(stream_id)
        if session is None:
            raise UnknownSessionError(f"no open session for stream {stream_id!r}")
        return session

    def sessions(self) -> list[DetectorSession]:
        """Snapshot of the open sessions (insertion order)."""
        with self._lock:
            return list(self._sessions.values())

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def hydrated_count(self) -> int:
        with self._lock:
            return sum(1 for s in self._sessions.values() if s.hydrated)

    # ------------------------------------------------------------------
    # eviction / rehydration
    # ------------------------------------------------------------------
    def spill_path_for(self, stream_id: str) -> Path:
        return self.spill_dir / spill_filename(stream_id)

    def evict(self, session: DetectorSession) -> Path:
        """Checkpoint one session's detector and drop it from memory.

        A session with a write-ahead log takes a barrier and rehydrates
        from its checkpoint; one without spills to its own file.  The
        caller must drain the queue first (``flush`` before a forced
        evict); the capacity scan only picks empty-queue sessions.  Safe
        to call with the session lock held.  Returns the checkpoint path.
        """
        with session.lock:
            if not session.hydrated:
                return session.spill_path  # already evicted
            if not session.evictable:
                raise ConfigurationError(
                    f"session {session.stream_id!r} wraps a detector that "
                    "cannot checkpoint; it must stay resident"
                )
            if session.wal is not None:
                session.wal.barrier(session.detector)
                path = session.wal.barrier_path
            else:
                path = self.spill_path_for(session.stream_id)
                save_detector(session.detector, path)
            session.detector = None
            session.spill_path = path
            session.n_evictions += 1
        self.telemetry.count("sessions_evicted")
        return path

    def rehydrate(self, session: DetectorSession) -> None:
        """Load an evicted session's detector back into memory.

        Called by the scheduler (under the session lock) right before a
        flush.  Re-attaches the session's telemetry — checkpoints never
        persist a sink — and frees a spill file (a barrier checkpoint
        stays), then re-enforces the residency bound, which may push out
        a colder session.
        """
        with session.lock:
            if session.hydrated:
                return
            if session.spill_path is None:
                raise UnknownSessionError(
                    f"session {session.stream_id!r} has no detector and no "
                    "spill checkpoint"
                )
            detector = load_detector(session.spill_path)
            if session.telemetry is not None:
                detector.telemetry = session.telemetry
            session.detector = detector
            if session.wal is None:
                session.spill_path.unlink(missing_ok=True)
            session.spill_path = None
            session.n_rehydrations += 1
            session.touch()
        self.telemetry.count("sessions_rehydrated")
        self.enforce_capacity(protect=session)

    def enforce_capacity(self, protect: DetectorSession | None = None) -> int:
        """Evict LRU sessions until at most ``max_live`` are hydrated.

        Candidates must be hydrated, evictable, idle (empty ingest
        queue) and not ``protect`` (the session that just triggered the
        check).  Busy sessions are skipped via a non-blocking lock
        acquire.  Returns the number of evictions performed.
        """
        evicted = 0
        while True:
            with self._lock:
                live = [s for s in self._sessions.values() if s.hydrated]
                if len(live) <= self.max_live:
                    return evicted
                candidates = sorted(
                    (
                        s
                        for s in live
                        if s is not protect and s.evictable and s.queue_depth == 0
                    ),
                    key=lambda s: s.last_active,
                )
            victim = None
            for candidate in candidates:
                if candidate.lock.acquire(blocking=False):
                    try:
                        if (
                            candidate.hydrated
                            and candidate.queue_depth == 0
                            and not candidate.closed
                        ):
                            self.evict(candidate)
                            victim = candidate
                            break
                    finally:
                        candidate.lock.release()
            if victim is None:
                # Everything is busy or pinned; stay over capacity
                # rather than blocking the hot path.
                self.telemetry.count("evictions_skipped")
                return evicted
            evicted += 1

    def evict_idle(self, max_idle_seconds: float) -> int:
        """Evict every evictable session idle longer than the threshold
        (independent of the capacity bound; a memory-release sweep)."""
        now = self._clock()
        evicted = 0
        for session in self.sessions():
            if not (
                session.hydrated
                and session.evictable
                and session.queue_depth == 0
                and session.idle_seconds(now) >= max_idle_seconds
            ):
                continue
            if session.lock.acquire(blocking=False):
                try:
                    if session.hydrated and session.queue_depth == 0:
                        self.evict(session)
                        evicted += 1
                finally:
                    session.lock.release()
        return evicted

    # ------------------------------------------------------------------
    def close(self, stream_id: str) -> DetectorSession:
        """Remove a session and its on-disk state; return it for a summary.

        Ordering matters for crash safety: the caller drains buffered
        results *first* (see ``DetectionService.close_session``), then a
        final WAL barrier persists the detector's last state, and only
        then — as the very last step — are the spill, log and barrier
        checkpoint deleted.  A crash anywhere before the deletions
        leaves a fully recoverable stream on disk; the old order
        (delete, then drain) lost both the files and the undrained
        results in that window.
        """
        with self._lock:
            session = self._sessions.get(stream_id)
        if session is None:
            raise UnknownSessionError(f"no open session for stream {stream_id!r}")
        with session.lock:
            if session.wal is not None and session.hydrated:
                session.wal.barrier(session.detector)
            session.closed = True
            session.detector = None
            with self._lock:
                self._sessions.pop(stream_id, None)
                self._spill_claims.pop(spill_filename(stream_id), None)
            self._delete_session_files(session)
        self.telemetry.count("sessions_closed")
        return session

    def _delete_session_files(self, session: DetectorSession) -> None:
        """Remove a closed session's spill or WAL files (the final step).

        A logged session's checkpoint is its barrier, which the log
        deletes after itself.  Split out so tests can inject a crash
        between bookkeeping and deletion and assert the stream is still
        recoverable.
        """
        if session.wal is not None:
            session.wal.close(delete=True)
        elif session.spill_path is not None:
            session.spill_path.unlink(missing_ok=True)
        session.spill_path = None
