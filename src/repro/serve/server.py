"""The detection service: protocol dispatch, in-process client, TCP server.

Three layers share one request path:

- :class:`DetectionService` is the transport-free core — session store +
  micro-batch scheduler + fleet telemetry behind a single
  :meth:`~DetectionService.handle` that maps protocol requests to
  replies.  Everything above it is plumbing.
- :class:`ServeClient` drives a service in-process *through the wire
  encoding* (every request and reply round-trips ``encode``/``decode``),
  so tests and examples exercise exactly what a network peer sees
  without a socket.
- :class:`DetectionServer` is a ``socketserver.ThreadingTCPServer``
  speaking the JSON-lines protocol; :class:`SocketServeClient` is its
  blocking client.

The service never computes scores differently from the offline harness:
ingested points flow through the same
:meth:`~repro.core.detector.StreamingAnomalyDetector.step_chunk` engine
:func:`~repro.streaming.runner.run_stream` uses, so served scores are
bitwise identical to an offline run over the same series — across any
micro-batch size and across evict/rehydrate cycles
(``tests/test_serve_e2e.py``).
"""

from __future__ import annotations

import dataclasses
import socket
import socketserver
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.config import DetectorConfig
from repro.core.exceptions import (
    ConfigurationError,
    ReproError,
    StreamError,
)
from repro.core.registry import AlgorithmSpec, build_detector
from repro.obs import RunLog, Telemetry, fingerprint_config, merge_payloads
from repro.select.postprocess import make_postprocessor
from repro.select.race import build_race
from repro.select.swap import expected_model_class
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    check_count,
    decode_line,
    encode,
    error_reply,
    ok_reply,
    parse_request,
)
from repro.serve.scheduler import MicroBatchScheduler, QueueFull, SchedulerConfig
from repro.serve.session import DetectorSession
from repro.serve.state import (
    DuplicateSessionError,
    SessionStore,
    SpillCollisionError,
    UnknownSessionError,
)
from repro.serve.wal import SessionWal, WalConfig, WalCorruption
from repro.streaming.checkpoint import load_detector, peek_checkpoint


@dataclass(frozen=True)
class ServeConfig:
    """Everything a :class:`DetectionService` is parameterized by.

    Attributes:
        default_spec: registry label used by ``create`` requests that
            omit a spec (``None`` makes the spec mandatory per request).
        scorer: anomaly-scoring override applied to built detectors.
        max_sessions: hydrated-detector bound of the session store; the
            LRU session beyond it is evicted to a checkpoint.
        spill_dir: where evicted sessions without a write-ahead log
            spill (``None``: a fresh temporary directory per service).
        max_batch / max_delay_ms / queue_limit / result_limit: micro-
            batching and backpressure knobs (:class:`SchedulerConfig`).
            Every drain goes through the fused fleet engine; fusion is
            bitwise neutral, so it has no switch.
        idle_timeout_s: when set, sessions idle this long are evicted
            even below the capacity bound (a memory-release sweep run by
            the drain loop).
        per_session_telemetry: attach a :class:`~repro.obs.Telemetry` to
            every session's detector (bitwise-neutral; feeds ``stats``).
            It does not select the engine path: traced same-spec
            sessions still drain fused, and the fleet engine records
            their counters and stage spans for them.
        detector: hyper-parameters for detectors built from specs;
            ``create`` requests may override with a ``config`` dict.
        wal_dir: when set, every registry-built session carries a
            write-ahead ingest log in this directory and the service
            replays orphaned logs at startup (crash recovery) — see
            :mod:`repro.serve.wal`.  ``None`` disables durability.
        wal_fsync: WAL fsync policy, ``always`` / ``barrier`` /
            ``never`` (the durability/throughput trade).
        wal_barrier_interval: scored points between barrier
            checkpoints — the replay-cost bound.
        run_log: path for the deterministic JSON-lines run log
            (:class:`~repro.obs.RunLog`); ``None`` keeps it in memory
            only (still inspectable via ``service.run_log``) unless the
            WAL is off entirely, in which case no log is kept.
        select: default online-selection config applied to every
            registry-built ``create`` that does not carry its own
            ``select`` field — see
            :func:`repro.select.race.build_race` for the dict shape
            (``challengers`` list, policy name and flapping knobs).
            ``None`` disables selection unless a request asks for it.
    """

    default_spec: str | None = None
    scorer: str | None = None
    max_sessions: int = 64
    spill_dir: str | None = None
    max_batch: int = 64
    max_delay_ms: float = 25.0
    queue_limit: int = 512
    result_limit: int = 8192
    idle_timeout_s: float | None = None
    per_session_telemetry: bool = True
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    wal_dir: str | None = None
    wal_fsync: str = "barrier"
    wal_barrier_interval: int = 256
    run_log: str | None = None
    select: dict[str, Any] | None = None


def _json_safe(obj: Any) -> Any:
    """Replace non-finite floats with ``None`` so replies stay strict
    JSON (telemetry events may carry NaN losses from divergent fits)."""
    if isinstance(obj, dict):
        return {key: _json_safe(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(value) for value in obj]
    if isinstance(obj, float) and not np.isfinite(obj):
        return None
    return obj


class DetectionService:
    """Stateful online scoring over many concurrent streams.

    Args:
        config: service parameters; defaults to :class:`ServeConfig`.
        telemetry: fleet-level sink (sessions carry their own); created
            internally when omitted so ``stats`` always has counters.
        autostart: start the background drain thread.  Tests that want
            deterministic scheduling pass ``False`` and drive
            :meth:`pump` / ``score(flush=True)`` themselves.
    """

    def __init__(
        self,
        config: ServeConfig | None = None,
        telemetry: Telemetry | None = None,
        autostart: bool = True,
    ) -> None:
        self.config = config if config is not None else ServeConfig()
        self.telemetry = telemetry if telemetry is not None else Telemetry(
            max_events=512
        )
        self.spill_dir = Path(
            self.config.spill_dir
            if self.config.spill_dir is not None
            else tempfile.mkdtemp(prefix="repro-serve-spill-")
        )
        self.wal_config = (
            WalConfig(
                dir=self.config.wal_dir,
                fsync=self.config.wal_fsync,
                barrier_interval=self.config.wal_barrier_interval,
            )
            if self.config.wal_dir is not None
            else None
        )
        #: deterministic lifecycle audit log (always kept when the WAL
        #: is on — recovery equivalence is audited through it).
        self.run_log: RunLog | None = (
            RunLog(self.config.run_log)
            if self.config.run_log is not None or self.wal_config is not None
            else None
        )
        self.store = SessionStore(
            self.spill_dir,
            max_live=self.config.max_sessions,
            telemetry=self.telemetry,
            wal_config=self.wal_config,
        )
        self.scheduler = MicroBatchScheduler(
            self.store,
            SchedulerConfig(
                max_batch=self.config.max_batch,
                max_delay_ms=self.config.max_delay_ms,
                queue_limit=self.config.queue_limit,
                result_limit=self.config.result_limit,
            ),
            telemetry=self.telemetry,
        )
        self.scheduler.run_log = self.run_log
        if self.config.idle_timeout_s is not None:
            timeout = self.config.idle_timeout_s
            self.scheduler.on_idle = lambda: self.store.evict_idle(timeout)
        self.started_at = time.monotonic()
        self._shutdown = threading.Event()
        if self.wal_config is not None:
            # Recover crash leftovers *before* traffic: every orphaned
            # log becomes a live session again, with its surviving
            # entries replayed through the normal step_chunk path.
            self.recover_sessions()
        if autostart:
            self.scheduler.start()

    # ------------------------------------------------------------------
    # direct (in-process) API
    # ------------------------------------------------------------------
    def create_session(
        self,
        stream: str,
        spec: str | None = None,
        n_channels: int | None = None,
        config: dict[str, Any] | None = None,
        scorer: str | None = None,
        detector: Any = None,
        resume: dict[str, Any] | None = None,
        select: dict[str, Any] | None = None,
    ) -> DetectorSession:
        """Open a session from a registry spec (or a prebuilt detector).

        The ``detector`` escape hatch is in-process only — it is how
        ensembles and custom detectors become servable without a
        registry entry.

        ``resume`` (``{"seq": N}``) opens the session from a spill
        checkpoint already sitting in the spill directory instead of
        building a fresh detector — the receiving end of a live
        migration or a crash recovery.  ``seq`` must be one past the
        checkpoint's stream clock (``t + 1``), so sequence numbers
        continue where the previous process stopped; anything else is
        refused before a file moves.  With a WAL the shipped file becomes
        the log's barrier checkpoint and leaves the spill directory.

        ``select`` arms online algorithm selection: challenger shadow
        lanes racing the champion, with hot-swap on a durable win — see
        :func:`repro.select.race.build_race` for the dict shape.  The
        service-level default (:attr:`ServeConfig.select`) applies when
        the request carries none; ``{"challengers": []}`` is invalid, so
        a request cannot half-enable it.  Selection requires a
        registry-built session (the swap protocol needs the rebuild
        recipe); an optional ``postprocess`` list of stage names adds
        PySAD-style score calibration that survives swaps.
        """
        if scorer is None:
            scorer = self.config.scorer
        if detector is None:
            label = spec if spec is not None else self.config.default_spec
            if label is None:
                raise ConfigurationError(
                    "create needs a 'spec' (the server has no default)"
                )
            if n_channels is None or int(n_channels) < 1:
                raise ConfigurationError(
                    f"create needs 'n_channels' >= 1, got {n_channels!r}"
                )
            parts = label.split("+")
            if len(parts) != 3:
                raise ConfigurationError(
                    f"spec must look like 'model+task1+task2', got {label!r}"
                )
            try:
                detector_config = (
                    DetectorConfig(**config)
                    if config is not None
                    else self.config.detector
                )
            except TypeError as error:
                raise ConfigurationError(f"bad detector config: {error}") from None
            spec_label = label
            # Same label + channel count + hyper-parameters + scorer ⇒
            # same-shaped detectors, safe to group for fused drains
            # (the fleet engine re-verifies member uniformity anyway).
            fleet_key = (
                label,
                int(n_channels),
                fingerprint_config({"detector": detector_config, "scorer": scorer}),
            )
            if resume is None:
                detector = build_detector(
                    AlgorithmSpec(*parts),
                    n_channels=int(n_channels),
                    config=detector_config,
                    scorer=scorer,
                )
        else:
            if n_channels is None:
                raise ConfigurationError(
                    "custom-detector sessions need an explicit n_channels"
                )
            if resume is not None:
                raise ConfigurationError(
                    "resume and a prebuilt detector are mutually exclusive"
                )
            spec_label = spec if spec is not None else "custom"
            fleet_key = None  # custom detectors drain alone
            detector_config = None  # not rebuildable: no WAL for this session
        seq = 0
        if resume is not None:
            if not isinstance(resume, dict) or "seq" not in resume:
                raise ConfigurationError(
                    f"resume must be a dict with a 'seq' field, got {resume!r}"
                )
            seq = int(resume["seq"])
        if select is None:
            select = self.config.select
        race, postprocess = None, []
        if select:
            if detector_config is None:
                raise ConfigurationError(
                    "online selection requires a registry-built "
                    "session (custom detectors have no rebuild recipe)"
                )
            race = build_race(
                select,
                champion_spec=spec_label,
                n_channels=int(n_channels),
                detector_config=detector_config,
                scorer=scorer,
                fleet_key=fleet_key,
                at=seq,
            )
            postprocess = [
                make_postprocessor(name) for name in select.get("postprocess", ())
            ]
        session_telemetry = (
            Telemetry(max_events=64) if self.config.per_session_telemetry else None
        )
        if resume is not None:
            session = self.store.adopt(
                stream,
                n_channels=int(n_channels),
                seq=seq,
                spec_label=spec_label,
                telemetry=session_telemetry,
            )
        else:
            session = self.store.create(
                stream,
                detector,
                n_channels=int(n_channels),
                spec_label=spec_label,
                telemetry=session_telemetry,
            )
        session.fleet_key = fleet_key
        if self.wal_config is not None and detector_config is not None:
            wal = SessionWal(self.wal_config, stream, telemetry=self.telemetry)
            try:
                wal.open(
                    {
                        "spec": spec_label,
                        "n_channels": int(n_channels),
                        "config": dataclasses.asdict(detector_config),
                        "scorer": scorer,
                    },
                    checkpoint=session.spill_path,
                )
            except ReproError:
                session.spill_path = None  # keep a shipped checkpoint on disk
                self.store.close(stream)
                raise
            session.wal = wal
            if resume is not None:
                session.spill_path = wal.barrier_path
        session.race, session.postprocess = race, postprocess
        if self.run_log is not None:
            entry: dict[str, Any] = {
                "stream": stream,
                "spec": spec_label,
                "seq": session.seq,
                "resumed": resume is not None,
            }
            if session.race is not None:
                entry["challengers"] = [
                    lane.spec_label for lane in session.race.lanes
                ]
                entry["policy"] = session.race.policy.name
            self.run_log.log("session_created", **entry)
        return session

    # ------------------------------------------------------------------
    # crash recovery
    # ------------------------------------------------------------------
    def recover_sessions(self) -> list[str]:
        """Replay every orphaned write-ahead log into a live session.

        Runs at construction (before the drain thread starts) when the
        WAL is enabled.  Each orphaned log left by a crashed incarnation
        becomes a live session again: its barrier checkpoint is loaded
        (:meth:`SessionWal.reattach` anchors on it alone), the log entries
        past its stream clock are replayed through the scheduler's
        ordinary drain, and the results land in the session's buffer
        exactly as if the crash never happened — unacknowledged ``score``
        replies are re-emitted, and clients dedup by sequence number.

        A log the service cannot recover honestly (corruption, a missing
        acknowledged record) is left on disk for the operator and
        reported via telemetry; the service still starts.

        Returns the recovered stream ids.
        """
        recovered: list[str] = []
        for path in list(self.store.orphaned_wals):
            try:
                stream = self._recover_stream(path)
            except (ReproError, ValueError) as error:
                self.telemetry.count("wal_recovery_failed")
                self.telemetry.event(
                    "wal_recovery_failed", file=path.name, error=str(error)
                )
                if self.run_log is not None:
                    self.run_log.log(
                        "wal_recovery_failed", file=path.name, error=str(error)
                    )
                continue
            self.store.orphaned_wals.remove(path)
            recovered.append(stream)
        return recovered

    def _recover_stream(self, path: Path) -> str:
        """Recover one orphaned log; returns its stream id."""
        wal, open_meta, blocks, dropped, torn = SessionWal.reattach(
            self.wal_config, path, telemetry=self.telemetry
        )
        stream, anchor = wal.stream_id, wal.barrier_t
        try:
            session, stale_label = self._restore_session(wal, open_meta)
        except BaseException:
            wal.close(delete=False)
            raise
        # A crash right at a committed hot-swap boundary strands the
        # results of the block that triggered the swap (the swap
        # checkpoint trims it from replay) — the swap record carried
        # them, so re-emit into the result buffer ahead of any replay.
        reemit = []
        if int(open_meta.get("swap_t", -2)) == anchor:
            reemit = [dict(entry) for entry in open_meta.get("swap_results") or ()]
        session.results.extend(reemit)
        # Replay is an ordinary drain with the log attached (result_limit
        # and barriers apply as in live traffic); the chunked engine's
        # block-boundary invariance keeps it bitwise.
        session.wal = wal
        for _, rows in blocks:
            session.enqueue(rows)
        self.scheduler.flush_session(session)
        replayed = sum(len(rows) for _, rows in blocks)
        self.telemetry.count("wal_recovered")
        if replayed:
            self.telemetry.count("wal_replayed", replayed)
        if self.run_log is not None:
            self.run_log.log(
                "session_recovered",
                stream=stream,
                spec=session.spec_label,
                barrier_t=anchor,
                replayed=replayed,
                dropped=dropped,
                torn=torn,
                swapped=bool(open_meta.get("swapped")),
                stale_label=stale_label,
                reemitted=len(reemit),
            )
        return stream

    def _restore_session(
        self, wal: SessionWal, open_meta: dict[str, Any]
    ) -> tuple[DetectorSession, bool]:
        """Register a recovered session at its log's anchor; returns it
        and whether its checkpoint contradicts the log's recipe."""
        name = wal.path.name
        n_channels = int(open_meta["n_channels"])
        spec_label = str(open_meta.get("spec", "custom"))
        scorer = open_meta.get("scorer")
        try:
            detector_config = DetectorConfig(**(open_meta.get("config") or {}))
        except TypeError as error:
            raise WalCorruption(
                f"log {name} carries an unbuildable detector config: {error}"
            ) from None
        stale_label = False
        if wal.barrier_t >= 0:
            detector = load_detector(wal.barrier_path)
            expected = expected_model_class(spec_label)
            actual = type(detector.model).__name__
            if expected is not None and actual != expected:
                # The checkpoint's model does not match the recipe the
                # log promises.  The swap protocol orders its record
                # before its checkpoint, so this cannot happen under a
                # durable fsync policy — but ``fsync="never"`` (or disk
                # reordering) can persist a swap checkpoint whose record
                # never landed.  The checkpoint is still the state that
                # scored the stream: serve it, but on the per-session
                # path, because fusing under the stale label would group
                # mismatched models into one fleet.
                stale_label = True
                self.telemetry.count("wal_stale_labels")
                self.telemetry.event(
                    "wal_stale_label",
                    stream=wal.stream_id,
                    label=spec_label,
                    model=actual,
                )
        else:
            # No checkpoint yet (crash before the first barrier): the
            # open record carries everything needed to rebuild the
            # detector from scratch, and the log holds the full history.
            parts = spec_label.split("+")
            if len(parts) != 3:
                raise WalCorruption(
                    f"log {name} has no checkpoint and an unbuildable "
                    f"spec {spec_label!r}"
                )
            detector = build_detector(
                AlgorithmSpec(*parts),
                n_channels=n_channels,
                config=detector_config,
                scorer=scorer,
            )
        session = self.store.create(
            wal.stream_id,
            detector,
            n_channels=n_channels,
            spec_label=spec_label,
            telemetry=(
                Telemetry(max_events=64)
                if self.config.per_session_telemetry
                else None
            ),
            seq=wal.barrier_t + 1,
        )
        if not stale_label:
            session.fleet_key = (
                spec_label,
                n_channels,
                fingerprint_config({"detector": detector_config, "scorer": scorer}),
            )
        return session, stale_label

    def ingest(
        self, stream: str, points: Any, expect: int | None = None
    ) -> dict[str, Any]:
        """Validate + enqueue one batch; the reply payload of ``ingest``.

        ``expect`` (the client's next expected sequence number) makes
        the verb idempotent: an exact replay of an already-accepted
        block — a retry after a lost reply — is re-acknowledged with
        ``duplicate: true`` instead of scored twice.  It must be a
        non-negative integer, checked before anything else with the rule
        :func:`~repro.serve.protocol.parse_request` applies on the wire,
        so an in-process call is refused wherever a wire request is.
        """
        if expect is not None:
            check_count("ingest", "expect", expect)
            expect = int(expect)
        session = self.store.get(stream)
        block = session.validate_points(points)
        if len(block) == 0:
            return {
                "accepted": 0,
                "seq_from": None,
                "seq_to": None,
                "pending": session.queue_depth,
            }
        seq_from, seq_to, duplicate = self.scheduler.submit(
            session, block, expect=expect
        )
        reply = {
            "accepted": len(block),
            "seq_from": seq_from,
            "seq_to": seq_to,
            "pending": session.queue_depth,
        }
        if duplicate:
            reply["duplicate"] = True
        return reply

    def collect(
        self, stream: str, max_results: int | None = None, flush: bool = True
    ) -> dict[str, Any]:
        """Flush (optionally) and drain scored results; the ``score`` payload."""
        session = self.store.get(stream)
        if flush:
            self.scheduler.flush_session(session)
        results = session.collect(max_results)
        return {
            "results": results,
            "pending_points": session.queue_depth,
            "pending_results": session.n_results,
        }

    def evict(self, stream: str) -> dict[str, Any]:
        """Flush then evict one session (the operational ``evict`` verb)."""
        session = self.store.get(stream)
        self.scheduler.flush_session(session)
        path = self.store.evict(session)
        return {"stream": stream, "spilled": str(path), "hydrated": session.hydrated}

    def close_session(self, stream: str) -> dict[str, Any]:
        """Flush and drain, then remove the session and its files.

        The drain happens *before* anything is deleted and the drained
        results ride back in the close reply — closing a session can no
        longer lose scored-but-uncollected results, and the store's
        final-barrier-then-delete ordering keeps the stream recoverable
        up to the last instant (see :meth:`SessionStore.close`).
        """
        session = self.store.get(stream)
        if session.hydrated or session.spill_path is not None:
            self.scheduler.flush_session(session)
        results = session.collect()
        session = self.store.close(stream)
        if self.run_log is not None:
            self.run_log.log(
                "session_closed",
                stream=stream,
                n_points=session.seq,
                scored=session.scored,
            )
        return {
            "stream": stream,
            "n_points": session.seq,
            "scored": session.scored,
            "uncollected_results": len(results),
            "results": results,
        }

    def stats_payload(
        self, stream: str | None = None, latency_windows: bool = False
    ) -> dict[str, Any]:
        """Per-session blocks + fleet counters + the merged rollup.

        ``latency_windows=True`` includes each session's raw retained
        latency samples so a router can merge reservoirs fleet-wide.
        """
        now = time.monotonic()
        sessions = (
            [self.store.get(stream)] if stream is not None else self.store.sessions()
        )
        blocks = {
            session.stream_id: session.describe(
                now, latency_window=latency_windows
            )
            for session in sessions
        }
        fleet = self.telemetry.as_dict()
        rollup = merge_payloads(
            [fleet]
            + [block.get("telemetry") for block in blocks.values()]
        )
        return _json_safe(
            {
                "sessions": blocks,
                "fleet": fleet,
                "fleets": self.scheduler.fleet_manifests(),
                "rollup": rollup,
                "n_sessions": len(self.store),
                "n_hydrated": self.store.hydrated_count(),
                "orphaned_spills": [
                    path.name for path in self.store.orphaned_spills
                ],
                "orphaned_wals": [
                    path.name for path in self.store.orphaned_wals
                ],
                "wal": (
                    {
                        "dir": str(self.wal_config.dir),
                        "fsync": self.wal_config.fsync,
                        "barrier_interval": self.wal_config.barrier_interval,
                    }
                    if self.wal_config is not None
                    else None
                ),
                "run_log": (
                    self.run_log.summary() if self.run_log is not None else None
                ),
                "max_sessions": self.config.max_sessions,
                "uptime_seconds": round(now - self.started_at, 6),
            }
        )

    def describe_session(self, stream: str) -> dict[str, Any]:
        """Full introspection payload for one stream (the ``describe`` verb).

        Extends the per-session ``stats`` block with the selection-race
        state (when armed — champion and challenger lane statistics,
        promotion history) and the metadata of the stream's on-disk
        checkpoint — its WAL barrier, or its spill when it has no log —
        so an operator can audit a champion/challenger race or a
        durability story without reading the directories by hand.
        """
        session = self.store.get(stream)
        info = session.describe(time.monotonic())
        info["stream"] = stream
        name, path = (
            ("barrier", session.wal.barrier_path)
            if session.wal is not None
            else ("spill", self.store.spill_path_for(stream))
        )
        info["checkpoints"] = {}
        if path.exists():
            meta = peek_checkpoint(path)
            info["checkpoints"][name] = {
                "path": str(path),
                "t": int(meta["t"]),
                "model": meta.get("model"),
            }
        return _json_safe(info)

    def pump(self) -> int:
        """One manual drain pass (for ``autostart=False`` tests)."""
        return self.scheduler.pump()

    def shutdown(self) -> None:
        """Stop the drain thread; idempotent."""
        self._shutdown.set()
        self.scheduler.stop()

    # ------------------------------------------------------------------
    # protocol dispatch
    # ------------------------------------------------------------------
    def handle(self, request: dict[str, Any]) -> dict[str, Any]:
        """Map one protocol request to its reply (never raises)."""
        op = request.get("op") if isinstance(request, dict) else None
        try:
            request = parse_request(request)
            op = request["op"]
            stream = request.get("stream")
            if op == "ping":
                return ok_reply(op, request, uptime_seconds=round(
                    time.monotonic() - self.started_at, 6
                ))
            if op == "create":
                session = self.create_session(
                    stream,
                    spec=request.get("spec"),
                    n_channels=request.get("n_channels"),
                    config=request.get("config"),
                    scorer=request.get("scorer"),
                    resume=request.get("resume"),
                    select=request.get("select"),
                )
                return ok_reply(
                    op, request, stream=stream, spec=session.spec_label,
                    n_channels=session.n_channels, seq=session.seq,
                )
            if op == "ingest":
                if "points" not in request:
                    raise ProtocolError("ingest requires 'points'")
                return ok_reply(
                    op, request, stream=stream,
                    **self.ingest(
                        stream, request["points"], expect=request.get("expect")
                    ),
                )
            if op == "score":
                return ok_reply(
                    op, request, stream=stream,
                    **self.collect(
                        stream,
                        max_results=request.get("max"),
                        flush=request.get("flush", True),
                    ),
                )
            if op == "stats":
                return ok_reply(
                    op,
                    request,
                    **self.stats_payload(
                        stream,
                        latency_windows=request.get("latency_windows", False),
                    ),
                )
            if op == "describe":
                return ok_reply(op, request, **self.describe_session(stream))
            if op == "evict":
                return ok_reply(op, request, **self.evict(stream))
            if op == "close":
                return ok_reply(op, request, **self.close_session(stream))
            if op == "shutdown":
                self.shutdown()
                return ok_reply(op, request, stopping=True)
            raise ProtocolError(f"unhandled op {op!r}")  # pragma: no cover
        except QueueFull as error:
            return error_reply(
                op, "queue_full", str(error), request,
                retry_after=error.retry_after,
                depth=error.depth,
                limit=error.limit,
            )
        except ProtocolError as error:
            return error_reply(op, "bad_request", str(error), request)
        except UnknownSessionError as error:
            return error_reply(op, "unknown_stream", str(error), request)
        except DuplicateSessionError as error:
            return error_reply(op, "duplicate_stream", str(error), request)
        except SpillCollisionError as error:
            return error_reply(op, "spill_collision", str(error), request)
        except StreamError as error:
            return error_reply(op, "bad_points", str(error), request)
        except ConfigurationError as error:
            return error_reply(op, "bad_config", str(error), request)
        except ReproError as error:
            return error_reply(op, "internal", str(error), request)
        except Exception as error:  # noqa: BLE001 — the server must not die
            return error_reply(
                op, "internal", f"{type(error).__name__}: {error}", request
            )


# ----------------------------------------------------------------------
# clients
# ----------------------------------------------------------------------
class BaseServeClient:
    """Shared convenience verbs over an abstract ``request`` transport."""

    def request(self, op: str, **fields: Any) -> dict[str, Any]:
        raise NotImplementedError

    def _request(self, op: str, **fields: Any) -> dict[str, Any]:
        return self.request(op, **{k: v for k, v in fields.items() if v is not None})

    def create(
        self,
        stream: str,
        spec: str | None = None,
        n_channels: int | None = None,
        config: dict[str, Any] | None = None,
        scorer: str | None = None,
        select: dict[str, Any] | None = None,
    ) -> dict[str, Any]:
        return self._request(
            "create", stream=stream, spec=spec, n_channels=n_channels,
            config=config, scorer=scorer, select=select,
        )

    def ingest(
        self, stream: str, points: Any, expect: int | None = None
    ) -> dict[str, Any]:
        if isinstance(points, np.ndarray):
            points = points.tolist()
        return self._request(
            "ingest", stream=stream, points=points, expect=expect
        )

    def reconnect(self) -> bool:
        """Re-establish the transport after an I/O failure.

        Transport-less clients have nothing to do; the socket client
        overrides this.  Returns whether a retry is worth attempting.
        """
        return False

    def score(
        self, stream: str, max_results: int | None = None, flush: bool = True
    ) -> dict[str, Any]:
        return self._request("score", stream=stream, max=max_results, flush=flush)

    def stats(self, stream: str | None = None) -> dict[str, Any]:
        return self._request("stats", stream=stream)

    def describe(self, stream: str) -> dict[str, Any]:
        return self._request("describe", stream=stream)

    def evict(self, stream: str) -> dict[str, Any]:
        return self._request("evict", stream=stream)

    def close(self, stream: str) -> dict[str, Any]:
        return self._request("close", stream=stream)

    def ping(self) -> dict[str, Any]:
        return self._request("ping")

    def shutdown(self) -> dict[str, Any]:
        return self._request("shutdown")

    # ------------------------------------------------------------------
    def score_series(
        self,
        stream: str,
        values: np.ndarray,
        ingest_size: int = 100,
        evict_at: int | None = None,
        sleep: bool = False,
        max_queue_retries: int = 1000,
        max_io_retries: int = 1,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Stream a whole ``(T, N)`` array and gather every score.

        The canonical client loop: ingest in slices, honor ``queue_full``
        backpressure by collecting, backing off ``retry_after`` seconds
        (when ``sleep`` is set) and retrying — bounded by
        ``max_queue_retries`` *consecutive* rejections, so a server that
        stops draining fails the loop with a clear error instead of
        spinning forever.  ``evict_at`` forces a spill once that many
        points have been sent — the evict/rehydrate path the equivalence
        tests pin.

        Every ingest carries ``expect`` (the client's send cursor), so a
        request replayed after a lost reply — a timeout, a reconnect, a
        router retry — is deduplicated server-side instead of scored
        twice.  That idempotence is what makes the ``max_io_retries``
        transport-failure retry (via :meth:`reconnect`) safe.

        Returns ``(scores, nonconformities)`` aligned with ``values``.
        """
        values = np.atleast_2d(np.asarray(values, dtype=np.float64))
        n = len(values)
        by_seq: dict[int, dict[str, Any]] = {}
        sent = 0
        evicted = False
        rejections = 0
        io_failures = 0
        while len(by_seq) < n:
            if evict_at is not None and not evicted and sent >= evict_at:
                reply = self.evict(stream)
                if not reply.get("ok"):
                    raise ReproError(f"evict failed: {reply.get('error')}")
                evicted = True
            if sent < n:
                try:
                    reply = self.ingest(
                        stream, values[sent : sent + ingest_size], expect=sent
                    )
                except (OSError, ConnectionError):
                    # The server may or may not have accepted the block;
                    # resend with the same ``expect`` — the server drops
                    # it as a duplicate if the first attempt landed.
                    io_failures += 1
                    if io_failures > max_io_retries or not self.reconnect():
                        raise
                    continue
                io_failures = 0
                if reply.get("ok"):
                    sent += reply["accepted"]
                    rejections = 0
                    continue
                error = reply.get("error", {})
                if error.get("type") != "queue_full":
                    raise ReproError(f"ingest failed: {error}")
                rejections += 1
                if rejections > max_queue_retries:
                    raise ReproError(
                        f"stream {stream!r}: ingest rejected queue_full "
                        f"{rejections} times in a row (retry_after "
                        f"{error.get('retry_after')!r}s); the server has "
                        "stopped draining"
                    )
                if sleep:
                    time.sleep(float(error.get("retry_after", 0.01)))
            reply = self.score(stream, flush=True)
            if not reply.get("ok"):
                raise ReproError(f"score failed: {reply.get('error')}")
            for result in reply["results"]:
                by_seq[result["seq"]] = result
        scores = np.array([by_seq[seq]["score"] for seq in range(n)])
        nonconformities = np.array(
            [by_seq[seq]["nonconformity"] for seq in range(n)]
        )
        return scores, nonconformities


class ServeClient(BaseServeClient):
    """In-process client: full wire encoding, no socket.

    Every request and reply passes through ``encode``/``decode_line``,
    so JSON round-trip fidelity (including float exactness) is part of
    what in-process tests cover.
    """

    def __init__(self, service: DetectionService) -> None:
        self.service = service

    def request(self, op: str, **fields: Any) -> dict[str, Any]:
        message = {"v": PROTOCOL_VERSION, "op": op, **fields}
        reply = self.service.handle(decode_line(encode(message)))
        return decode_line(encode(reply))


# ----------------------------------------------------------------------
# TCP layer
# ----------------------------------------------------------------------
class _ServeHandler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        for raw in self.rfile:
            line = raw.strip()
            if not line:
                continue
            try:
                request = decode_line(line)
            except ProtocolError as error:
                reply = error_reply(None, "bad_request", str(error))
            else:
                reply = self.server.service.handle(request)
            try:
                self.wfile.write(encode(reply))
                self.wfile.flush()
            except (BrokenPipeError, ConnectionResetError):
                return
            if reply.get("op") == "shutdown" and reply.get("ok"):
                # shutdown() joins the serve_forever loop, which runs in
                # another thread — safe to trigger from a handler, but
                # done on a side thread so this handler can finish.
                threading.Thread(target=self.server.shutdown, daemon=True).start()
                return


class DetectionServer(socketserver.ThreadingTCPServer):
    """JSON-lines TCP front end over one :class:`DetectionService`.

    Bind to port 0 to let the OS pick a free port (tests do); the bound
    address is ``server_address``.
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(
        self, address: tuple[str, int], service: DetectionService
    ) -> None:
        super().__init__(address, _ServeHandler)
        self.service = service


class SocketServeClient(BaseServeClient):
    """Blocking JSON-lines client for a :class:`DetectionServer`.

    Args:
        host / port: server address.
        timeout: per-request read timeout (seconds); a server that goes
            silent mid-request raises ``socket.timeout`` (an
            ``OSError``) instead of hanging the caller forever.  ``None``
            blocks indefinitely.
        connect_timeout: bound on establishing the connection; defaults
            to ``timeout``.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float | None = 30.0,
        connect_timeout: float | None = None,
    ) -> None:
        self._address = (host, port)
        self._timeout = timeout
        self._connect_timeout = (
            connect_timeout if connect_timeout is not None else timeout
        )
        self._connect()

    def _connect(self) -> None:
        self._sock = socket.create_connection(
            self._address, timeout=self._connect_timeout
        )
        self._sock.settimeout(self._timeout)
        self._rfile = self._sock.makefile("rb")

    def reconnect(self) -> bool:
        """Drop the (possibly poisoned) connection and dial again.

        After a timeout the old socket may still deliver the stale
        reply; a fresh connection guarantees request/reply alignment.
        Combined with idempotent ingest (``expect``), this makes
        :meth:`score_series` safe to resume over a flaky transport.
        """
        self.disconnect()
        self._connect()
        return True

    def request(self, op: str, **fields: Any) -> dict[str, Any]:
        self._sock.sendall(encode({"v": PROTOCOL_VERSION, "op": op, **fields}))
        line = self._rfile.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return decode_line(line)

    def disconnect(self) -> None:
        try:
            self._rfile.close()
        except OSError:  # already broken — closing is best-effort
            pass
        self._sock.close()

    def __enter__(self) -> "SocketServeClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.disconnect()
