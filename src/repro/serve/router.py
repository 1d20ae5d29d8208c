"""Sharded serving: consistent-hash routing over a worker-process fleet.

One :class:`~repro.serve.server.DetectionService` is GIL-bound — sixteen
sessions share one core no matter how many threads the TCP server runs
(``BENCH_serve.json``).  The router scales the *harness* without
touching the detector core: N worker processes
(:mod:`repro.serve.worker`), each running the existing service
unchanged, behind one front door that

- **routes by shard** — stream ids are consistent-hashed
  (:class:`HashRing`) over the workers, so ``create`` / ``ingest`` /
  ``score`` / ``evict`` / ``close`` each touch exactly one worker, and
  placement is deterministic across router restarts;
- **fans out** ``stats`` / ``ping`` / ``shutdown`` and folds the
  per-worker payloads into one fleet view — telemetry rollups via
  :func:`~repro.obs.merge_payloads`, ingest-latency percentiles via
  :func:`~repro.obs.merge_summaries` over the sessions' raw reservoir
  windows (percentiles over the union of samples, not averages of
  per-worker percentiles);
- **migrates live sessions** on bitwise checkpoint files: ``evict`` on
  the source (flush + checkpoint: a WAL barrier, or a spill), drain its
  buffered results into the router, move the checkpoint bytes with
  :func:`~repro.streaming.checkpoint.transfer_checkpoint`,
  ``create``-with-``resume`` on the target (sequence numbers continue
  from the checkpoint's stream clock), ``close`` the source.  Checkpoint
  round-trips are bitwise-exact, so a migrated stream's scores are
  identical to one that never moved;
- **supervises workers** — a dead connection triggers a respawn and
  re-homes the worker's streams from their spill files (streams that
  never spilled are restarted fresh and counted, not silently rewound).
  With the write-ahead log enabled (``worker.wal_dir``), a respawned
  worker replays its own logs before accepting traffic — in-flight
  points included — so every stream comes back bitwise-identical and
  the router counts ``streams_recovered`` instead of
  ``streams_restarted``;
- **admits fleet-wide** — ``queue_full`` + ``retry_after`` from the
  owning shard passes through to the client verbatim, and
  :meth:`RouterService.check_rebalance` moves streams off a shard whose
  merged latency p99 or ingest-rejection rate crosses the configured
  thresholds.

Everything the router speaks — to clients and to workers — is protocol
v1; the worker leg reuses :class:`~repro.serve.server.SocketServeClient`.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from repro.core.exceptions import ConfigurationError, ReproError
from repro.obs import LatencyReservoir, Telemetry, merge_payloads, merge_summaries
from repro.serve.protocol import (
    ProtocolError,
    error_reply,
    ok_reply,
    parse_request,
)
from repro.serve.server import ServeConfig, SocketServeClient
from repro.serve.state import spill_filename
from repro.serve.worker import serve_config_to_payload
from repro.streaming.checkpoint import peek_checkpoint, transfer_checkpoint


class WorkerDown(ReproError):
    """A worker could not be reached, even after a respawn attempt."""


class UnknownStreamError(ReproError):
    """The router has no record of this stream id."""


# ----------------------------------------------------------------------
# consistent hashing
# ----------------------------------------------------------------------
class HashRing:
    """Consistent-hash ring with virtual nodes.

    Each node is hashed ``vnodes`` times onto a 64-bit ring; a key maps
    to the first node position at or after the key's own hash.  Virtual
    nodes smooth the load split (64 vnodes keep the max/min key share
    within a few tens of percent), and consistency bounds churn: adding
    or removing one node remaps only the keys that landed on its arcs
    (~1/N of the keyspace), not everything.
    """

    def __init__(self, nodes: Sequence[str], vnodes: int = 64) -> None:
        if not nodes:
            raise ConfigurationError("HashRing needs at least one node")
        if vnodes < 1:
            raise ConfigurationError(f"vnodes must be >= 1, got {vnodes}")
        self.vnodes = int(vnodes)
        self._nodes = list(dict.fromkeys(nodes))
        points: list[tuple[int, str]] = []
        for node in self._nodes:
            for replica in range(self.vnodes):
                points.append((self._hash(f"{node}#{replica}"), node))
        points.sort()
        self._positions = [position for position, _ in points]
        self._owners = [node for _, node in points]

    @staticmethod
    def _hash(key: str) -> int:
        digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "big")

    @property
    def nodes(self) -> list[str]:
        return list(self._nodes)

    def lookup(self, key: str) -> str:
        """The node owning ``key`` (deterministic across processes)."""
        index = bisect.bisect_right(self._positions, self._hash(key))
        if index == len(self._positions):
            index = 0
        return self._owners[index]


# ----------------------------------------------------------------------
# worker supervision
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RouterConfig:
    """Everything a :class:`RouterService` is parameterized by.

    Attributes:
        n_workers: worker-process count (the shard count).
        host: address workers bind on (loopback; the fleet is one host).
        spill_dir: root checkpoint directory; worker ``i`` spills under
            ``<root>/worker-i`` and the router moves bytes between those
            subdirectories during migration (``None``: a fresh temporary
            directory).
        worker: the :class:`ServeConfig` every worker runs (its
            ``spill_dir`` field is overridden per worker).
        vnodes: virtual nodes per worker on the hash ring.
        spawn_timeout_s: bound on a worker printing its ready line.
        connect_timeout_s / request_timeout_s: worker-leg socket bounds.
        hot_p99_s: rebalance trigger — a shard whose merged ingest-
            latency p99 exceeds this many seconds is hot (``None``
            disables the latency trigger).
        hot_rejection_rate: rebalance trigger — a shard rejecting more
            than this fraction of ingest attempts (``queue_full``) since
            the last check is hot (``None`` disables).
        rebalance_max_moves: streams migrated off a hot shard per check.
        maintenance_interval_s: period of the background health loop
            (pings every worker — which respawns dead ones — then runs
            the rebalance check); ``None`` disables the thread, leaving
            death detection to the next routed request and rebalancing
            to explicit :meth:`RouterService.check_rebalance` calls.
    """

    n_workers: int = 2
    host: str = "127.0.0.1"
    spill_dir: str | None = None
    worker: ServeConfig = field(default_factory=ServeConfig)
    vnodes: int = 64
    spawn_timeout_s: float = 60.0
    connect_timeout_s: float = 30.0
    request_timeout_s: float = 120.0
    hot_p99_s: float | None = None
    hot_rejection_rate: float | None = None
    rebalance_max_moves: int = 2
    maintenance_interval_s: float | None = None

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ConfigurationError(
                f"n_workers must be >= 1, got {self.n_workers}"
            )
        if self.rebalance_max_moves < 1:
            raise ConfigurationError(
                f"rebalance_max_moves must be >= 1, got {self.rebalance_max_moves}"
            )


class WorkerHandle:
    """One supervised worker process + its protocol-v1 connection.

    All requests to a worker serialize on :attr:`lock` (one in-flight
    request per worker; the heavy lifting happens asynchronously in the
    worker's own drain thread).  A connection-level failure inside
    :meth:`request` triggers a respawn, fires ``on_respawn`` (the
    router's re-homing hook) and retries the request once — so the first
    operation that touches a dead worker heals the shard instead of
    failing.
    """

    def __init__(self, index: int, config: RouterConfig, spill_root: Path) -> None:
        self.index = index
        self.name = f"worker-{index}"
        self.config = config
        self.spill_dir = spill_root / self.name
        self.lock = threading.RLock()
        self.proc: subprocess.Popen | None = None
        self.client: SocketServeClient | None = None
        self.host: str | None = None
        self.port: int | None = None
        self.respawns = 0
        #: router hook fired after a respawn, before the retry — re-homes
        #: this worker's streams from their spill files.
        self.on_respawn: Callable[["WorkerHandle"], None] | None = None
        self._recovering = False

    # ------------------------------------------------------------------
    def _command(self) -> list[str]:
        worker_config = {
            key: value
            for key, value in serve_config_to_payload(self.config.worker).items()
            if key != "spill_dir"
        }
        # Per-worker durability paths: any truthy wal_dir in the shared
        # worker config acts as the on-switch; every worker keeps its
        # write-ahead logs (and deterministic run log) under its own
        # spill directory so a respawned process finds exactly its own
        # streams to self-recover.
        if worker_config.get("wal_dir") is not None:
            worker_config["wal_dir"] = str(self.spill_dir / "wal")
        if worker_config.get("run_log") is not None:
            worker_config["run_log"] = str(self.spill_dir / "run_log.jsonl")
        # -c instead of -m: the package __init__ already imports
        # repro.serve.worker, and runpy warns when it re-executes a
        # module that is in sys.modules.
        return [
            sys.executable,
            "-u",
            "-c",
            "import repro.serve.worker as w; raise SystemExit(w.main())",
            "--host",
            self.config.host,
            "--port",
            "0",
            "--spill-dir",
            str(self.spill_dir),
            "--config",
            json.dumps(worker_config),
        ]

    def start(self) -> None:
        """Spawn the process, wait for its ready line, connect."""
        with self.lock:
            if self.proc is not None and self.proc.poll() is None:
                return
            self.spill_dir.mkdir(parents=True, exist_ok=True)
            env = dict(os.environ)
            package_root = str(Path(__file__).resolve().parents[2])
            existing = env.get("PYTHONPATH")
            env["PYTHONPATH"] = (
                package_root if not existing
                else package_root + os.pathsep + existing
            )
            self.proc = subprocess.Popen(
                self._command(), stdout=subprocess.PIPE, env=env
            )
            ready = self._read_ready(self.proc, self.config.spawn_timeout_s)
            self.host, self.port = ready["host"], int(ready["port"])
            self.client = SocketServeClient(
                self.host,
                self.port,
                timeout=self.config.request_timeout_s,
                connect_timeout=self.config.connect_timeout_s,
            )

    def _read_ready(
        self, proc: subprocess.Popen, timeout: float
    ) -> dict[str, Any]:
        box: dict[str, Any] = {}

        def reader() -> None:
            line = proc.stdout.readline()
            box["line"] = line

        thread = threading.Thread(target=reader, daemon=True)
        thread.start()
        thread.join(timeout=timeout)
        line = box.get("line")
        if not line:
            proc.kill()
            raise WorkerDown(
                f"{self.name} did not report ready within {timeout:.0f}s"
            )
        payload = json.loads(line)
        if not payload.get("ready"):
            raise WorkerDown(f"{self.name} sent a malformed ready line: {line!r}")
        return payload

    # ------------------------------------------------------------------
    @property
    def pid(self) -> int | None:
        return self.proc.pid if self.proc is not None else None

    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None

    def request(self, op: str, **fields: Any) -> dict[str, Any]:
        """One protocol round-trip, healing the worker on failure."""
        with self.lock:
            if self.client is None or not self.alive():
                self._recover()
            try:
                return self.client.request(op, **fields)
            except (OSError, ConnectionError, ValueError) as error:
                if self._recovering:
                    raise WorkerDown(f"{self.name}: {error}") from error
                self._recover()
                try:
                    return self.client.request(op, **fields)
                except (OSError, ConnectionError, ValueError) as retry_error:
                    raise WorkerDown(
                        f"{self.name} failed again after respawn: {retry_error}"
                    ) from retry_error

    def _recover(self) -> None:
        """Respawn the process and fire the re-homing hook."""
        if self._recovering:
            raise WorkerDown(f"{self.name} died during its own recovery")
        self._recovering = True
        try:
            self._teardown(kill=True)
            self.start()
            self.respawns += 1
            if self.on_respawn is not None:
                self.on_respawn(self)
        finally:
            self._recovering = False

    def _teardown(self, kill: bool) -> None:
        if self.client is not None:
            try:
                self.client.disconnect()
            except OSError:
                pass
            self.client = None
        if self.proc is not None:
            if kill and self.proc.poll() is None:
                self.proc.kill()
            try:
                self.proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=5.0)
            if self.proc.stdout is not None:
                self.proc.stdout.close()
            self.proc = None

    def stop(self) -> None:
        """Graceful shutdown: the shutdown op, then reap the process."""
        with self.lock:
            if self.client is not None and self.alive():
                try:
                    self.client.request("shutdown")
                except (OSError, ConnectionError, ValueError):
                    pass
            self._teardown(kill=False)

    def kill(self) -> None:
        """Hard-kill the process (tests and chaos drills); the next
        routed request detects the dead connection and heals."""
        with self.lock:
            if self.proc is not None and self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait(timeout=5.0)


# ----------------------------------------------------------------------
# the router service
# ----------------------------------------------------------------------
@dataclass
class StreamRecord:
    """What the router must remember per stream to route and recover."""

    spec: str | None
    n_channels: int
    config: dict[str, Any] | None
    scorer: str | None
    worker: int


class RouterService:
    """Protocol-v1 front door over the worker fleet.

    Drop-in for :class:`~repro.serve.server.DetectionService` wherever
    only :meth:`handle` / :meth:`shutdown` are used — in particular
    behind :class:`~repro.serve.server.DetectionServer` and
    :class:`~repro.serve.server.ServeClient`.

    Args:
        config: fleet parameters; defaults to :class:`RouterConfig`.
        telemetry: router-level sink (migrations, respawns, recoveries).
        autostart: spawn the workers (and the maintenance thread when
            configured).  Tests that drive spawn order themselves pass
            ``False`` and call :meth:`start`.
    """

    def __init__(
        self,
        config: RouterConfig | None = None,
        telemetry: Telemetry | None = None,
        autostart: bool = True,
    ) -> None:
        self.config = config if config is not None else RouterConfig()
        self.telemetry = telemetry if telemetry is not None else Telemetry(
            max_events=512
        )
        self.spill_root = Path(
            self.config.spill_dir
            if self.config.spill_dir is not None
            else tempfile.mkdtemp(prefix="repro-serve-fleet-")
        )
        self.workers = [
            WorkerHandle(index, self.config, self.spill_root)
            for index in range(self.config.n_workers)
        ]
        for worker in self.workers:
            worker.on_respawn = self._rehome
        self.ring = HashRing(
            [worker.name for worker in self.workers], vnodes=self.config.vnodes
        )
        self._by_name = {worker.name: worker for worker in self.workers}
        self.started_at = time.monotonic()
        self._registry_lock = threading.RLock()
        self._streams: dict[str, StreamRecord] = {}
        self._stream_locks: dict[str, threading.RLock] = {}
        #: results drained from a migration source, delivered (in order,
        #: ahead of the target's results) by the next ``score``.
        self._buffered: dict[str, list[dict[str, Any]]] = {}
        #: per-worker (ingested, rejected) counter snapshots for the
        #: rejection-rate rebalance trigger.
        self._admission_seen: dict[int, tuple[int, int]] = {}
        self._stop = threading.Event()
        self._maintenance: threading.Thread | None = None
        #: last fleet view, frozen at shutdown (stats after the fleet is
        #: down must not respawn workers just to answer).
        self._final_stats: dict[str, Any] | None = None
        if autostart:
            self.start()

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn every worker; start the maintenance loop if configured."""
        for worker in self.workers:
            worker.start()
        if (
            self.config.maintenance_interval_s is not None
            and self._maintenance is None
        ):
            self._maintenance = threading.Thread(
                target=self._maintenance_loop,
                name="repro-serve-router",
                daemon=True,
            )
            self._maintenance.start()

    def shutdown(self) -> None:
        """Stop the maintenance loop and the whole fleet; idempotent.

        The fleet view is snapshotted first, so ``stats`` keeps working
        (read-only) after shutdown instead of respawning dead workers to
        answer.
        """
        if self._stop.is_set():
            return
        if self._final_stats is None:
            try:
                self._final_stats = self.stats_payload()
            except (ReproError, OSError):
                self._final_stats = {"rollup": self.telemetry.as_dict()}
        self._stop.set()
        if self._maintenance is not None:
            self._maintenance.join(timeout=5.0)
            self._maintenance = None
        for worker in self.workers:
            worker.stop()

    def _maintenance_loop(self) -> None:
        interval = self.config.maintenance_interval_s
        while not self._stop.wait(timeout=interval):
            try:
                for worker in self.workers:
                    worker.request("ping")  # heals a dead worker
                self.check_rebalance()
            except (ReproError, OSError):
                # Next tick retries; per-request routing also heals.
                continue

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def _lock_for(self, stream: str) -> threading.RLock:
        with self._registry_lock:
            lock = self._stream_locks.get(stream)
            if lock is None:
                lock = self._stream_locks[stream] = threading.RLock()
            return lock

    def _record(self, stream: str) -> StreamRecord:
        with self._registry_lock:
            record = self._streams.get(stream)
        if record is None:
            raise UnknownStreamError(
                f"router has no open session for stream {stream!r}"
            )
        return record

    def owner_of(self, stream: str) -> int:
        """The worker index currently serving ``stream``."""
        return self._record(stream).worker

    def placement_for(self, stream: str) -> int:
        """Ring placement for a new stream id."""
        return self._by_name[self.ring.lookup(stream)].index

    @staticmethod
    def _with_id(
        reply: dict[str, Any], request: dict[str, Any]
    ) -> dict[str, Any]:
        """Re-stamp the client's correlation id onto a worker reply."""
        reply = dict(reply)
        if "id" in request:
            reply["id"] = request["id"]
        else:
            reply.pop("id", None)
        return reply

    # ------------------------------------------------------------------
    # fleet verbs
    # ------------------------------------------------------------------
    def _handle_create(self, request: dict[str, Any]) -> dict[str, Any]:
        stream = request["stream"]
        with self._lock_for(stream):
            with self._registry_lock:
                exists = stream in self._streams
            if exists:
                return error_reply(
                    "create",
                    "duplicate_stream",
                    f"stream {stream!r} already has an open session",
                    request,
                )
            index = self.placement_for(stream)
            fields = {
                key: request[key]
                for key in (
                    "spec",
                    "n_channels",
                    "config",
                    "scorer",
                    "resume",
                    "select",
                )
                if key in request
            }
            reply = self.workers[index].request(
                "create", stream=stream, **fields
            )
            if reply.get("ok"):
                with self._registry_lock:
                    self._streams[stream] = StreamRecord(
                        spec=reply.get("spec", request.get("spec")),
                        n_channels=int(reply.get("n_channels")),
                        config=request.get("config"),
                        scorer=request.get("scorer"),
                        worker=index,
                    )
                reply = dict(reply)
                reply["worker"] = index
            return self._with_id(reply, request)

    def _handle_session_op(
        self, op: str, request: dict[str, Any]
    ) -> dict[str, Any]:
        stream = request["stream"]
        with self._lock_for(stream):
            record = self._record(stream)
            fields = {
                key: value
                for key, value in request.items()
                if key not in ("v", "op", "id")
            }
            reply = self.workers[record.worker].request(op, **fields)
            reply = dict(reply)
            if reply.get("ok"):
                reply["worker"] = record.worker
                if op == "score":
                    buffered = self._buffered.pop(stream, None)
                    if buffered:
                        reply["results"] = buffered + list(
                            reply.get("results", [])
                        )
                elif op == "close":
                    with self._registry_lock:
                        self._streams.pop(stream, None)
                        self._stream_locks.pop(stream, None)
                        self._buffered.pop(stream, None)
            return self._with_id(reply, request)

    def _handle_ping(self, request: dict[str, Any]) -> dict[str, Any]:
        blocks = []
        for worker in self.workers:
            try:
                reply = worker.request("ping")
                blocks.append(
                    {
                        "worker": worker.index,
                        "ok": bool(reply.get("ok")),
                        "uptime_seconds": reply.get("uptime_seconds"),
                    }
                )
            except WorkerDown as error:
                blocks.append(
                    {"worker": worker.index, "ok": False, "error": str(error)}
                )
        return ok_reply(
            "ping",
            request,
            uptime_seconds=round(time.monotonic() - self.started_at, 6),
            workers=blocks,
        )

    def _handle_shutdown(self, request: dict[str, Any]) -> dict[str, Any]:
        self.shutdown()
        return ok_reply("shutdown", request, stopping=True)

    # ------------------------------------------------------------------
    # stats rollup
    # ------------------------------------------------------------------
    @staticmethod
    def _reservoir_from_block(block: dict[str, Any]) -> LatencyReservoir:
        """Rebuild a session's reservoir from its stats block (window
        samples for percentiles, summary fields for lifetime totals)."""
        window = np.asarray(block.get("latency_window") or [], dtype=np.float64)
        reservoir = LatencyReservoir(capacity=max(len(window), 1))
        if len(window):
            reservoir.record_many(window)
        summary = block.get("ingest_latency") or {}
        count = int(summary.get("count", reservoir.count))
        if count:
            reservoir.count = count
            reservoir.total = float(summary.get("mean", 0.0)) * count
            reservoir.max_value = float(summary.get("max", reservoir.max_value))
        return reservoir

    def stats_payload(
        self, stream: str | None = None, latency_windows: bool = False
    ) -> dict[str, Any]:
        """The fleet view: per-worker blocks, merged sessions, rollups."""
        if self._stop.is_set() and self._final_stats is not None:
            return self._final_stats
        worker_blocks: list[dict[str, Any]] = []
        sessions: dict[str, dict[str, Any]] = {}
        payloads: list[dict[str, Any] | None] = [self.telemetry.as_dict()]
        reservoirs: list[LatencyReservoir] = []
        for worker in self.workers:
            fields: dict[str, Any] = {"latency_windows": True}
            if stream is not None:
                record = self._record(stream)
                if record.worker != worker.index:
                    continue
                fields["stream"] = stream
            try:
                reply = worker.request("stats", **fields)
            except WorkerDown as error:
                worker_blocks.append(
                    {
                        "worker": worker.index,
                        "pid": worker.pid,
                        "port": worker.port,
                        "alive": False,
                        "error": str(error),
                    }
                )
                continue
            blocks = reply.get("sessions", {})
            pending = 0
            for stream_id, block in blocks.items():
                block = dict(block)
                block["worker"] = worker.index
                reservoirs.append(self._reservoir_from_block(block))
                pending += int(block.get("pending_points", 0))
                if not latency_windows:
                    block.pop("latency_window", None)
                sessions[stream_id] = block
            payloads.append(reply.get("rollup"))
            worker_blocks.append(
                {
                    "worker": worker.index,
                    "pid": worker.pid,
                    "port": worker.port,
                    "alive": worker.alive(),
                    "respawns": worker.respawns,
                    "n_sessions": reply.get("n_sessions"),
                    "n_hydrated": reply.get("n_hydrated"),
                    "orphaned_spills": reply.get("orphaned_spills", []),
                    "orphaned_wals": reply.get("orphaned_wals", []),
                    "pending_points": pending,
                    "uptime_seconds": reply.get("uptime_seconds"),
                }
            )
        with self._registry_lock:
            n_streams = len(self._streams)
        return {
            "sessions": sessions,
            "workers": worker_blocks,
            "router": self.telemetry.as_dict(),
            "rollup": merge_payloads(payloads),
            "ingest_latency": merge_summaries(reservoirs),
            "n_workers": len(self.workers),
            "n_sessions": n_streams,
            "uptime_seconds": round(time.monotonic() - self.started_at, 6),
        }

    # ------------------------------------------------------------------
    # migration / recovery / rebalancing
    # ------------------------------------------------------------------
    def migrate(self, stream: str, target: int) -> dict[str, Any]:
        """Move one live stream to another shard, bitwise-losslessly.

        evict (flush + checkpoint) on the source → drain its buffered
        results into the router → ship the checkpoint the evict reply
        names to the target → resume-``create`` there at its stream
        clock → ``close`` the source.  The per-stream lock holds for the
        whole dance, so no ingest can slip into the source mid-move.
        """
        if not 0 <= target < len(self.workers):
            raise ConfigurationError(
                f"target worker {target} out of range 0..{len(self.workers) - 1}"
            )
        with self._lock_for(stream):
            record = self._record(stream)
            if record.worker == target:
                return {"stream": stream, "from": target, "to": target,
                        "moved": False}
            source = self.workers[record.worker]
            destination = self.workers[target]
            reply = source.request("evict", stream=stream)
            if not reply.get("ok"):
                raise ReproError(
                    f"migration evict failed for {stream!r}: {reply.get('error')}"
                )
            checkpoint = Path(reply["spilled"])
            drained: list[dict[str, Any]] = []
            while True:
                reply = source.request("score", stream=stream, flush=False)
                if not reply.get("ok"):
                    raise ReproError(
                        f"migration drain failed for {stream!r}: "
                        f"{reply.get('error')}"
                    )
                drained.extend(reply.get("results", []))
                if not reply.get("pending_results"):
                    break
            name = spill_filename(stream)
            meta = transfer_checkpoint(checkpoint, destination.spill_dir / name)
            # meta["t"] is the index of the last processed point (-1 when
            # none); the next sequence number is one past it.
            seq = int(meta.get("t", -1)) + 1
            fields: dict[str, Any] = {
                "stream": stream,
                "n_channels": record.n_channels,
                "resume": {"seq": seq},
            }
            for key, value in (
                ("spec", record.spec),
                ("config", record.config),
                ("scorer", record.scorer),
            ):
                if value is not None:
                    fields[key] = value
            reply = destination.request("create", **fields)
            if not reply.get("ok"):
                (destination.spill_dir / name).unlink(missing_ok=True)
                raise ReproError(
                    f"migration resume failed for {stream!r}: "
                    f"{reply.get('error')} (stream stays on "
                    f"{source.name}, spilled)"
                )
            reply = source.request("close", stream=stream)
            if not reply.get("ok"):
                raise ReproError(
                    f"migration close failed for {stream!r}: {reply.get('error')}"
                )
            with self._registry_lock:
                record.worker = target
                if drained:
                    self._buffered.setdefault(stream, []).extend(drained)
            self.telemetry.count("sessions_migrated")
            self.telemetry.event(
                "migrate", stream=stream, source=source.index,
                target=target, seq=seq,
            )
            return {
                "stream": stream,
                "from": source.index,
                "to": target,
                "seq": seq,
                "buffered_results": len(drained),
                "moved": True,
            }

    def _rehome(self, worker: WorkerHandle) -> None:
        """Re-home a respawned worker's streams from their spill files.

        Called by the worker handle (under its lock) right after a
        respawn: streams with a spill checkpoint resume at the
        checkpoint's stream clock; streams that never spilled restart
        fresh — their in-memory state died with the process, which the
        router counts and logs rather than hiding.
        """
        self.telemetry.count("workers_respawned")
        with self._registry_lock:
            owned = sorted(
                stream
                for stream, record in self._streams.items()
                if record.worker == worker.index
            )
        for stream in owned:
            record = self._record(stream)
            fields: dict[str, Any] = {
                "stream": stream,
                "n_channels": record.n_channels,
            }
            for key, value in (
                ("spec", record.spec),
                ("config", record.config),
                ("scorer", record.scorer),
            ):
                if value is not None:
                    fields[key] = value
            spill = worker.spill_dir / spill_filename(stream)
            recovered = False
            if spill.exists():
                try:
                    meta = peek_checkpoint(spill)
                    # t = last processed index; resume one past it.
                    fields["resume"] = {"seq": int(meta.get("t", -1)) + 1}
                    recovered = True
                except (ValueError, OSError):
                    # Truncated/incompatible spill: fall through to a
                    # fresh restart rather than refusing to serve.
                    fields.pop("resume", None)
            reply = worker.request("create", **fields)
            if reply.get("ok"):
                self.telemetry.count(
                    "streams_recovered" if recovered else "streams_restarted"
                )
                self.telemetry.event(
                    "rehome",
                    stream=stream,
                    worker=worker.index,
                    from_spill=recovered,
                    seq=reply.get("seq", 0),
                )
            elif (
                (reply.get("error") or {}).get("type") == "duplicate_stream"
                and self.config.worker.wal_dir is not None
            ):
                # The respawned worker replayed this stream from its
                # write-ahead log before accepting traffic — in-flight
                # state included, nothing to re-home and nothing lost.
                self.telemetry.count("streams_recovered")
                self.telemetry.event(
                    "rehome", stream=stream, worker=worker.index, from_wal=True
                )
            else:
                self.telemetry.event(
                    "rehome_failed",
                    stream=stream,
                    worker=worker.index,
                    error=reply.get("error"),
                )

    def check_rebalance(self) -> dict[str, Any]:
        """Migrate streams off shards that run hot.

        A shard is hot when its merged ingest-latency p99 exceeds
        ``hot_p99_s``, or when the fraction of ingest attempts it
        rejected (``queue_full``) since the last check exceeds
        ``hot_rejection_rate``.  Up to ``rebalance_max_moves`` streams
        (deepest queues first) move from the hottest shard to the shard
        with the fewest pending points.  With both thresholds ``None``
        this is a no-op.
        """
        if self.config.hot_p99_s is None and self.config.hot_rejection_rate is None:
            return {"moved": [], "hot": []}
        loads: dict[int, dict[str, Any]] = {}
        for worker in self.workers:
            try:
                reply = worker.request("stats", latency_windows=True)
            except WorkerDown:
                continue
            blocks = reply.get("sessions", {})
            reservoirs = [
                self._reservoir_from_block(block) for block in blocks.values()
            ]
            counters = (reply.get("rollup") or {}).get("counters", {})
            ingested = int(counters.get("points_ingested", 0))
            rejected = int(counters.get("ingest_rejected", 0))
            seen_ingested, seen_rejected = self._admission_seen.get(
                worker.index, (0, 0)
            )
            self._admission_seen[worker.index] = (ingested, rejected)
            delta_attempts = (ingested - seen_ingested) + (
                rejected - seen_rejected
            )
            delta_rejected = rejected - seen_rejected
            loads[worker.index] = {
                "p99": merge_summaries(reservoirs)["p99"],
                "rejection_rate": (
                    delta_rejected / delta_attempts if delta_attempts else 0.0
                ),
                "pending": sum(
                    int(block.get("pending_points", 0))
                    for block in blocks.values()
                ),
                "streams": sorted(
                    blocks,
                    key=lambda s: (-int(blocks[s].get("pending_points", 0)), s),
                ),
            }
        hot = [
            index
            for index, load in loads.items()
            if (
                self.config.hot_p99_s is not None
                and load["p99"] > self.config.hot_p99_s
            )
            or (
                self.config.hot_rejection_rate is not None
                and load["rejection_rate"] > self.config.hot_rejection_rate
            )
        ]
        if not hot or len(loads) < 2:
            return {"moved": [], "hot": hot}
        hottest = max(hot, key=lambda index: (loads[index]["p99"], index))
        cold_candidates = [index for index in loads if index not in hot]
        if not cold_candidates:
            return {"moved": [], "hot": hot}
        target = min(
            cold_candidates, key=lambda index: (loads[index]["pending"], index)
        )
        moved = []
        for stream in loads[hottest]["streams"][: self.config.rebalance_max_moves]:
            try:
                outcome = self.migrate(stream, target)
            except ReproError as error:
                self.telemetry.event(
                    "rebalance_failed", stream=stream, error=str(error)
                )
                continue
            if outcome.get("moved"):
                moved.append(stream)
        if moved:
            self.telemetry.count("rebalances")
            self.telemetry.event(
                "rebalance", source=hottest, target=target, streams=moved
            )
        return {"moved": moved, "hot": hot, "target": target}

    # ------------------------------------------------------------------
    # protocol dispatch
    # ------------------------------------------------------------------
    def handle(self, request: dict[str, Any]) -> dict[str, Any]:
        """Map one protocol request to its reply (never raises)."""
        op = request.get("op") if isinstance(request, dict) else None
        try:
            request = parse_request(request)
            op = request["op"]
            if op == "ping":
                return self._handle_ping(request)
            if op == "shutdown":
                return self._handle_shutdown(request)
            if op == "stats":
                return ok_reply(
                    op,
                    request,
                    **self.stats_payload(
                        request.get("stream"),
                        latency_windows=request.get("latency_windows", False),
                    ),
                )
            if op == "create":
                return self._handle_create(request)
            if op in ("ingest", "score", "describe", "evict", "close"):
                return self._handle_session_op(op, request)
            raise ProtocolError(f"unhandled op {op!r}")  # pragma: no cover
        except ProtocolError as error:
            return error_reply(op, "bad_request", str(error), request)
        except UnknownStreamError as error:
            return error_reply(op, "unknown_stream", str(error), request)
        except WorkerDown as error:
            return error_reply(op, "worker_down", str(error), request)
        except ConfigurationError as error:
            return error_reply(op, "bad_config", str(error), request)
        except ReproError as error:
            return error_reply(op, "internal", str(error), request)
        except Exception as error:  # noqa: BLE001 — the router must not die
            return error_reply(
                op, "internal", f"{type(error).__name__}: {error}", request
            )
