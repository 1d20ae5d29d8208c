"""Online detection service: live streams in, anomaly scores out.

The offline harness consumes finished labelled series; ``repro.serve``
turns the same bitwise-pinned streaming engine into a long-lived scorer
for many concurrent streams — the deployment setting the paper's
streaming premise implies (points arrive one at a time, the detector
adapts online).

Layers (zero new dependencies — stdlib + numpy):

- :mod:`repro.serve.session` — one live detector per stream id, with
  monotonic sequence numbers, per-session telemetry and idle tracking;
- :mod:`repro.serve.scheduler` — micro-batch coalescing with bounded
  queues, :class:`~repro.serve.scheduler.QueueFull` backpressure and
  round-robin fairness;
- :mod:`repro.serve.state` — LRU session store with checkpoint-backed
  eviction (a WAL barrier, or a spill file without a log; transparent
  rehydration, bitwise-identical resume);
- :mod:`repro.serve.wal` — per-session write-ahead ingest logs with
  checkpoint barriers: crash-safe durability, bounded replay, and
  bitwise-identical recovery of in-flight state;
- :mod:`repro.serve.protocol` / :mod:`repro.serve.server` — the
  JSON-lines wire protocol, the threading TCP server, and in-process /
  socket clients;
- :mod:`repro.serve.router` / :mod:`repro.serve.worker` — the sharded
  fleet: N worker processes (one service each) behind a consistent-hash
  router with live session migration, worker supervision and fleet-wide
  stats rollups;
- :mod:`repro.select` (a sibling package) — online algorithm selection:
  champion/challenger shadow lanes raced over the same ingested points,
  a bandit/EWMA promotion policy, and point-lossless hot-swap of the
  serving detector with a WAL ``swap`` record at the commit boundary.

CLI: ``python -m repro.experiments.cli serve --port 8765 --spec
ae+sw+kswin`` (add ``--workers 4`` for the sharded fleet).  See
``docs/architecture.md`` ("Serving" / "Sharded serving") and
``examples/live_service.py``.
"""

from repro.serve.protocol import (
    ERROR_TYPES,
    OPS,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_line,
    encode,
    error_reply,
    ok_reply,
    parse_request,
)
from repro.serve.router import (
    HashRing,
    RouterConfig,
    RouterService,
    WorkerDown,
    WorkerHandle,
)
from repro.serve.scheduler import MicroBatchScheduler, QueueFull, SchedulerConfig
from repro.serve.server import (
    BaseServeClient,
    DetectionServer,
    DetectionService,
    ServeClient,
    ServeConfig,
    SocketServeClient,
)
from repro.serve.session import DetectorSession
from repro.serve.state import (
    DuplicateSessionError,
    SessionStore,
    SpillCollisionError,
    UnknownSessionError,
    spill_filename,
)
from repro.serve.wal import (
    COMPACT_MIN_BYTES,
    FSYNC_POLICIES,
    SessionWal,
    WalConfig,
    WalCorruption,
    WalError,
    barrier_filename,
    plan_replay,
    read_records,
    wal_filename,
)
from repro.serve.worker import serve_config_from_payload, serve_config_to_payload

__all__ = [
    "COMPACT_MIN_BYTES",
    "ERROR_TYPES",
    "FSYNC_POLICIES",
    "OPS",
    "PROTOCOL_VERSION",
    "BaseServeClient",
    "DetectionServer",
    "DetectionService",
    "DetectorSession",
    "DuplicateSessionError",
    "HashRing",
    "MicroBatchScheduler",
    "ProtocolError",
    "QueueFull",
    "RouterConfig",
    "RouterService",
    "SchedulerConfig",
    "ServeClient",
    "ServeConfig",
    "SessionStore",
    "SessionWal",
    "SocketServeClient",
    "SpillCollisionError",
    "UnknownSessionError",
    "WalConfig",
    "WalCorruption",
    "WalError",
    "WorkerDown",
    "WorkerHandle",
    "barrier_filename",
    "decode_line",
    "encode",
    "error_reply",
    "ok_reply",
    "parse_request",
    "plan_replay",
    "read_records",
    "serve_config_from_payload",
    "serve_config_to_payload",
    "spill_filename",
    "wal_filename",
]
