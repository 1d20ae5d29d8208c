"""Runtime telemetry: counters, span timers and a bounded event log.

The streaming engine is instrumented with a :class:`Telemetry` object that
accounts for *what the detector did* (steps, fine-tunes, drift fires,
speculative rollbacks, per-step fallback rows) and *where the time
went* (span timers over the framework stages of the per-step loop:
``represent`` / ``predict`` / ``nonconformity`` / ``score`` /
``task1-update`` / ``task2-check`` / ``fine-tune``).  This is the
component-level accounting SAFARI-style frameworks motivate — the paper's
Table II gives the analytic op counts per component; telemetry gives the
measured wall-clock complement at run time.

Design constraints:

- **Zero-dependency, zero-cost when off.**  The default is the
  :data:`NULL_TELEMETRY` singleton, whose every method is a no-op and
  whose ``enabled`` flag lets hot paths skip even the ``perf_counter``
  calls.  Telemetry never feeds back into the computation, so traced and
  untraced runs produce bitwise-identical scores by construction (pinned
  by ``tests/test_obs.py``).
- **Mergeable.**  Per-cell telemetry collected inside worker processes is
  serialized with :meth:`Telemetry.as_dict` and folded into a grid-level
  rollup with :meth:`Telemetry.merge_payload` / :func:`merge_payloads`.
- **Bounded.**  The event log is a ring of the most recent
  ``max_events`` structured events; older events are dropped and counted
  in ``n_events_dropped`` instead of growing without bound on
  million-step streams.
"""

from __future__ import annotations

import time
from collections import deque
from contextlib import contextmanager, nullcontext
from typing import Any, Iterable, Iterator

#: Counter keys the streaming engine increments.  Free-form keys are
#: allowed (the rollup sums whatever it sees); these are the documented
#: core schema.
CORE_COUNTERS = (
    "steps",
    "initial_fits",
    "finetunes",
    "drift_fires",
    "chunk_rollbacks",
    "fallback_steps",
    "cells_ok",
    "cells_failed",
    "cell_retries",
    "cells_recovered",
    # repro.serve fleet counters (the online detection service).
    "sessions_created",
    "sessions_closed",
    "sessions_evicted",
    "sessions_rehydrated",
    "evictions_skipped",
    "points_ingested",
    "points_scored",
    "batches_flushed",
    "ingest_rejected",
    "drain_blocked",
    # repro.serve.router shard-fleet counters (consistent-hash routing,
    # live migration, worker supervision).
    "sessions_adopted",
    "sessions_migrated",
    "workers_respawned",
    "streams_recovered",
    "streams_restarted",
    "rebalances",
    "orphaned_spills",
    # repro.serve.scheduler fused-drain counters (session-axis fleet
    # scoring and fused cross-session fine-tuning).
    "fused_drains",
    "points_fused",
    "finetunes_fused",
    "points_fused_training",
    # repro.serve.wal durability counters (write-ahead ingest log,
    # barrier checkpoints, crash recovery + bounded replay).
    "wal_appends",
    "wal_barriers",
    "wal_truncated",
    "wal_replayed",
    "wal_recovered",
    "wal_torn_tails",
    # repro.select online algorithm selection (champion/challenger
    # shadow lanes, bandit-driven hot-swap).  Shadow work is accounted
    # separately from the user-facing scoring counters so ingest-latency
    # percentiles and points_scored stay comparable across PRs.
    "points_shadow",
    "shadow_ns",
    "promotions",
    "wal_swaps",
)

#: Span keys the detector records for the stages of its per-step loop
#: (batched stages are timed per block or segment).  Experiment harnesses
#: additionally record coarse phases under a ``stage:`` prefix.
CORE_SPANS = (
    "represent",
    "predict",
    "nonconformity",
    "score",
    "task1-update",
    "task2-check",
    "fine-tune",
    "stream",
)

STAGE_PREFIX = "stage:"


class Telemetry:
    """Mutable counters + span timers + bounded structured event log.

    Args:
        max_events: capacity of the event ring; events beyond it evict
            the oldest and increment ``n_events_dropped``.
    """

    enabled = True

    def __init__(self, max_events: int = 256) -> None:
        if max_events < 1:
            raise ValueError(f"max_events must be >= 1, got {max_events}")
        self.counters: dict[str, int] = {}
        #: span name -> [calls, total_seconds]
        self.spans: dict[str, list[float]] = {}
        self.max_events = max_events
        self.events: deque[dict[str, Any]] = deque(maxlen=max_events)
        self.n_events_dropped = 0

    # -- counters ------------------------------------------------------
    def count(self, name: str, n: int = 1) -> None:
        """Increment counter ``name`` by ``n``."""
        self.counters[name] = self.counters.get(name, 0) + n

    # -- span timers ---------------------------------------------------
    def add_time(self, name: str, seconds: float, calls: int = 1) -> None:
        """Credit ``seconds`` (over ``calls`` calls) to span ``name``.

        The raw primitive for hot paths that bracket a region with two
        ``perf_counter`` reads behind an ``enabled`` check; prefer
        :meth:`span` for cold paths.
        """
        entry = self.spans.get(name)
        if entry is None:
            self.spans[name] = [calls, seconds]
        else:
            entry[0] += calls
            entry[1] += seconds

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Context manager timing one region into span ``name``."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.add_time(name, time.perf_counter() - started)

    # -- events --------------------------------------------------------
    def event(self, kind: str, **fields: Any) -> None:
        """Append one structured event (a flat JSON-safe dict)."""
        if len(self.events) == self.max_events:
            self.n_events_dropped += 1
        self.events.append({"kind": kind, **fields})

    # -- aggregation ---------------------------------------------------
    def as_dict(self) -> dict[str, Any]:
        """JSON-safe snapshot (also the cross-process wire format)."""
        return {
            "counters": dict(self.counters),
            "spans": {
                name: {"calls": int(calls), "seconds": float(seconds)}
                for name, (calls, seconds) in self.spans.items()
            },
            "events": list(self.events),
            "n_events_dropped": self.n_events_dropped,
        }

    def merge_payload(self, payload: dict[str, Any] | None) -> None:
        """Fold one :meth:`as_dict` snapshot into this telemetry.

        Counters and span times sum; events concatenate under the same
        bound (overflow counts as dropped).
        """
        if not payload:
            return
        for name, value in payload.get("counters", {}).items():
            self.count(name, int(value))
        for name, entry in payload.get("spans", {}).items():
            self.add_time(name, float(entry["seconds"]), calls=int(entry["calls"]))
        for event in payload.get("events", ()):
            fields = dict(event)
            self.event(fields.pop("kind", "event"), **fields)
        self.n_events_dropped += int(payload.get("n_events_dropped", 0))

    def stage_seconds(self) -> float:
        """Total wall time accounted to ``stage:``-prefixed spans."""
        return sum(
            seconds
            for name, (_, seconds) in self.spans.items()
            if name.startswith(STAGE_PREFIX)
        )

    def reset(self) -> None:
        self.counters.clear()
        self.spans.clear()
        self.events.clear()
        self.n_events_dropped = 0


_NULL_SPAN = nullcontext()


class NullTelemetry(Telemetry):
    """No-op telemetry: the default on every hot path.

    Every method returns immediately; ``enabled`` is ``False`` so
    instrumented code can skip its ``perf_counter`` brackets entirely.
    A single shared instance (:data:`NULL_TELEMETRY`) is used everywhere —
    it holds no state, so sharing is safe across detectors and threads.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__(max_events=1)

    def count(self, name: str, n: int = 1) -> None:
        pass

    def add_time(self, name: str, seconds: float, calls: int = 1) -> None:
        pass

    def span(self, name: str):  # type: ignore[override]
        return _NULL_SPAN

    def event(self, kind: str, **fields: Any) -> None:
        pass

    def merge_payload(self, payload: dict[str, Any] | None) -> None:
        pass


#: Shared no-op instance; ``detector.telemetry`` defaults to this.
NULL_TELEMETRY = NullTelemetry()


def merge_payloads(payloads: Iterable[dict[str, Any] | None]) -> dict[str, Any]:
    """Sum several :meth:`Telemetry.as_dict` snapshots into one rollup."""
    rollup = Telemetry()
    for payload in payloads:
        rollup.merge_payload(payload)
    return rollup.as_dict()
