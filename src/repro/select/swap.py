"""Hot-swap: promote a challenger without dropping or re-scoring a point.

The swap runs under the session lock, at a micro-batch boundary: every
point up to the swap offset ``swap_t`` was just scored by the champion,
every queued point is still unscored.  The protocol, in commit order:

1. **WAL swap record (intent)** — a ``{"kind": "swap", "t", "spec",
   "config", "scorer", "results"}`` record is appended and fsynced
   (unless the policy is ``never``).  ``results`` are the champion's
   scored-but-possibly-uncollected results for the block that triggered
   the swap — the one block whose delivery the swap barrier would
   otherwise strand.  The record alone commits nothing.
2. **WAL barrier (the commit point)** — the challenger detector is
   checkpointed by the log's ordinary
   :meth:`~repro.serve.wal.SessionWal.barrier` (atomic, counted in
   ``wal_barriers``).  Its ``os.replace`` is the commit: from here on,
   recovery finds a barrier whose clock reaches ``swap_t``, folds the
   swap record into the session's open metadata (replay planning folds
   a swap record only when the barrier covers its ``t`` — otherwise the
   record is an aborted intent, scrubbed before replay), re-emits the
   record's carried results, and replays queued points through the
   challenger — exactly the post-swap behavior.
3. **In-memory install** — the checkpoint is loaded back and becomes
   the session's detector (the promoted champion is the *round-tripped*
   detector, so a swap and a crash-plus-recovery produce bitwise the
   same continuation), the session's spec label and fleet key flip to
   the lane's, and — when demotion is on — the old champion becomes a
   challenger lane, enabling a swap back on recurring drift.

Crash anywhere and no point is lost, doubled or reordered:

- between (1) and (2): the swap record is durable but the checkpoint is
  not — the swap **aborted**.  Recovery scrubs the record, loads the
  last pre-swap barrier and replays the log through the *old*
  champion; the triggering block is re-scored bitwise (same state, same
  engine) and re-emitted.  The promotion simply never happened — it was
  never acknowledged anywhere user-visible.
- between (2) and (3): the swap **committed**.  Recovery installs the
  challenger at ``swap_t`` and re-emits the triggering block's results
  from the swap record, so even the block scored in the same breath as
  the swap is delivered exactly once.

Without a WAL the swap still round-trips the challenger through
checkpoint bytes (in memory), so "promotion" always means "what a
restart would have produced".
"""

from __future__ import annotations

import dataclasses
import os
import pickle
from typing import Any

from repro.core.config import DetectorConfig
from repro.core.detector import StreamingAnomalyDetector
from repro.core.exceptions import ConfigurationError
from repro.core.registry import MODEL_CLASSES, AlgorithmSpec, build_detector
from repro.obs import NULL_TELEMETRY
from repro.select.race import ChallengerLane
from repro.streaming.checkpoint import load_detector, peek_checkpoint

#: crash-injection hook for the mid-swap recovery tests: set the
#: ``REPRO_SELECT_CRASH`` environment variable to ``after_checkpoint``
#: or ``after_record`` and the process dies (``os._exit``) at that
#: point of the swap protocol — the on-disk state SIGKILL would leave.
_CRASH_ENV = "REPRO_SELECT_CRASH"


def _maybe_crash(point: str) -> None:
    if os.environ.get(_CRASH_ENV) == point:
        os._exit(42)


def expected_model_class(spec_label: str) -> str | None:
    """Model class name a spec label should checkpoint as (``None`` if
    the label is not a registry spec)."""
    model = str(spec_label).split("+", 1)[0]
    cls = MODEL_CLASSES.get(model)
    return cls.__name__ if cls is not None else None


# ----------------------------------------------------------------------
# warm-start
# ----------------------------------------------------------------------
def warm_start_detector(
    spec_label: str,
    n_channels: int,
    config: DetectorConfig | None = None,
    scorer: str | None = None,
    at: int = 0,
) -> StreamingAnomalyDetector:
    """Fresh detector whose stream clock is preset to offset ``at``.

    The detector's next point is stream index ``at`` (its ``t`` is
    ``at - 1``), so sequence numbers, checkpoint metadata and WAL replay
    cursors all stay continuous when it takes over a live stream — the
    cross-spec resume primitive under both challenger lanes and the
    ``resume``-with-a-new-spec path.  The model itself starts cold (it
    re-warms on the stream); only the clock carries over.
    """
    parts = str(spec_label).split("+")
    if len(parts) != 3:
        raise ConfigurationError(
            f"spec must look like 'model+task1+task2', got {spec_label!r}"
        )
    if int(at) < 0:
        raise ConfigurationError(f"warm-start offset must be >= 0, got {at}")
    detector = build_detector(
        AlgorithmSpec(*parts),
        n_channels=int(n_channels),
        config=config if config is not None else DetectorConfig(),
        scorer=scorer,
    )
    detector.t = int(at) - 1
    return detector


def warm_start_from_checkpoint(
    path: Any,
    spec_label: str,
    n_channels: int,
    config: DetectorConfig | None = None,
    scorer: str | None = None,
) -> StreamingAnomalyDetector:
    """Continue a checkpointed stream under a *different* spec.

    Reads the checkpoint's stream clock ``t`` and warm-starts a
    ``spec_label`` detector at ``t + 1`` — the next point the old spec
    would have scored is the first point the new spec scores, no point
    skipped or doubled (``tests/test_checkpoint_roundtrip.py``).
    """
    meta = peek_checkpoint(path)
    return warm_start_detector(
        spec_label,
        n_channels,
        config=config,
        scorer=scorer,
        at=int(meta["t"]) + 1,
    )


# ----------------------------------------------------------------------
# the swap itself
# ----------------------------------------------------------------------
def _roundtrip(detector: StreamingAnomalyDetector) -> StreamingAnomalyDetector:
    """Checkpoint round-trip in memory (the WAL-less swap path): the
    promoted detector always passes through the same ``__getstate__`` /
    ``__setstate__`` contract a durable checkpoint exercises, so a swap
    is indistinguishable from a save-restart-load."""
    return pickle.loads(pickle.dumps(detector, protocol=pickle.HIGHEST_PROTOCOL))


def hot_swap(
    session: Any,
    lane: ChallengerLane,
    telemetry=None,
    results: list[dict[str, Any]] | None = None,
) -> dict[str, Any]:
    """Promote ``lane`` to be ``session``'s champion.  Caller holds the
    session lock; the session's queue may be non-empty (queued points
    will be scored by the new champion, exactly as a restart would).

    ``results`` are the champion's result entries for the block that
    triggered the swap — carried in the WAL swap record so a crash at
    the swap boundary can still deliver them (see the module docstring).

    Returns the promotion event dict (``stream`` / ``t`` / ``from`` /
    ``to``).
    """
    race = session.race
    swap_t = int(lane.detector.t)
    old_spec = session.spec_label
    wal = session.wal
    if wal is not None:
        wal.log_swap(
            {
                "t": swap_t,
                "spec": lane.spec_label,
                "config": dataclasses.asdict(lane.detector_config),
                "scorer": lane.scorer,
                "results": [dict(entry) for entry in results or ()],
            }
        )
        _maybe_crash("after_record")
        wal.barrier(lane.detector)
        _maybe_crash("after_checkpoint")
        promoted = load_detector(wal.barrier_path)
    else:
        promoted = _roundtrip(lane.detector)
    old_detector = session.detector
    old_meta = race.champion_meta
    session.detector = promoted
    if session.telemetry is not None and isinstance(
        promoted, StreamingAnomalyDetector
    ):
        promoted.telemetry = session.telemetry
    session.spec_label = lane.spec_label
    session.fleet_key = lane.fleet_key
    race.champion_meta = (
        lane.spec_label,
        lane.detector_config,
        lane.scorer,
        lane.fleet_key,
    )
    race.lanes.remove(lane)
    if (
        race.demote
        and old_meta is not None
        and isinstance(old_detector, StreamingAnomalyDetector)
    ):
        # The per-session telemetry follows the champion role: the
        # demoted detector's shadow steps must not count as champion
        # work.
        old_detector.telemetry = NULL_TELEMETRY
        race.lanes.append(
            ChallengerLane(old_meta[0], old_detector, old_meta[1], old_meta[2], old_meta[3])
        )
    # Every lane (and the new champion) re-warms: post-swap signals
    # compare behavior under the *new* regime, not stale averages.
    race.champion_stats.reset()
    for other in race.lanes:
        other.stats.reset()
    race.points_since_swap = 0
    race.promotions += 1
    event = {
        "stream": session.stream_id,
        "t": swap_t,
        "from": old_spec,
        "to": lane.spec_label,
    }
    race.events.append(event)
    # Fleet-level counter only: the per-session view already carries
    # ``race.promotions`` (via ``describe``), and counting both sides
    # would double the stats rollup.
    if telemetry is not None:
        telemetry.count("promotions")
        telemetry.event("promotion", **event)
    elif session.telemetry is not None:
        session.telemetry.count("promotions")
        session.telemetry.event("promotion", **event)
    return event
