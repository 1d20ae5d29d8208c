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
   same continuation), the session's recipe (and with it its label and
   fleet key) becomes the lane's, and — when demotion is on — the old
   champion becomes a challenger lane, enabling a swap back on
   recurring drift.

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

import os
import pickle
from typing import Any

from repro.core.detector import StreamingAnomalyDetector
from repro.obs import NULL_TELEMETRY
from repro.select.race import ChallengerLane
from repro.streaming.checkpoint import load_detector

#: crash-injection hook for the mid-swap recovery tests: set the
#: ``REPRO_SELECT_CRASH`` environment variable to ``after_checkpoint``
#: or ``after_record`` and the process dies (``os._exit``) at that
#: point of the swap protocol — the on-disk state SIGKILL would leave.
_CRASH_ENV = "REPRO_SELECT_CRASH"


def _maybe_crash(point: str) -> None:
    if os.environ.get(_CRASH_ENV) == point:
        os._exit(42)


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
    old_recipe = session.recipe
    wal = session.wal
    if wal is not None:
        record = lane.recipe.as_record()
        del record["n_channels"]  # a swap keeps the stream's channel count
        wal.log_swap(
            {
                "t": swap_t,
                **record,
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
    session.detector = promoted
    if session.telemetry is not None and isinstance(
        promoted, StreamingAnomalyDetector
    ):
        promoted.telemetry = session.telemetry
    session.recipe = lane.recipe
    race.lanes.remove(lane)
    if race.demote and isinstance(old_detector, StreamingAnomalyDetector):
        # The per-session telemetry follows the champion role: the
        # demoted detector's shadow steps must not count as champion
        # work.
        old_detector.telemetry = NULL_TELEMETRY
        race.lanes.append(ChallengerLane(old_recipe, old_detector))
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
        "from": old_recipe.label,
        "to": lane.recipe.label,
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
