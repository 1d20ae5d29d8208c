"""Online algorithm selection: champion/challenger racing and hot-swap.

No single streaming detector wins everywhere — SAFARI / "No Free Lunch"
(PAPERS.md, arXiv:1909.06927) frames streaming anomaly detection as a
*per-stream selection problem*, and learner-based drift detection
(arXiv:2606.20216) shows the model's own loss trend is the right signal
for deciding when the current choice has gone stale.  This package acts
on both, online, inside the serve layer:

- :mod:`repro.select.policy` — per-lane prequential signals (EWMA of
  model loss + drift-fire rate) and the selection policies that decide
  *when* a challenger has durably beaten the champion: an EWMA loss
  scorer and a UCB-style bandit, both with warm-up, hysteresis margin
  and min-dwell guards against flapping;
- :mod:`repro.select.race` — challenger *shadow lanes*: N extra
  detectors riding a champion session, scoring the same micro-batched
  points without emitting user-visible results;
- :mod:`repro.select.swap` — the hot-swap protocol: checkpoint save →
  warm-start under the new spec at the same stream offset, with a WAL
  swap record so a crash mid-swap recovers deterministically;
- :mod:`repro.select.postprocess` — PySAD-style (arXiv:2009.02572)
  composable score postprocessors held at the *session* level, so
  calibration state survives a swap.

Selection never changes what the champion computes: shadow lanes run
*after* the champion's results (and their ingest-latency samples) are
recorded, and a session with selection disabled is bitwise identical to
one without the subsystem (``tests/test_select.py``).
"""

from repro.select.policy import (
    POLICY_NAMES,
    EwmaLossPolicy,
    LaneStats,
    SelectionConfig,
    SelectionPolicy,
    UcbBanditPolicy,
    make_policy,
)
from repro.select.postprocess import (
    POSTPROCESSOR_NAMES,
    EwmaPostprocessor,
    MinMaxPostprocessor,
    Postprocessor,
    ZScorePostprocessor,
    make_postprocessor,
)
from repro.select.race import ChallengerLane, SelectionRace, build_race
from repro.select.swap import hot_swap

__all__ = [
    "POLICY_NAMES",
    "POSTPROCESSOR_NAMES",
    "ChallengerLane",
    "EwmaLossPolicy",
    "EwmaPostprocessor",
    "LaneStats",
    "MinMaxPostprocessor",
    "Postprocessor",
    "SelectionConfig",
    "SelectionPolicy",
    "SelectionRace",
    "UcbBanditPolicy",
    "ZScorePostprocessor",
    "build_race",
    "hot_swap",
    "make_policy",
    "make_postprocessor",
]
