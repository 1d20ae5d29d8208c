"""Evaluation metrics: range-based PR, PR-AUC, NAB and VUS.

All curve-based metrics run on the shared all-threshold sweep core in
:mod:`repro.metrics.sweep` — one sort of the score array answers every
threshold's confusion counts.  The property tests pin it to
per-threshold loops kept as test oracles (``tests/_oracles.py``).
"""

from repro.metrics.latency import LatencyResult, detection_latency
from repro.metrics.nab import (
    PROFILES,
    REWARD_LOW_FN,
    REWARD_LOW_FP,
    STANDARD,
    NABProfile,
    NABResult,
    NABSweep,
    detection_reward,
    nab_score,
    nab_score_profile,
    nab_sweep,
    scaled_sigmoid,
)
from repro.metrics.pointwise import (
    Confusion,
    candidate_thresholds,
    point_adjusted_confusion,
    point_adjusted_predictions,
    pointwise_confusion,
)
from repro.metrics.ranged import (
    RangeConfusion,
    range_confusion,
    range_pr_auc,
    range_pr_curve,
    range_precision_recall,
)
from repro.metrics.sweep import (
    PRCurve,
    RangeSweep,
    ScoreSweep,
    count_ge,
    mass_ge,
    pr_curve,
    range_sweep,
    step_auc,
    window_peaks,
)
from repro.metrics.vus import (
    VUSResult,
    buffered_label_weights,
    vus,
)

__all__ = [
    "Confusion",
    "LatencyResult",
    "NABProfile",
    "NABResult",
    "NABSweep",
    "PRCurve",
    "PROFILES",
    "REWARD_LOW_FN",
    "REWARD_LOW_FP",
    "RangeConfusion",
    "RangeSweep",
    "STANDARD",
    "ScoreSweep",
    "VUSResult",
    "buffered_label_weights",
    "candidate_thresholds",
    "count_ge",
    "detection_latency",
    "detection_reward",
    "mass_ge",
    "nab_score",
    "nab_score_profile",
    "nab_sweep",
    "point_adjusted_confusion",
    "point_adjusted_predictions",
    "pointwise_confusion",
    "pr_curve",
    "range_confusion",
    "range_pr_auc",
    "range_pr_curve",
    "range_precision_recall",
    "range_sweep",
    "scaled_sigmoid",
    "step_auc",
    "vus",
    "window_peaks",
]
