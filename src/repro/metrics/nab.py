"""Numenta Anomaly Benchmark scoring (Lavin & Ahmad, 2015).

The NAB score rewards early detection inside each true anomaly window via
a scaled sigmoid over the detection's relative position, and penalizes
point-wise false positives.  Matching the paper's description:

- the **first** positive prediction inside a true window earns a reward of
  ``sigmoid(position)`` normalized so a detection at the window start is
  worth 1 and one at the window end approaches 0;
- each missed window costs ``a_fn`` (default 1);
- each false-positive *time step* costs ``1 / n_windows`` (the paper:
  "every time step in that interval contributes -1/|anomalies|") scaled by
  ``a_fp``;
- the total is normalized by the number of true windows, so a perfect
  detector scores 1 and an always-positive detector on a long stream goes
  deeply negative — reproducing the paper's very negative NAB values next
  to high range-based precision/recall.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from repro.core.types import AnomalyWindow, FloatArray, windows_from_labels
from repro.metrics.sweep import count_ge, mass_ge, window_peaks


def scaled_sigmoid(y: float) -> float:
    """NAB's scaled sigmoid ``2 / (1 + e^{5y}) - 1``.

    ``y`` is the detection position relative to the window, mapped so the
    window start is -1 and the window end is 0: early detections approach
    +0.987, detections at the window end approach 0, and positions after
    the window would go negative.
    """
    return 2.0 / (1.0 + math.exp(5.0 * y)) - 1.0


#: Normalizer so a detection exactly at the window start earns reward 1.
_MAX_REWARD = scaled_sigmoid(-1.0)


def detection_reward(detection: int, window: AnomalyWindow) -> float:
    """Reward in ``[0, 1]`` for the first detection at step ``detection``."""
    if not window.contains(detection):
        raise ValueError(f"step {detection} outside window {window}")
    span = max(len(window) - 1, 1)
    relative = (detection - window.start) / span - 1.0  # start -> -1, end -> 0
    return scaled_sigmoid(relative) / _MAX_REWARD


@dataclass(frozen=True)
class NABResult:
    """Decomposition of a NAB score."""

    score: float
    rewards: float
    n_detected: int
    n_missed: int
    n_false_positive_steps: int


@dataclass(frozen=True)
class NABProfile:
    """Application profile weighting FPs vs FNs (as in the real NAB).

    NAB ships three profiles; the reward structure differs only in the
    relative cost of false positives and misses:

    - ``STANDARD`` — balanced;
    - ``REWARD_LOW_FP`` — false alarms are expensive (e.g. paging an
      on-call operator);
    - ``REWARD_LOW_FN`` — misses are expensive (e.g. safety monitoring).
    """

    name: str
    a_fp: float
    a_fn: float


STANDARD = NABProfile("standard", a_fp=1.0, a_fn=1.0)
REWARD_LOW_FP = NABProfile("reward_low_FP", a_fp=2.0, a_fn=1.0)
REWARD_LOW_FN = NABProfile("reward_low_FN", a_fp=0.5, a_fn=2.0)

PROFILES = {p.name: p for p in (STANDARD, REWARD_LOW_FP, REWARD_LOW_FN)}


def nab_score(
    scores: FloatArray,
    labels: NDArray[np.int_],
    threshold: float,
    a_fp: float = 1.0,
    a_fn: float = 1.0,
) -> NABResult:
    """NAB score for the point predictions ``scores >= threshold``.

    Args:
        scores: anomaly scores, shape ``(T,)``.
        labels: binary ground truth, shape ``(T,)``.
        threshold: decision threshold.
        a_fp: weight of the per-step false-positive penalty.
        a_fn: weight of the per-window miss penalty.

    Returns:
        The normalized score together with its components.  Returns a
        score of 0 with empty components when there are no true windows.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise ValueError(
            f"scores shape {scores.shape} != labels shape {labels.shape}"
        )
    predicted = scores >= threshold
    true_windows = windows_from_labels(labels)
    if not true_windows:
        return NABResult(0.0, 0.0, 0, 0, int(predicted.sum()))

    n_windows = len(true_windows)
    rewards = 0.0
    n_detected = 0
    for window in true_windows:
        inside = np.flatnonzero(predicted[window.start : window.end])
        if inside.size:
            rewards += detection_reward(window.start + int(inside[0]), window)
            n_detected += 1
    n_missed = n_windows - n_detected

    outside_truth = predicted & ~labels.astype(bool)
    n_fp_steps = int(outside_truth.sum())

    raw = rewards - a_fn * n_missed - a_fp * n_fp_steps / n_windows
    return NABResult(
        score=raw / n_windows,
        rewards=rewards,
        n_detected=n_detected,
        n_missed=n_missed,
        n_false_positive_steps=n_fp_steps,
    )


def nab_score_profile(
    scores: FloatArray,
    labels: NDArray[np.int_],
    threshold: float,
    profile: NABProfile = STANDARD,
) -> NABResult:
    """NAB score under one of the application profiles."""
    return nab_score(
        scores, labels, threshold, a_fp=profile.a_fp, a_fn=profile.a_fn
    )


# ----------------------------------------------------------------------
# All-threshold sweep
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class NABSweep:
    """NAB score decomposition at every threshold (arrays aligned to
    ``thresholds``)."""

    thresholds: FloatArray
    scores: FloatArray
    rewards: FloatArray
    n_detected: NDArray[np.int_]
    n_missed: NDArray[np.int_]
    n_false_positive_steps: NDArray[np.int_]


def _window_rewards(scores: FloatArray, window: AnomalyWindow) -> FloatArray:
    """Vectorized :func:`detection_reward` for every step of one window."""
    positions = np.arange(window.start, window.end)
    span = max(len(window) - 1, 1)
    relative = (positions - window.start) / span - 1.0
    return (2.0 / (1.0 + np.exp(5.0 * relative)) - 1.0) / _MAX_REWARD


def nab_sweep(
    scores: FloatArray,
    labels: NDArray[np.int_],
    thresholds: FloatArray,
    a_fp: float = 1.0,
    a_fn: float = 1.0,
) -> NABSweep:
    """NAB scores at every threshold from one sorted pass.

    The reward term is the only non-trivial piece: at threshold ``t`` a
    window's reward is earned by its *first* step with score ``>= t``.
    Within a window, the first hit can only be a strict prefix-maximum
    position ``j`` — and it is the first hit exactly for thresholds in
    ``(prefix_max_before_j, scores[j]]``.  Summing rewards over those
    static intervals is two weighted suffix-sum lookups
    (:func:`repro.metrics.sweep.mass_ge`); detections and per-step false
    positives are plain ``count_ge`` queries.  Equivalent to calling
    :func:`nab_score` per threshold, in O((n + T) log n) instead of
    O(T · n).
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise ValueError(
            f"scores shape {scores.shape} != labels shape {labels.shape}"
        )
    thresholds = np.asarray(thresholds, dtype=np.float64)
    true_windows = windows_from_labels(labels)
    n_thresholds = thresholds.size
    if not true_windows:
        fp_steps = count_ge(scores, thresholds)
        zeros_f = np.zeros(n_thresholds)
        zeros_i = np.zeros(n_thresholds, dtype=int)
        return NABSweep(
            thresholds=thresholds,
            scores=zeros_f,
            rewards=zeros_f.copy(),
            n_detected=zeros_i,
            n_missed=zeros_i.copy(),
            n_false_positive_steps=fp_steps,
        )

    n_windows = len(true_windows)
    detected = count_ge(window_peaks(scores, true_windows), thresholds)
    missed = n_windows - detected
    fp_steps = count_ge(scores[~labels.astype(bool)], thresholds)

    # First-hit reward intervals: per window, the strict prefix-maximum
    # positions j earn reward(j) for thresholds in (prev_record, s_j].
    hi_parts, lo_parts, reward_parts = [], [], []
    for window in true_windows:
        inside = scores[window.start : window.end]
        prefix_max = np.maximum.accumulate(inside)
        record = np.empty(inside.size, dtype=bool)
        record[0] = True
        record[1:] = inside[1:] > prefix_max[:-1]
        hi = inside[record]
        lo = np.concatenate(([-np.inf], hi[:-1]))
        hi_parts.append(hi)
        lo_parts.append(lo)
        reward_parts.append(_window_rewards(scores, window)[record])
    hi_all = np.concatenate(hi_parts)
    lo_all = np.concatenate(lo_parts)
    rewards_all = np.concatenate(reward_parts)
    rewards = mass_ge(hi_all, rewards_all, thresholds) - mass_ge(
        lo_all, rewards_all, thresholds
    )

    raw = rewards - a_fn * missed - a_fp * fp_steps / n_windows
    return NABSweep(
        thresholds=thresholds,
        scores=raw / n_windows,
        rewards=rewards,
        n_detected=detected,
        n_missed=missed,
        n_false_positive_steps=fp_steps,
    )
