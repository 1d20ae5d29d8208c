"""Volume under the surface (Paparrizos et al., 2022).

VUS makes time-series anomaly evaluation parameter-free by sweeping *two*
knobs and integrating over both: the anomaly-score threshold and a buffer
length ``l`` around every true anomaly window.  For each buffer length the
binary labels are softened into weights that ramp linearly from 0 to 1
over ``l/2`` steps entering a window and back down leaving it; a weighted
(range-aware) ROC or PR curve is computed per buffer, and the volume is
the mean AUC across buffer lengths.

Following the original construction, recall is additionally blended with
an *existence* term — the fraction of true windows containing at least one
detection — which injects the sequence-overlap information the paper
highlights ("combines point-wise scores with the information of
overlapping predicted and true anomaly sequences").

Every buffer's curves come from **one sort of the score array**
(:mod:`repro.metrics.sweep`): the buffered label weights become a weight
vector, per-threshold TP/FP masses come from suffix-cumulative sums over
the shared sorted order, and the existence term is a lookup against the
per-window peak scores.  The property tests pin the curves to a
per-threshold loop kept as a test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from repro._compat import trapezoid
from repro.core.types import FloatArray, windows_from_labels
from repro.metrics.pointwise import candidate_thresholds
from repro.metrics.sweep import ScoreSweep, pr_curve, step_auc, window_peaks


def buffered_label_weights(labels: NDArray[np.int_], buffer: int) -> FloatArray:
    """Soften binary labels with linear ramps of length ``buffer // 2``.

    Steps inside a true window keep weight 1; the ``buffer // 2`` steps
    before a window's start (and after its end) receive linearly
    increasing (decreasing) weights.  Overlapping ramps take the maximum.

    Vectorized: the ramp at a step depends only on its distance to the
    nearest true window, found with two sorted lookups against the window
    boundaries — bitwise-equal to a per-window ramp loop.
    """
    labels = np.asarray(labels)
    weights = labels.astype(np.float64).copy()
    half = buffer // 2
    if half == 0:
        return weights
    windows = windows_from_labels(labels)
    if not windows:
        return weights
    n = weights.size
    starts = np.asarray([w.start for w in windows])
    ends = np.asarray([w.end for w in windows])
    idx = np.arange(n)
    nxt = np.searchsorted(starts, idx, side="right")  # next window at or after i+1
    prv = nxt - 1  # last window starting at or before i
    big = float(n + half + 2)  # farther than any ramp can reach
    dist_next = np.where(nxt < len(windows), starts[np.minimum(nxt, len(windows) - 1)] - idx, big)
    dist_prev = np.where(prv >= 0, idx - (ends[np.maximum(prv, 0)] - 1), big)
    inside = (prv >= 0) & (idx < ends[np.maximum(prv, 0)])
    distance = np.where(inside, 0.0, np.minimum(dist_next, dist_prev))
    ramp = 1.0 - distance / (half + 1)
    return np.maximum(weights, ramp)


@dataclass(frozen=True)
class VUSResult:
    """VUS values plus the per-buffer AUCs they average."""

    vus_pr: float
    vus_roc: float
    buffers: tuple[int, ...]
    pr_aucs: tuple[float, ...]
    roc_aucs: tuple[float, ...]


def _weighted_curves(
    scores: FloatArray,
    weights: FloatArray,
    thresholds: FloatArray,
    existence: FloatArray,
    existence_weight: float,
    sweep: ScoreSweep,
) -> tuple[float, float]:
    """PR-AUC and ROC-AUC for one buffered weighting, all thresholds at
    once from the shared sorted scores.

    ``existence`` is the precomputed fraction of true windows detected at
    each (descending) threshold — shared across buffers because it does
    not depend on the weighting.
    """
    curve = pr_curve(scores, weights=weights, thresholds=thresholds, sweep=sweep)
    point_recall = curve.recalls
    recalls = existence_weight * existence + (1.0 - existence_weight) * point_recall
    negative_mass = float((1.0 - weights).sum())
    fprs = curve.fp / negative_mass if negative_mass else np.zeros_like(curve.fp)
    pr_auc = step_auc(recalls, curve.precisions)
    # The predicted set only grows as the threshold descends, so fprs and
    # recalls are already in ascending-x order.  Do NOT re-sort: exact
    # ties in fp mass can differ by 1 ulp between summation orders, and
    # an unstable sort would then scramble the tied entries, moving
    # different recall values to the tie boundaries and changing the
    # integral (the curve is a step exactly at those ties).
    roc_auc = float(trapezoid(recalls, fprs))
    return pr_auc, roc_auc


def vus(
    scores: FloatArray,
    labels: NDArray[np.int_],
    max_buffer: int = 16,
    n_buffers: int = 5,
    n_thresholds: int = 50,
    existence_weight: float = 0.5,
) -> VUSResult:
    """Volume under the PR and ROC surfaces.

    Args:
        scores: anomaly scores, shape ``(T,)``.
        labels: binary ground truth, shape ``(T,)``.
        max_buffer: largest buffer length ``l`` swept.
        n_buffers: number of buffer lengths between 0 and ``max_buffer``.
        n_thresholds: thresholds per curve.
        existence_weight: blend between window-existence recall and
            point-wise weighted recall (0 = purely point-wise).

    Returns:
        :class:`VUSResult` with both volumes and the per-buffer AUCs.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise ValueError(
            f"scores shape {scores.shape} != labels shape {labels.shape}"
        )
    if max_buffer < 0:
        raise ValueError(f"max_buffer must be >= 0, got {max_buffer}")
    if not 0.0 <= existence_weight <= 1.0:
        raise ValueError(
            f"existence_weight must be in [0, 1], got {existence_weight}"
        )
    buffers = tuple(
        int(b) for b in np.unique(np.linspace(0, max_buffer, max(n_buffers, 1)))
    )
    thresholds_desc = np.sort(candidate_thresholds(scores, n_thresholds))[::-1]
    sweep = ScoreSweep(scores)
    truth_windows = windows_from_labels(labels)
    if truth_windows:
        peaks = np.sort(window_peaks(scores, truth_windows))
        detected = peaks.size - np.searchsorted(peaks, thresholds_desc, side="left")
        existence = detected / len(truth_windows)
    else:
        existence = np.zeros(thresholds_desc.size)
    pr_aucs, roc_aucs = [], []
    for buffer in buffers:
        weights = buffered_label_weights(labels, buffer)
        pr_auc, roc_auc = _weighted_curves(
            scores, weights, thresholds_desc, existence, existence_weight, sweep
        )
        pr_aucs.append(pr_auc)
        roc_aucs.append(roc_auc)
    return VUSResult(
        vus_pr=float(np.mean(pr_aucs)),
        vus_roc=float(np.mean(roc_aucs)),
        buffers=buffers,
        pr_aucs=tuple(pr_aucs),
        roc_aucs=tuple(roc_aucs),
    )
