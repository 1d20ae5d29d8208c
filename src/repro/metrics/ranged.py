"""Range-based precision, recall and PR-AUC (Hundman et al., 2018).

The paper defines TP/FP/FN over *sequences* of time steps:

- any positive prediction overlapping a true anomaly sequence makes that
  sequence a **TP** (counted once per true sequence);
- a true sequence with no positive prediction inside is a **FN**;
- a predicted sequence (maximal run of positive predictions) with no
  overlap to any true sequence is a **FP**.

Precision and recall follow from these counts, and the PR-AUC integrates
precision over recall while sweeping the score threshold.

The curve builders run on the shared all-threshold core in
:mod:`repro.metrics.sweep` — one sort of the scores instead of one
window-extraction-plus-overlap pass per threshold.  The scalar
:func:`range_confusion` answers a single threshold; the property tests
pin the sweep to it count-for-count, and to the per-threshold loop kept
as a test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from repro.core.types import AnomalyWindow, FloatArray, windows_from_labels
from repro.metrics.pointwise import candidate_thresholds
from repro.metrics.sweep import range_sweep, step_auc


@dataclass(frozen=True)
class RangeConfusion:
    """Sequence-level confusion counts."""

    tp: int
    fp: int
    fn: int

    @property
    def precision(self) -> float:
        denominator = self.tp + self.fp
        return self.tp / denominator if denominator else 0.0

    @property
    def recall(self) -> float:
        denominator = self.tp + self.fn
        return self.tp / denominator if denominator else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if (p + r) else 0.0


def range_confusion(
    predicted_windows: list[AnomalyWindow], true_windows: list[AnomalyWindow]
) -> RangeConfusion:
    """Hundman-style sequence confusion from two window lists."""
    tp = sum(
        1
        for true in true_windows
        if any(true.overlaps(pred) for pred in predicted_windows)
    )
    fn = len(true_windows) - tp
    fp = sum(
        1
        for pred in predicted_windows
        if not any(pred.overlaps(true) for true in true_windows)
    )
    return RangeConfusion(tp=tp, fp=fp, fn=fn)


def range_precision_recall(
    scores: FloatArray,
    labels: NDArray[np.int_],
    threshold: float,
) -> tuple[float, float]:
    """Range-based ``(precision, recall)`` at one threshold."""
    scores = np.asarray(scores, dtype=np.float64)
    predicted = windows_from_labels((scores >= threshold).astype(int))
    truth = windows_from_labels(np.asarray(labels))
    confusion = range_confusion(predicted, truth)
    return confusion.precision, confusion.recall


def range_pr_curve(
    scores: FloatArray,
    labels: NDArray[np.int_],
    n_thresholds: int = 50,
) -> tuple[FloatArray, FloatArray, FloatArray]:
    """Range-based PR curve: ``(thresholds, precisions, recalls)``.

    All thresholds' sequence counts come from one sorted pass
    (:func:`repro.metrics.sweep.range_sweep`).
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    thresholds = candidate_thresholds(scores, n_thresholds)
    sweep = range_sweep(scores, labels, thresholds)
    # Curve convention: an empty prediction set has precision 1 (it
    # makes no mistakes), anchoring the high-threshold end at (0, 1).
    empty = thresholds > (float(scores.max()) if scores.size else -np.inf)
    precisions = np.where(empty, 1.0, sweep.precisions)
    return thresholds, precisions, sweep.recalls


def range_pr_auc(
    scores: FloatArray,
    labels: NDArray[np.int_],
    n_thresholds: int = 50,
) -> float:
    """Area under the range-based precision-recall curve.

    Thresholds are swept from high to low and step-integrated via
    :func:`~repro.metrics.sweep.step_auc`, so the trivial all-positive
    operating point cannot dominate the area.
    """
    thresholds, precisions, recalls = range_pr_curve(scores, labels, n_thresholds)
    order = np.argsort(thresholds)[::-1]  # descending threshold
    return step_auc(recalls[order], precisions[order])
