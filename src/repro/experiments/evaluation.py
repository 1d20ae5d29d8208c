"""Turn a :class:`StreamResult` into the paper's five metric columns.

Table III reports, per algorithm and corpus: range-based precision and
recall, range-based PR-AUC, VUS and the NAB score.  Precision, recall and
NAB need a decision threshold; following the common protocol of the
corpora's original papers we report them at the best-range-F1 threshold
over the scored region (AUC and VUS are threshold-free).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.metrics.nab import nab_score
from repro.metrics.pointwise import candidate_thresholds
from repro.metrics.ranged import range_pr_auc, range_precision_recall
from repro.metrics.sweep import range_sweep
from repro.metrics.vus import vus
from repro.streaming.runner import StreamResult


@dataclass(frozen=True)
class MetricRow:
    """One evaluated run: the five Table III columns."""

    precision: float
    recall: float
    auc: float
    vus: float
    nab: float

    def as_dict(self) -> dict[str, float]:
        return {
            "Prec": self.precision,
            "Rec": self.recall,
            "AUC": self.auc,
            "VUS": self.vus,
            "NAB": self.nab,
        }


def best_f1_threshold(
    scores: np.ndarray,
    labels: np.ndarray,
    n_thresholds: int = 40,
) -> float:
    """Threshold maximizing range-based F1 over candidate quantiles.

    Ties break toward the *highest* threshold: the low-threshold,
    everything-is-anomalous operating point can match the F1 of a sharp
    detector under range semantics, but it is never the better report.
    Every candidate's sequence counts come from one sorted pass.
    """
    thresholds = candidate_thresholds(scores, n_thresholds)[::-1]
    sweep = range_sweep(scores, labels, thresholds)
    p, r = sweep.precisions, sweep.recalls
    with np.errstate(invalid="ignore"):
        f1 = np.where(p + r > 0.0, 2.0 * p * r / (p + r), 0.0)
    # argmax keeps the first (= highest-threshold) maximizer.
    return float(thresholds[int(np.argmax(f1))])


def quantile_threshold(scores: np.ndarray, quantile: float = 0.95) -> float:
    """An unsupervised operating point: a high quantile of the scores.

    Streaming detectors do not get to pick an oracle threshold; flagging
    the top ``1 - quantile`` fraction of scores is the standard
    label-free policy and yields realistic precision/recall trade-offs
    (an oracle best-F1 threshold degenerates to predict-everything under
    range semantics — one giant window overlapping any true window has
    perfect range F1).
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        raise ValueError("scores must be non-empty")
    if not 0.0 < quantile < 1.0:
        raise ValueError(f"quantile must be in (0, 1), got {quantile}")
    return float(np.quantile(scores, quantile))


def evaluate_scores(
    scores: np.ndarray,
    labels: np.ndarray,
    threshold: float | None = None,
    n_thresholds: int = 40,
    vus_max_buffer: int = 16,
    threshold_quantile: float = 0.95,
) -> MetricRow:
    """Compute all five metric columns for one score/label pair.

    When ``threshold`` is not given, the unsupervised
    :func:`quantile_threshold` policy picks the operating point for the
    thresholded metrics (precision, recall, NAB); AUC and VUS are
    threshold-free.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if threshold is None:
        threshold = quantile_threshold(scores, threshold_quantile)
    precision, recall = range_precision_recall(scores, labels, threshold)
    auc = range_pr_auc(scores, labels, n_thresholds)
    vus_result = vus(scores, labels, max_buffer=vus_max_buffer)
    nab = nab_score(scores, labels, threshold)
    return MetricRow(
        precision=precision,
        recall=recall,
        auc=auc,
        vus=vus_result.vus_pr,
        nab=nab.score,
    )


def evaluate_result(
    result: StreamResult,
    threshold: float | None = None,
    n_thresholds: int = 40,
    threshold_quantile: float = 0.95,
) -> MetricRow:
    """Evaluate the post-warm-up region of a stream run."""
    scores, labels = result.scored_region()
    if scores.size == 0 or not labels.any():
        return MetricRow(0.0, 0.0, 0.0, 0.0, 0.0)
    return evaluate_scores(
        scores, labels, threshold, n_thresholds,
        threshold_quantile=threshold_quantile,
    )


def average_rows(rows: list[MetricRow]) -> MetricRow:
    """Element-wise mean of several metric rows."""
    if not rows:
        raise ValueError("cannot average zero rows")
    return MetricRow(
        precision=float(np.mean([r.precision for r in rows])),
        recall=float(np.mean([r.recall for r in rows])),
        auc=float(np.mean([r.auc for r in rows])),
        vus=float(np.mean([r.vus for r in rows])),
        nab=float(np.mean([r.nab for r in rows])),
    )
