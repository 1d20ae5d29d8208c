"""Shared all-threshold evaluation core.

Every curve-based metric in this package asks the same family of
questions: *at each candidate threshold, how much score mass (or how many
points, windows, or predicted runs) sits at or above it?*  The historical
implementations answered them with a Python loop over thresholds,
re-deriving confusion counts from the raw arrays at every operating point
— O(thresholds × n) for the point-weighted curves and worse for the
range-based ones (window extraction plus pairwise overlap per threshold).

This module answers all of them from **one sort of the score array**:

- sort the scores once, O(n log n);
- suffix-cumulative sums over the sorted order turn "mass of scores
  >= t" into a single ``np.searchsorted`` lookup per threshold;
- quantities that are not simple masses (number of predicted *runs*,
  Hundman-style FP sequence counts, NAB first-detection rewards) are
  rewritten as sums of interval indicators ``[lo < t <= hi]`` — each of
  which is again two sorted-array lookups.

Total cost: O((n + T) log n) for *all* T thresholds together, replacing
the O(T · n) and O(T · windows²) loops.  The property tests in
``tests/test_sweep.py`` pin the rewrites to those loops, which live on as
test oracles in ``tests/_oracles.py``.

The run-count identity used throughout: position ``i`` starts a maximal
run of ``scores >= t`` exactly when ``scores[i] >= t > scores[i-1]``
(with ``scores[-1] = -inf``), i.e. for thresholds in the half-open
interval ``(scores[i-1], scores[i]]``.  Summing those indicators over
``i`` counts every maximal run once — and both endpoints are static
arrays, so the whole sum collapses into two ``count_ge`` queries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from repro.core.types import AnomalyWindow, FloatArray, windows_from_labels
from repro.metrics.pointwise import candidate_thresholds

__all__ = [
    "PRCurve",
    "RangeSweep",
    "ScoreSweep",
    "count_ge",
    "mass_ge",
    "pr_curve",
    "range_sweep",
    "step_auc",
    "window_peaks",
]


def count_ge(values: FloatArray, thresholds: FloatArray) -> NDArray[np.int_]:
    """``#{v in values : v >= t}`` for every ``t`` in ``thresholds``.

    Sorts ``values`` once; each threshold is then one binary search.
    """
    values = np.sort(np.asarray(values, dtype=np.float64).ravel())
    thresholds = np.asarray(thresholds, dtype=np.float64)
    return values.size - np.searchsorted(values, thresholds, side="left")


def mass_ge(
    values: FloatArray, weights: FloatArray, thresholds: FloatArray
) -> FloatArray:
    """``sum(weights[v >= t])`` for every ``t``, via one sort of ``values``."""
    values = np.asarray(values, dtype=np.float64).ravel()
    order = np.argsort(values, kind="stable")
    sorted_values = values[order]
    suffix = np.zeros(values.size + 1)
    suffix[:-1] = np.cumsum(np.asarray(weights, dtype=np.float64).ravel()[order][::-1])[::-1]
    idx = np.searchsorted(sorted_values, np.asarray(thresholds, dtype=np.float64), side="left")
    return suffix[idx]


class ScoreSweep:
    """One sorted view of a score array, reused across metric queries.

    Construction costs one O(n log n) sort; afterwards every
    all-threshold query — counts or weighted masses of ``scores >= t`` —
    is O((n + T) log n) regardless of how many weight vectors are swept
    (VUS asks with a different buffered weighting per buffer length, all
    against the same sort).
    """

    __slots__ = ("scores", "n", "_order", "_sorted")

    def __init__(self, scores: FloatArray) -> None:
        self.scores = np.asarray(scores, dtype=np.float64).ravel()
        self.n = self.scores.size
        self._order = np.argsort(self.scores, kind="stable")
        self._sorted = self.scores[self._order]

    @property
    def max(self) -> float:
        """Largest score (``-inf`` for an empty array)."""
        return float(self._sorted[-1]) if self.n else float("-inf")

    def count_ge(self, thresholds: FloatArray) -> NDArray[np.int_]:
        """Number of scores ``>= t`` for every threshold ``t``."""
        thresholds = np.asarray(thresholds, dtype=np.float64)
        return self.n - np.searchsorted(self._sorted, thresholds, side="left")

    def mass_ge(self, weights: FloatArray, thresholds: FloatArray) -> FloatArray:
        """``sum(weights[scores >= t])`` for every ``t``.

        ``weights`` is aligned with the *original* score order and may be
        ``(n,)`` or batched ``(..., n)``; the sweep's stored sort order is
        reused, so only the cumulative sums are recomputed per weighting.
        """
        weights = np.asarray(weights, dtype=np.float64)
        gathered = weights[..., self._order]
        suffix = np.zeros(gathered.shape[:-1] + (self.n + 1,))
        suffix[..., :-1] = np.flip(
            np.cumsum(np.flip(gathered, axis=-1), axis=-1), axis=-1
        )
        idx = np.searchsorted(
            self._sorted, np.asarray(thresholds, dtype=np.float64), side="left"
        )
        return suffix[..., idx]


def window_peaks(scores: FloatArray, windows: list[AnomalyWindow]) -> FloatArray:
    """Per-window maximum score — a window is detected at ``t`` iff its
    peak is ``>= t``, which turns window-existence curves into one more
    ``count_ge`` query."""
    scores = np.asarray(scores, dtype=np.float64)
    return np.asarray([float(scores[w.start : w.end].max()) for w in windows])


# ----------------------------------------------------------------------
# Point-weighted PR curves (the shared backbone of VUS and pointwise AP)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PRCurve:
    """A precision-recall curve swept over descending thresholds.

    ``tp``/``fp`` are the (possibly fractional, when label weights are
    soft) positive and negative masses captured at each threshold;
    ``positive_mass`` is the total positive mass, so
    ``recalls == tp / positive_mass``.
    """

    thresholds: FloatArray
    precisions: FloatArray
    recalls: FloatArray
    tp: FloatArray
    fp: FloatArray
    positive_mass: float

    def auc(self) -> float:
        """Average-precision step integration (:func:`step_auc`)."""
        return step_auc(self.recalls, self.precisions)


def pr_curve(
    scores: FloatArray,
    labels: NDArray[np.int_] | None = None,
    *,
    weights: FloatArray | None = None,
    thresholds: FloatArray | None = None,
    n_thresholds: int = 50,
    sweep: ScoreSweep | None = None,
) -> PRCurve:
    """Point-wise (optionally weighted) PR curve at every threshold.

    The single public curve builder: binary labels give the textbook
    point-wise curve; a ``weights`` vector in ``[0, 1]`` gives the
    range-aware weighted curve VUS integrates per buffer length.  An
    empty prediction set has precision 1 (it makes no mistakes),
    anchoring the high-threshold end of the curve at recall 0.

    Args:
        scores: anomaly scores, shape ``(T,)``.
        labels: binary ground truth; ignored when ``weights`` is given.
        weights: soft positive mass per step (overrides ``labels``).
        thresholds: explicit operating points; defaults to
            :func:`~repro.metrics.pointwise.candidate_thresholds`.
        n_thresholds: size of the default threshold grid.
        sweep: a prebuilt :class:`ScoreSweep` to reuse across calls.

    Returns:
        A :class:`PRCurve` with thresholds in descending order.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if weights is None:
        if labels is None:
            raise ValueError("either labels or weights must be provided")
        weights = np.asarray(labels).astype(np.float64)
    else:
        weights = np.asarray(weights, dtype=np.float64)
    if scores.shape != weights.shape:
        raise ValueError(
            f"scores shape {scores.shape} != weights shape {weights.shape}"
        )
    if thresholds is None:
        thresholds = candidate_thresholds(scores, n_thresholds)
    thresholds = np.sort(np.asarray(thresholds, dtype=np.float64))[::-1]
    sweep = sweep if sweep is not None else ScoreSweep(scores)
    tp = sweep.mass_ge(weights, thresholds)
    fp = sweep.mass_ge(1.0 - weights, thresholds)
    predicted_mass = tp + fp
    precisions = np.where(
        predicted_mass > 0, tp / np.where(predicted_mass > 0, predicted_mass, 1.0), 1.0
    )
    positive_mass = float(weights.sum())
    recalls = tp / positive_mass if positive_mass else np.zeros_like(tp)
    return PRCurve(
        thresholds=thresholds,
        precisions=precisions,
        recalls=recalls,
        tp=tp,
        fp=fp,
        positive_mass=positive_mass,
    )


def step_auc(recalls: FloatArray, precisions: FloatArray) -> float:
    """Step-integrate a PR curve ordered by descending threshold (i.e.
    weakly increasing coverage).

    Each point contributes ``(R_i - max(R_<i)) * P_i``: only *new* recall
    counts, at the precision of the operating point that achieved it.
    This is the average-precision convention, and it is robust to the
    range-metric pathology where the all-positive prediction forms one
    giant window with perfect precision and recall — that degenerate
    point only earns whatever recall the better thresholds had not
    already claimed.  Vectorized via a running-maximum scan, with the
    per-point arithmetic of the loop oracle in ``tests/_oracles.py``.
    """
    recalls = np.asarray(recalls, dtype=np.float64)
    precisions = np.asarray(precisions, dtype=np.float64)
    if recalls.shape != precisions.shape:
        raise ValueError("recalls and precisions must have the same shape")
    if recalls.size == 0:
        return 0.0
    best_before = np.maximum.accumulate(np.concatenate(([0.0], recalls)))[:-1]
    gains = recalls - best_before
    return float(np.sum(np.where(gains > 0, gains * precisions, 0.0)))


# ----------------------------------------------------------------------
# Range-based (sequence-level) confusion at every threshold
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RangeSweep:
    """Hundman-style sequence confusion counts at every threshold.

    ``tp[i]`` true windows are overlapped, ``fn[i]`` missed, and
    ``fp[i]`` maximal predicted runs touch no true window, all at
    ``thresholds[i]``.  Exactly equal (integer-for-integer) to running
    :func:`repro.metrics.ranged.range_confusion` per threshold.
    """

    thresholds: FloatArray
    tp: NDArray[np.int_]
    fp: NDArray[np.int_]
    fn: NDArray[np.int_]

    @property
    def precisions(self) -> FloatArray:
        denominator = self.tp + self.fp
        return np.where(
            denominator > 0, self.tp / np.where(denominator > 0, denominator, 1), 0.0
        )

    @property
    def recalls(self) -> FloatArray:
        denominator = self.tp + self.fn
        return np.where(
            denominator > 0, self.tp / np.where(denominator > 0, denominator, 1), 0.0
        )


def range_sweep(
    scores: FloatArray,
    labels: NDArray[np.int_],
    thresholds: FloatArray,
) -> RangeSweep:
    """Sequence-level TP/FP/FN at every threshold without materializing
    a single predicted-window list.

    **TP** — a true window is overlapped at ``t`` iff its peak score is
    ``>= t``: one ``count_ge`` over the window peaks.

    **FP** — a predicted run is a false positive iff it contains no true
    step.  Such runs live inside one *gap* (maximal label-0 stretch) and
    must not extend onto the gap's bounding true steps.  Per label-0
    position the run-start indicator is the interval
    ``(prev, score]`` (``prev`` = previous score inside the gap, ``-inf``
    at the gap head); runs that start at a gap head while the true step
    before it is also predicted belong to a truth-overlapping run and are
    removed, as are runs ending at a gap tail whose following true step
    is predicted — with an inclusion-exclusion add-back for the run that
    spans the whole gap and touches both.  Every term is a static
    ``[t <= v]`` indicator, so the whole count is a handful of sorted
    lookups.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise ValueError(
            f"scores shape {scores.shape} != labels shape {labels.shape}"
        )
    thresholds = np.asarray(thresholds, dtype=np.float64)
    truth = labels.astype(bool)
    n = scores.size
    truth_windows = windows_from_labels(labels)
    n_true = len(truth_windows)

    tp = count_ge(window_peaks(scores, truth_windows), thresholds) if n_true else (
        np.zeros(thresholds.shape, dtype=int)
    )
    fn = n_true - tp

    label0 = ~truth
    if not label0.any():
        fp = np.zeros(thresholds.shape, dtype=int)
        return RangeSweep(thresholds=thresholds, tp=tp, fp=fp, fn=fn)

    # Run-start indicators within each gap.
    prev = np.empty(n)
    prev[0] = -np.inf
    prev[1:] = scores[:-1]
    gap_head = label0 & np.concatenate(([True], truth[:-1]))
    prev[gap_head] = -np.inf
    hi = scores[label0]
    lo = np.minimum(hi, prev[label0])
    fp = count_ge(hi, thresholds) - count_ge(lo, thresholds)

    # Boundary corrections: runs glued to a predicted true step are not FPs.
    left_vals = [
        min(scores[w.end], scores[w.end - 1]) for w in truth_windows if w.end < n
    ]
    right_vals = [
        min(scores[w.start - 1], scores[w.start])
        for w in truth_windows
        if w.start > 0
    ]
    both_vals = [
        min(
            float(scores[a.end : b.start].min()),
            scores[a.end - 1],
            scores[b.start],
        )
        for a, b in zip(truth_windows[:-1], truth_windows[1:])
    ]
    if left_vals:
        fp = fp - count_ge(np.asarray(left_vals), thresholds)
    if right_vals:
        fp = fp - count_ge(np.asarray(right_vals), thresholds)
    if both_vals:
        fp = fp + count_ge(np.asarray(both_vals), thresholds)
    return RangeSweep(thresholds=thresholds, tp=tp, fp=fp, fn=fn)
