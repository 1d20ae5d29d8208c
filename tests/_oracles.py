"""Test oracles: the straightforward loops the package's fast paths replaced.

Each function here computes what a vectorized path in ``src/`` computes,
the slow and obvious way: one confusion re-derivation per threshold for
the metrics, one recursive node walk per (point, tree) pair for the
isolation forest.  The property tests compare the fast paths against
them; ``benchmarks/bench_metrics.py`` and
``benchmarks/bench_parallel_speedup.py`` time them as their baselines
(they put ``tests/`` on ``sys.path``).  Nothing in the package imports
this module.

KSWIN needs no entry: its batch check is the detector's own answer
whenever its rank counters do not describe the set under test, so a
``KSWIN`` that is never fed ``observe`` (as Table II drives it) is the
batch oracle.
"""

from __future__ import annotations

import numpy as np

from repro._compat import trapezoid
from repro.core.types import windows_from_labels
from repro.metrics.nab import NABSweep, nab_score
from repro.metrics.pointwise import candidate_thresholds
from repro.metrics.ranged import range_confusion, range_precision_recall
from repro.metrics.vus import VUSResult
from repro.models.isolation import average_path_length


# ----------------------------------------------------------------------
# metrics: one pass over the raw arrays per threshold
# ----------------------------------------------------------------------
def step_pr_auc(recalls, precisions) -> float:
    """Per-point loop of :func:`repro.metrics.sweep.step_auc`."""
    recalls = np.asarray(recalls, dtype=np.float64)
    precisions = np.asarray(precisions, dtype=np.float64)
    if recalls.shape != precisions.shape:
        raise ValueError("recalls and precisions must have the same shape")
    auc = 0.0
    best_recall = 0.0
    for recall, precision in zip(recalls, precisions):
        if recall > best_recall:
            auc += (recall - best_recall) * precision
            best_recall = recall
    return float(auc)


def range_pr_curve(scores, labels, n_thresholds: int = 50):
    """One window extraction per threshold; ``(thresholds, precisions, recalls)``."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    truth = windows_from_labels(labels)
    thresholds = candidate_thresholds(scores, n_thresholds)
    precisions = np.empty(thresholds.size)
    recalls = np.empty(thresholds.size)
    for i, threshold in enumerate(thresholds):
        predicted = windows_from_labels((scores >= threshold).astype(int))
        confusion = range_confusion(predicted, truth)
        # An empty prediction set has precision 1 (it makes no mistakes).
        precisions[i] = confusion.precision if predicted else 1.0
        recalls[i] = confusion.recall
    return thresholds, precisions, recalls


def range_pr_auc(scores, labels, n_thresholds: int = 50) -> float:
    """:func:`range_pr_curve` step-integrated from the highest threshold."""
    thresholds, precisions, recalls = range_pr_curve(scores, labels, n_thresholds)
    order = np.argsort(thresholds)[::-1]
    return step_pr_auc(recalls[order], precisions[order])


def best_f1_threshold(scores, labels, n_thresholds: int = 40) -> float:
    """Range-F1 at each candidate from the top; the first maximizer wins."""
    best_threshold = float(scores.max()) + 1e-9
    best_f1 = -1.0
    for threshold in candidate_thresholds(scores, n_thresholds)[::-1]:
        precision, recall = range_precision_recall(scores, labels, threshold)
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        if f1 > best_f1:
            best_f1 = f1
            best_threshold = float(threshold)
    return best_threshold


def buffered_label_weights(labels, buffer: int):
    """Per-window ramp loop of :func:`repro.metrics.vus.buffered_label_weights`."""
    labels = np.asarray(labels)
    weights = labels.astype(np.float64).copy()
    half = buffer // 2
    if half == 0:
        return weights
    n = weights.size
    for window in windows_from_labels(labels):
        for offset in range(1, half + 1):
            ramp = 1.0 - offset / (half + 1)
            before = window.start - offset
            after = window.end - 1 + offset
            if 0 <= before < n:
                weights[before] = max(weights[before], ramp)
            if 0 <= after < n:
                weights[after] = max(weights[after], ramp)
    return weights


def weighted_curves(scores, labels, weights, thresholds, existence_weight: float):
    """PR-AUC and ROC-AUC of one buffered weighting, one threshold at a time."""
    truth_windows = windows_from_labels(labels)
    positive_mass = float(weights.sum())
    negative_mass = float((1.0 - weights).sum())
    precisions, recalls, fprs = [], [], []
    for threshold in np.sort(thresholds)[::-1]:  # descending threshold
        predicted = scores >= threshold
        tp = float(weights[predicted].sum())
        fp = float((1.0 - weights)[predicted].sum())
        if truth_windows:
            existence = sum(
                1
                for window in truth_windows
                if predicted[window.start : window.end].any()
            ) / len(truth_windows)
        else:
            existence = 0.0
        point_recall = tp / positive_mass if positive_mass else 0.0
        recalls.append(
            existence_weight * existence + (1.0 - existence_weight) * point_recall
        )
        precisions.append(tp / (tp + fp) if (tp + fp) else 1.0)
        fprs.append(fp / negative_mass if negative_mass else 0.0)
    pr_auc = step_pr_auc(recalls, precisions)
    # Already ascending in fpr; sorting would scramble 1-ulp fp-mass ties.
    roc_auc = float(trapezoid(np.asarray(recalls), np.asarray(fprs)))
    return pr_auc, roc_auc


def vus(
    scores,
    labels,
    max_buffer: int = 16,
    n_buffers: int = 5,
    n_thresholds: int = 50,
    existence_weight: float = 0.5,
) -> VUSResult:
    """:func:`repro.metrics.vus.vus` from :func:`weighted_curves` per buffer."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    buffers = tuple(
        int(b) for b in np.unique(np.linspace(0, max_buffer, max(n_buffers, 1)))
    )
    thresholds = candidate_thresholds(scores, n_thresholds)
    pr_aucs, roc_aucs = [], []
    for buffer in buffers:
        weights = buffered_label_weights(labels, buffer)
        pr_auc, roc_auc = weighted_curves(
            scores, labels, weights, thresholds, existence_weight
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


def nab_sweep(scores, labels, thresholds, a_fp: float = 1.0, a_fn: float = 1.0):
    """One :func:`repro.metrics.nab.nab_score` call per threshold."""
    thresholds = np.asarray(thresholds, dtype=np.float64)
    results = [
        nab_score(scores, labels, float(t), a_fp=a_fp, a_fn=a_fn) for t in thresholds
    ]
    return NABSweep(
        thresholds=thresholds,
        scores=np.asarray([r.score for r in results]),
        rewards=np.asarray([r.rewards for r in results]),
        n_detected=np.asarray([r.n_detected for r in results]),
        n_missed=np.asarray([r.n_missed for r in results]),
        n_false_positive_steps=np.asarray(
            [r.n_false_positive_steps for r in results]
        ),
    )


# ----------------------------------------------------------------------
# isolation forest: recursive walks over the grown node objects
# ----------------------------------------------------------------------
def path_length(tree, x) -> float:
    """Depth at which ``x`` isolates in ``tree``, plus the ``c(size)``
    leaf adjustment, walking the grown ``_Node`` objects."""
    x = np.asarray(x, dtype=np.float64).ravel()
    if x.size != tree.dim:
        raise ValueError(f"expected point of dim {tree.dim}, got {x.size}")
    node = tree.root
    depth = 0
    while not node.is_leaf:
        node = node.left if (x - node.intercept) @ node.normal <= 0.0 else node.right
        depth += 1
    return depth + average_path_length(node.size)


def forest_depths(forest, x):
    """Per-tree path lengths of one point, tree after tree."""
    return np.array([path_length(tree, x) for tree in forest.trees])


def forest_depths_batch(forest, points):
    """``(n, T)`` path lengths, point after point."""
    return np.stack([forest_depths(forest, p) for p in np.atleast_2d(points)])


def walk_recursively(forest):
    """Make ``forest`` score through the recursive walk instead of its
    node arena (the pre-arena baseline the parallel bench times)."""
    forest.depths = lambda x: forest_depths(forest, x)
    forest.depths_batch = lambda points: forest_depths_batch(forest, points)
