"""Property tests pinning the all-threshold sweep core to the oracles.

Every rewritten metric's historical per-threshold loop lives on in
``tests/_oracles.py``; these tests generate adversarial score / label
streams (heavy ties via integer-valued scores, windows touching the
series edges, empty and all-positive labels) and assert the sweep answers
match the loops — exactly for integer confusion counts, ``allclose`` at
``rtol=1e-9`` for float curves and volumes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles
from repro.core.config import DetectorConfig
from repro.core.registry import AlgorithmSpec, build_detector
from repro.core.types import windows_from_labels
from repro.experiments.evaluation import best_f1_threshold, evaluate_result
from repro.metrics import (
    buffered_label_weights,
    candidate_thresholds,
    count_ge,
    mass_ge,
    nab_sweep,
    pr_curve,
    range_confusion,
    range_pr_auc,
    range_pr_curve,
    range_sweep,
    step_auc,
    vus,
)
from repro.streaming import run_stream

# Integer-valued scores maximize threshold ties — the hardest case for
# interval-indicator bookkeeping (side="left" vs "right" mistakes).
tied_scores = st.lists(
    st.integers(min_value=0, max_value=6).map(float), min_size=1, max_size=80
)
smooth_scores = st.lists(
    st.floats(min_value=-5.0, max_value=5.0, allow_nan=False), min_size=1, max_size=80
)
score_lists = st.one_of(tied_scores, smooth_scores)
label_bits = st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=80)


def _pair(scores, labels):
    """Trim a scores/labels draw to a common length (>= 1)."""
    n = min(len(scores), len(labels))
    return np.asarray(scores[:n], dtype=np.float64), np.asarray(labels[:n], dtype=int)


class TestPrimitives:
    @given(score_lists, st.lists(st.floats(-10, 10), min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_count_ge_matches_bruteforce(self, values, thresholds):
        values = np.asarray(values)
        thresholds = np.asarray(thresholds)
        expected = np.asarray([(values >= t).sum() for t in thresholds])
        assert np.array_equal(count_ge(values, thresholds), expected)

    @given(score_lists, st.lists(st.floats(-10, 10), min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_mass_ge_matches_bruteforce(self, values, thresholds):
        values = np.asarray(values)
        rng = np.random.default_rng(0)
        weights = rng.random(values.size)
        thresholds = np.asarray(thresholds)
        expected = np.asarray([weights[values >= t].sum() for t in thresholds])
        assert np.allclose(mass_ge(values, weights, thresholds), expected, rtol=1e-9)

    @given(score_lists)
    @settings(max_examples=40, deadline=None)
    def test_step_auc_matches_reference(self, values):
        rng = np.random.default_rng(1)
        recalls = np.sort(rng.random(len(values)))
        precisions = rng.random(len(values))
        assert step_auc(recalls, precisions) == pytest.approx(
            _oracles.step_pr_auc(recalls, precisions), rel=1e-12
        )


class TestRangeSweep:
    @given(score_lists, label_bits)
    @settings(max_examples=120, deadline=None)
    def test_counts_equal_per_threshold_confusion(self, scores, labels):
        scores, labels = _pair(scores, labels)
        thresholds = candidate_thresholds(scores, 23)
        sweep = range_sweep(scores, labels, thresholds)
        truth = windows_from_labels(labels)
        for i, threshold in enumerate(thresholds):
            predicted = windows_from_labels((scores >= threshold).astype(int))
            confusion = range_confusion(predicted, truth)
            assert sweep.tp[i] == confusion.tp, (threshold, scores, labels)
            assert sweep.fp[i] == confusion.fp, (threshold, scores, labels)
            assert sweep.fn[i] == confusion.fn, (threshold, scores, labels)

    @given(score_lists, label_bits)
    @settings(max_examples=80, deadline=None)
    def test_curve_matches_reference(self, scores, labels):
        scores, labels = _pair(scores, labels)
        t1, p1, r1 = range_pr_curve(scores, labels, 19)
        t2, p2, r2 = _oracles.range_pr_curve(scores, labels, 19)
        assert np.array_equal(t1, t2)
        assert np.allclose(p1, p2, rtol=1e-9)
        assert np.allclose(r1, r2, rtol=1e-9)
        assert range_pr_auc(scores, labels, 19) == pytest.approx(
            _oracles.range_pr_auc(scores, labels, 19), rel=1e-9
        )

    @given(score_lists, label_bits)
    @settings(max_examples=80, deadline=None)
    def test_best_f1_threshold_matches_reference(self, scores, labels):
        scores, labels = _pair(scores, labels)
        assert best_f1_threshold(scores, labels) == _oracles.best_f1_threshold(
            scores, labels
        )


class TestVUSSweep:
    @given(label_bits, st.integers(min_value=0, max_value=20))
    @settings(max_examples=100, deadline=None)
    def test_buffered_weights_bitwise_equal(self, labels, buffer):
        labels = np.asarray(labels, dtype=int)
        fast = buffered_label_weights(labels, buffer)
        slow = _oracles.buffered_label_weights(labels, buffer)
        assert np.array_equal(fast, slow), (labels, buffer)

    @given(score_lists, label_bits, st.integers(min_value=0, max_value=12))
    @settings(max_examples=60, deadline=None)
    def test_vus_matches_reference(self, scores, labels, max_buffer):
        scores, labels = _pair(scores, labels)
        fast = vus(scores, labels, max_buffer=max_buffer)
        slow = _oracles.vus(scores, labels, max_buffer=max_buffer)
        assert fast.buffers == slow.buffers
        assert np.allclose(fast.pr_aucs, slow.pr_aucs, rtol=1e-9)
        assert np.allclose(fast.roc_aucs, slow.roc_aucs, rtol=1e-9)
        assert fast.vus_pr == pytest.approx(slow.vus_pr, rel=1e-9)
        assert fast.vus_roc == pytest.approx(slow.vus_roc, rel=1e-9)

    @given(score_lists, label_bits)
    @settings(max_examples=40, deadline=None)
    def test_weighted_curve_matches_reference_loop(self, scores, labels):
        scores, labels = _pair(scores, labels)
        weights = buffered_label_weights(labels, 6)
        thresholds = candidate_thresholds(scores, 17)
        pr_slow, _ = _oracles.weighted_curves(scores, labels, weights, thresholds, 0.0)
        curve = pr_curve(scores, weights=weights, thresholds=thresholds)
        assert curve.auc() == pytest.approx(pr_slow, rel=1e-9)


class TestNABSweep:
    @given(score_lists, label_bits)
    @settings(max_examples=100, deadline=None)
    def test_matches_per_threshold_reference(self, scores, labels):
        scores, labels = _pair(scores, labels)
        thresholds = candidate_thresholds(scores, 21)
        fast = nab_sweep(scores, labels, thresholds)
        slow = _oracles.nab_sweep(scores, labels, thresholds)
        assert np.array_equal(fast.n_detected, slow.n_detected)
        assert np.array_equal(fast.n_missed, slow.n_missed)
        assert np.array_equal(
            fast.n_false_positive_steps, slow.n_false_positive_steps
        )
        assert np.allclose(fast.rewards, slow.rewards, rtol=1e-9, atol=1e-12)
        assert np.allclose(fast.scores, slow.scores, rtol=1e-9, atol=1e-12)

    @given(score_lists, label_bits)
    @settings(max_examples=30, deadline=None)
    def test_profile_weights_respected(self, scores, labels):
        scores, labels = _pair(scores, labels)
        thresholds = candidate_thresholds(scores, 11)
        fast = nab_sweep(scores, labels, thresholds, a_fp=2.0, a_fn=0.5)
        slow = _oracles.nab_sweep(scores, labels, thresholds, a_fp=2.0, a_fn=0.5)
        assert np.allclose(fast.scores, slow.scores, rtol=1e-9, atol=1e-12)


class TestEvaluationMatchesOracles:
    """End to end: registry cells stream a small labelled series, then the
    Table III evaluation of each cell's scored region must match the
    oracle loops — the best-F1 threshold exactly, AUC and VUS at
    ``rtol=1e-9``."""

    @pytest.mark.parametrize(
        "spec",
        [
            ("pcb_iforest", "sw", "kswin"),
            ("ae", "sw", "kswin"),
            ("online_arima", "ures", "musigma"),
        ],
        ids="+".join,
    )
    def test_evaluate_result_matches_oracles(self, spec, labelled_series):
        config = DetectorConfig(
            window=6, train_capacity=24, fit_epochs=2, initial_train_size=40
        )
        detector = build_detector(AlgorithmSpec(*spec), 2, config)
        result = run_stream(detector, labelled_series)
        scores, labels = result.scored_region()
        assert labels.any()
        assert best_f1_threshold(scores, labels) == _oracles.best_f1_threshold(
            scores, labels
        )
        row = evaluate_result(result)
        assert row.auc == pytest.approx(
            _oracles.range_pr_auc(scores, labels, 40), rel=1e-9
        )
        assert row.vus == pytest.approx(_oracles.vus(scores, labels).vus_pr, rel=1e-9)
