"""Tests for threshold policies and the step-AUC integration."""

import numpy as np
import pytest

from repro.experiments import quantile_threshold
from repro.metrics import step_auc


class TestQuantileThreshold:
    def test_flags_expected_fraction(self):
        rng = np.random.default_rng(0)
        scores = rng.uniform(size=10000)
        threshold = quantile_threshold(scores, 0.95)
        assert np.mean(scores >= threshold) == pytest.approx(0.05, abs=0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            quantile_threshold(np.array([]), 0.95)
        with pytest.raises(ValueError):
            quantile_threshold(np.ones(5), 1.0)
        with pytest.raises(ValueError):
            quantile_threshold(np.ones(5), 0.0)

    def test_constant_scores(self):
        threshold = quantile_threshold(np.full(100, 0.5), 0.95)
        assert threshold == pytest.approx(0.5)


class TestStepPRAUC:
    def test_perfect_single_jump(self):
        # One operating point reaches recall 1 at precision 1.
        assert step_auc(np.array([0.0, 1.0]), np.array([1.0, 1.0])) == 1.0

    def test_all_positive_point_does_not_dominate(self):
        # A sharp detector gets recall 0.8 at precision 0.9; the trailing
        # degenerate point reaches recall 1 at "perfect" range precision.
        recalls = np.array([0.0, 0.8, 1.0])
        precisions = np.array([1.0, 0.9, 1.0])
        auc = step_auc(recalls, precisions)
        assert auc == pytest.approx(0.8 * 0.9 + 0.2 * 1.0)

    def test_recall_regressions_ignored(self):
        # Range recall is not monotone in the threshold; regressions must
        # not subtract area.
        recalls = np.array([0.0, 0.6, 0.4, 0.8])
        precisions = np.array([1.0, 0.5, 0.9, 0.5])
        auc = step_auc(recalls, precisions)
        assert auc == pytest.approx(0.6 * 0.5 + 0.2 * 0.5)

    def test_bounded_by_one(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            recalls = np.sort(rng.uniform(size=10))
            precisions = rng.uniform(size=10)
            assert 0.0 <= step_auc(recalls, precisions) <= 1.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            step_auc(np.zeros(3), np.zeros(4))


class TestKSWINAlphaCorrectionFlag:
    def test_uncorrected_fires_more(self):
        from repro.learning import KSWIN

        rng = np.random.default_rng(0)
        fired = {}
        for corrected in (True, False):
            detector = KSWIN(alpha=0.05, correct_alpha=corrected)
            detector.should_finetune(0, rng.normal(size=(30, 10, 3)))
            count = 0
            for t in range(1, 60):
                train = np.random.default_rng(t).normal(size=(30, 10, 3))
                if detector.should_finetune(t, train):
                    count += 1
                    detector.notify_finetuned(t, train)
            fired[corrected] = count
        assert fired[False] >= fired[True]
