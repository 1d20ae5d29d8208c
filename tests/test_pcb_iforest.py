"""Tests for PCB-iForest."""

import numpy as np
import pytest

from repro.core.exceptions import ConfigurationError, NotFittedError
from repro.models import PCBIForest


@pytest.fixture
def train_windows(rng):
    """Windows whose newest rows cluster around the origin."""
    points = rng.normal(size=(80, 3))
    return np.stack([np.tile(p, (6, 1)) for p in points])


class TestPCBIForest:
    def test_invalid_threshold(self):
        with pytest.raises(ConfigurationError):
            PCBIForest(threshold=0.0)
        with pytest.raises(ConfigurationError):
            PCBIForest(threshold=1.0)

    def test_score_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            PCBIForest().score(np.zeros((4, 3)))

    def test_score_in_unit_interval(self, train_windows):
        model = PCBIForest(n_trees=20, seed=0)
        model.fit(train_windows)
        score = model.score(train_windows[0])
        assert 0.0 < score < 1.0

    def test_outlier_scores_higher(self, train_windows, rng):
        model = PCBIForest(n_trees=40, seed=0)
        model.fit(train_windows)
        inlier = float(np.mean([model.score(w) for w in train_windows[:20]]))
        outlier_window = np.tile(np.array([10.0, 10.0, 10.0]), (6, 1))
        assert model.score(outlier_window) > inlier + 0.1

    def test_counters_update_on_score(self, train_windows):
        model = PCBIForest(n_trees=10, seed=0)
        model.fit(train_windows)
        assert np.all(model.performance_counters == 0)
        model.score(train_windows[0])
        assert np.any(model.performance_counters != 0)
        # Each tree moved by exactly +-1.
        assert set(np.abs(model.performance_counters)) <= {0, 1}

    def test_finetune_prunes_and_resets(self, train_windows):
        model = PCBIForest(n_trees=10, seed=0)
        model.fit(train_windows)
        for window in train_windows[:10]:
            model.score(window)
        model.finetune(train_windows)
        assert len(model.forest.trees) == 10  # replacements grown
        assert np.all(model.performance_counters == 0)

    def test_finetune_keeps_positive_trees(self, train_windows):
        model = PCBIForest(n_trees=10, seed=0)
        model.fit(train_windows)
        model.performance_counters[:] = -1
        model.performance_counters[3] = 5
        survivor = model.forest.trees[3]
        model.finetune(train_windows)
        assert model.forest.trees[0] is survivor

    def test_finetune_before_fit_raises(self, train_windows):
        with pytest.raises(NotFittedError):
            PCBIForest().finetune(train_windows)

    def test_accepts_bare_stream_vector(self, train_windows):
        model = PCBIForest(n_trees=10, seed=0)
        model.fit(train_windows)
        assert 0.0 < model.score(np.zeros(3)) < 1.0

    def test_prediction_kind(self):
        assert PCBIForest.prediction_kind == "score"

    def test_loss_is_mean_score(self, train_windows):
        model = PCBIForest(n_trees=10, seed=0)
        assert 0.0 < model.fit(train_windows) < 1.0
