"""Small tests covering remaining corners: figure-1 stream generator,
USAD blend extremes, op-counter arithmetic."""

import numpy as np
import pytest

from repro.core.config import DetectorConfig
from repro.core.registry import AlgorithmSpec, build_detector
from repro.experiments.figure1 import make_figure1_stream
from repro.learning.base import OpCounter
from repro.streaming import run_stream


class TestFigure1Stream:
    def test_shape_and_drift_point(self):
        series = make_figure1_stream(n_steps=800, drift_at=500, seed=3)
        assert series.n_steps == 800
        assert series.drift_points == [500]
        assert series.labels.sum() == 0  # anomaly injected later, at run time

    def test_drift_changes_statistics(self):
        series = make_figure1_stream(n_steps=1000, drift_at=600, seed=3)
        pre = series.values[:600].mean(axis=0)
        post = series.values[650:].mean(axis=0)
        assert np.max(np.abs(post - pre)) > 1.0


class TestUSADBlendExtreme:
    def test_blend_one_is_pure_adversarial_reconstruction(self, small_windows):
        from repro.models import USAD

        model = USAD(window=8, n_channels=3, epochs=5, seed=0, blend=1.0)
        model.fit(small_windows)
        _, w3 = model.reconstructions(small_windows[0])
        np.testing.assert_allclose(model.predict(small_windows[0]), w3)


class TestOpCounter:
    def test_addition_of_counters(self):
        a = OpCounter(1, 2, 3)
        b = OpCounter(10, 20, 30)
        combined = a + b
        assert (combined.additions, combined.multiplications, combined.comparisons) == (
            11,
            22,
            33,
        )
        assert combined.total == 66

    def test_reset(self):
        counter = OpCounter(5, 5, 5)
        counter.reset()
        assert counter.total == 0


class TestStreamResultProperties:
    def test_n_steps(self, labelled_series):
        detector = build_detector(
            AlgorithmSpec("online_arima", "sw", "never"),
            2,
            DetectorConfig(window=8, train_capacity=16, fit_epochs=1),
        )
        result = run_stream(detector, labelled_series)
        assert result.n_steps == labelled_series.n_steps
