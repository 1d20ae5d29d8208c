"""Tests for the StreamingAnomalyDetector pipeline and representation."""

import numpy as np
import pytest

from repro.core.detector import StreamingAnomalyDetector
from repro.core.exceptions import StreamError
from repro.core.representation import RollingBuffer, WindowRepresentation
from repro.learning import MuSigmaChange, NeverFineTune, SlidingWindow
from repro.models import TwoLayerAutoencoder
from repro.scoring import AverageScore, CosineNonconformity


def build_detector(window=6, capacity=20, task2=None, fit_epochs=10):
    return StreamingAnomalyDetector(
        model=TwoLayerAutoencoder(window=window, n_channels=2, epochs=fit_epochs, seed=0),
        train_strategy=SlidingWindow(capacity),
        drift_detector=task2 if task2 is not None else MuSigmaChange(),
        nonconformity=CosineNonconformity(),
        scorer=AverageScore(k=8),
        window=window,
        fit_epochs=fit_epochs,
    )


def stream(n, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(n, dtype=np.float64)
    values = np.stack(
        [np.sin(2 * np.pi * t / 30), np.cos(2 * np.pi * t / 30)], axis=1
    )
    return values + rng.normal(scale=0.05, size=values.shape)


class TestRollingBuffer:
    def test_returns_none_until_warm(self):
        buffer = RollingBuffer(WindowRepresentation(3))
        assert buffer.push(np.array([1.0])) is None
        assert buffer.push(np.array([2.0])) is None
        window = buffer.push(np.array([3.0]))
        np.testing.assert_array_equal(window.ravel(), [1.0, 2.0, 3.0])

    def test_slides(self):
        buffer = RollingBuffer(WindowRepresentation(2))
        buffer.push(np.array([1.0]))
        buffer.push(np.array([2.0]))
        window = buffer.push(np.array([3.0]))
        np.testing.assert_array_equal(window.ravel(), [2.0, 3.0])

    def test_reset(self):
        buffer = RollingBuffer(WindowRepresentation(2))
        buffer.push(np.array([1.0]))
        buffer.push(np.array([2.0]))
        buffer.reset()
        assert buffer.push(np.array([3.0])) is None

    def test_window_validation(self):
        with pytest.raises(ValueError):
            WindowRepresentation(0)
        representation = WindowRepresentation(3)
        with pytest.raises(ValueError):
            representation([np.zeros(2)])


class TestDetectorLifecycle:
    def test_warmup_scores_zero(self):
        detector = build_detector(window=6, capacity=10)
        values = stream(12)
        results = [detector.step(v) for v in values]
        # Until buffer warm + initial fit, scores are zero.
        assert all(r.score == 0.0 for r in results[:5])

    def test_initial_fit_at_capacity(self):
        detector = build_detector(window=6, capacity=10)
        for v in stream(40):
            detector.step(v)
        assert detector.model.is_fitted
        assert detector.events[0].reason == "initial_fit"
        # Initial fit happens once the training set has `capacity` vectors:
        # window warmup (6 steps -> first vector at t=5) + 9 more.
        assert detector.events[0].t == 14

    def test_first_scored_step_tracked(self):
        detector = build_detector(window=6, capacity=10)
        for v in stream(40):
            detector.step(v)
        assert detector.first_scored_step == 15  # one step after initial fit

    def test_scores_emitted_after_fit(self):
        detector = build_detector(window=6, capacity=10)
        results = [detector.step(v) for v in stream(60)]
        scored = [r for r in results if r.t > 20]
        assert any(r.nonconformity > 0 for r in scored)

    def test_channel_mismatch_rejected(self):
        detector = build_detector()
        detector.step(np.zeros(2))
        with pytest.raises(StreamError):
            detector.step(np.zeros(3))
        assert detector.t == 0  # a rejected step does not advance the clock

    def test_non_finite_rejected(self):
        detector = build_detector()
        with pytest.raises(StreamError):
            detector.step(np.array([np.nan, 1.0]))
        assert detector.t == -1

    def test_never_strategy_no_finetunes(self):
        detector = build_detector(task2=NeverFineTune())
        for v in stream(100):
            detector.step(v)
        assert detector.n_finetunes == 0
        assert len(detector.events) == 1  # only the initial fit

    def test_drift_triggers_finetune(self):
        detector = build_detector(window=6, capacity=15)
        values = stream(200)
        values[100:] += 5.0  # abrupt drift
        drift_flags = [detector.step(v).drift_detected for v in values]
        assert any(drift_flags[100:])
        assert detector.n_finetunes >= 1

    def test_finetune_event_records_losses(self):
        detector = build_detector(window=6, capacity=15)
        values = stream(200)
        values[100:] += 5.0
        for v in values:
            detector.step(v)
        event = next(e for e in detector.events if e.reason != "initial_fit")
        assert np.isfinite(event.loss_after)
        assert event.train_set_size == 15

    def test_reset_clears_state(self):
        detector = build_detector()
        for v in stream(60):
            detector.step(v)
        detector.reset()
        assert detector.t == -1
        assert len(detector.train_strategy) == 0
        assert detector.events == []
        assert detector.first_scored_step is None
        # Model stays fitted; streaming again works immediately.
        result = detector.step(np.zeros(2))
        assert result.t == 0

    def test_warm_up_equivalent_to_steps(self):
        values = stream(30)
        stepped = build_detector()
        for v in values:
            stepped.step(v)
        warmed = build_detector()
        warmed.warm_up(values)
        assert warmed.t == stepped.t
        assert len(warmed.train_strategy) == len(stepped.train_strategy)

    def test_min_train_size_validation(self):
        with pytest.raises(Exception):
            StreamingAnomalyDetector(
                model=TwoLayerAutoencoder(window=4, n_channels=2),
                train_strategy=SlidingWindow(10),
                drift_detector=NeverFineTune(),
                nonconformity=CosineNonconformity(),
                scorer=AverageScore(),
                window=4,
                min_train_size=1,
            )
