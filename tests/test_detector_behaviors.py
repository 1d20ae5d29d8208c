"""Deeper behavioural tests on the detector's component interplay."""

import numpy as np
import pytest

from repro.core.config import DetectorConfig
from repro.core.detector import StreamingAnomalyDetector
from repro.core.registry import AlgorithmSpec, build_detector
from repro.learning import (
    AnomalyAwareReservoir,
    MuSigmaChange,
    NeverFineTune,
    RegularFineTuning,
    SlidingWindow,
)
from repro.models import TwoLayerAutoencoder
from repro.scoring import AnomalyLikelihood, AverageScore, CosineNonconformity


def periodic_stream(n, seed=0, n_channels=2):
    rng = np.random.default_rng(seed)
    t = np.arange(n, dtype=np.float64)
    values = np.stack(
        [np.sin(2 * np.pi * t / 30 + p) for p in rng.uniform(0, 6, n_channels)],
        axis=1,
    )
    return values + rng.normal(scale=0.05, size=values.shape)


class TestAresReceivesScores:
    def test_priorities_reflect_stream_scores(self):
        """The detector must feed f_t into ARES (the Task-1/score loop)."""
        reservoir = AnomalyAwareReservoir(30, rng=np.random.default_rng(0))
        detector = StreamingAnomalyDetector(
            model=TwoLayerAutoencoder(window=6, n_channels=2, epochs=5, seed=0),
            train_strategy=reservoir,
            drift_detector=NeverFineTune(),
            nonconformity=CosineNonconformity(),
            scorer=AverageScore(k=8),
            window=6,
        )
        values = periodic_stream(200)
        values[120:140] += 4.0  # anomalous block after the initial fit
        for v in values:
            detector.step(v)
        # The reservoir's training set should be dominated by normal data:
        # the anomalous windows carry values near +4 on every channel.
        train = reservoir.training_set()
        anomalous_fraction = float(np.mean(train.mean(axis=(1, 2)) > 2.0))
        assert anomalous_fraction < 0.3


class TestRegularFineTuningCadence:
    def test_finetunes_at_fixed_interval(self):
        detector = StreamingAnomalyDetector(
            model=TwoLayerAutoencoder(window=6, n_channels=2, epochs=2, seed=0),
            train_strategy=SlidingWindow(20),
            drift_detector=RegularFineTuning(interval=50),
            nonconformity=CosineNonconformity(),
            scorer=AverageScore(k=8),
            window=6,
        )
        for v in periodic_stream(310):
            detector.step(v)
        fired = [e.t for e in detector.events if e.reason == "regular"]
        assert fired == [50, 100, 150, 200, 250, 300]


class TestMuSigmaReferenceLifecycle:
    def test_reference_updates_after_each_finetune(self):
        """After a fine-tune the reference snapshot moves, so a persistent
        regime change fires once, not at every subsequent step."""
        detector = StreamingAnomalyDetector(
            model=TwoLayerAutoencoder(window=6, n_channels=2, epochs=2, seed=0),
            train_strategy=SlidingWindow(30),
            drift_detector=MuSigmaChange(),
            nonconformity=CosineNonconformity(),
            scorer=AverageScore(k=8),
            window=6,
        )
        values = periodic_stream(400)
        values[200:] += 5.0  # one persistent level shift
        drift_steps = [
            t for t, v in enumerate(values) if detector.step(v).drift_detected
        ]
        assert drift_steps, "the shift must be detected"
        # All detections should cluster around the transition, not recur
        # for the rest of the stream.
        assert max(drift_steps) < 300


class TestScorerStateAcrossFinetunes:
    def test_anomaly_likelihood_window_not_reset_by_finetune(self):
        config = DetectorConfig(
            window=6, train_capacity=24, fit_epochs=2, scorer="al",
            scorer_k=16, scorer_k_short=2,
        )
        detector = build_detector(AlgorithmSpec("ae", "sw", "regular"), 2, config)
        scores = [detector.step(v).score for v in periodic_stream(200)]
        # If the scorer were reset at each regular fine-tune, long runs of
        # exactly-0.5 likelihoods would appear right after each interval.
        post_warmup = np.asarray(scores[60:])
        assert np.std(post_warmup) > 0.01


class TestInitialFitEvent:
    def test_event_carries_training_loss(self):
        config = DetectorConfig(window=6, train_capacity=24, fit_epochs=5)
        detector = build_detector(AlgorithmSpec("ae", "sw", "never"), 2, config)
        for v in periodic_stream(80):
            detector.step(v)
        event = detector.events[0]
        assert event.reason == "initial_fit"
        assert np.isfinite(event.loss_after)


class TestStepResultFlags:
    def test_finetuned_implies_event_appended(self):
        config = DetectorConfig(window=6, train_capacity=20, fit_epochs=1)
        detector = build_detector(AlgorithmSpec("ae", "sw", "regular"), 2, config)
        event_counts = []
        for v in periodic_stream(150):
            result = detector.step(v)
            event_counts.append((result.finetuned, len(detector.events)))
        for (finetuned, count), (_, previous) in zip(
            event_counts[1:], event_counts[:-1]
        ):
            if finetuned:
                assert count == previous + 1
