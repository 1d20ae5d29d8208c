"""Bitwise-identity property tests for the chunked streaming engine.

The contract under test: for every algorithm in the registry, streaming a
series through :func:`run_stream` with any ``batch_size`` — or at its
default, or through a ``detector.step`` loop — yields exactly the same
scores, nonconformities, events and drift steps as ``batch_size=1``, the
sequential reference of the chunked engine.  The supporting layers
(block scorers, rolling-buffer block pushes, chunk validation, detector
reuse) are covered individually below.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import DetectorConfig
from repro.core.detector import StreamingAnomalyDetector
from repro.core.exceptions import StreamError
from repro.core.registry import AlgorithmSpec, build_algorithm_grid, build_detector
from repro.core.representation import RollingBuffer, WindowRepresentation
from repro.core.types import TimeSeries
from repro.datasets.corpora import make_daphnet
from repro.obs.telemetry import Telemetry
from repro.scoring.anomaly_score import (
    AnomalyLikelihood,
    AverageScore,
    ConformalScorer,
    RawScore,
)
from repro.streaming.runner import StreamResult, run_stream

CONFIG = DetectorConfig(window=8, train_capacity=24, fit_epochs=1, kswin_check_every=4)
CHUNK_SIZES = (7, 64)


@pytest.fixture(scope="module")
def series() -> TimeSeries:
    return make_daphnet(n_series=1, n_steps=260, clean_prefix=50, seed=0)[0]


def result_fingerprint(result: StreamResult) -> tuple:
    """Everything the identity contract pins, bit for bit."""
    return (
        result.scores.tobytes(),
        result.nonconformities.tobytes(),
        tuple(
            (e.t, e.reason, e.train_set_size, repr(e.loss_after))
            for e in result.events
        ),
        tuple(result.drift_steps),
        result.first_scored,
    )


def run_chunked(spec: AlgorithmSpec, series: TimeSeries, chunk: int) -> StreamResult:
    detector = build_detector(spec, n_channels=series.n_channels, config=CONFIG)
    return run_stream(detector, series, batch_size=chunk)


def run_step_loop(spec: AlgorithmSpec, series: TimeSeries) -> StreamResult:
    """One ``detector.step`` call per row, collected as ``run_stream`` does."""
    detector = build_detector(spec, n_channels=series.n_channels, config=CONFIG)
    steps = [detector.step(row) for row in series.values]
    first_scored = detector.first_scored_step
    return StreamResult(
        series_name=series.name,
        algorithm=spec.label,
        scores=np.array([step.score for step in steps]),
        nonconformities=np.array([step.nonconformity for step in steps]),
        labels=series.labels,
        first_scored=series.n_steps if first_scored is None else first_scored,
        events=list(detector.events),
        drift_steps=[step.t for step in steps if step.drift_detected],
    )


def assert_matches_chunk1(spec: AlgorithmSpec, series: TimeSeries) -> None:
    """Every way of driving the stream equals the chunk=1 reference: the
    other chunk sizes, ``run_stream``'s default and a ``step`` loop."""
    reference = result_fingerprint(run_chunked(spec, series, 1))
    runs = [(f"chunk={c}", run_chunked(spec, series, c)) for c in CHUNK_SIZES]
    detector = build_detector(spec, n_channels=series.n_channels, config=CONFIG)
    runs.append(("default run_stream", run_stream(detector, series)))
    runs.append(("step loop", run_step_loop(spec, series)))
    for name, result in runs:
        assert result_fingerprint(result) == reference, f"{spec.label}: {name}"


@pytest.mark.parametrize("spec", build_algorithm_grid(), ids=lambda s: s.label)
def test_registry_chunk_invariance(spec, series):
    """All 26 Table-I combos: any chunking == the chunk=1 reference."""
    assert_matches_chunk1(spec, series)


@pytest.mark.parametrize(
    "model", ["var", "knn", "kmeans", "rs_forest"], ids=str
)
def test_extension_models_chunk_invariance(model, series):
    """Extension models (incl. stateful score models on the fallback path)."""
    assert_matches_chunk1(AlgorithmSpec(model, "sw", "musigma"), series)


@pytest.mark.parametrize(
    "task2", ["regular", "never", "page_hinkley", "adwin"], ids=str
)
def test_lazy_train_set_detectors_chunk_invariance(task2, series):
    """Task-2 detectors that skip training-set materialization."""
    assert_matches_chunk1(AlgorithmSpec("ae", "sw", task2), series)


@pytest.mark.parametrize("task1", ["sw", "ares"], ids=str)
def test_finetune_straddles_chunk(task1, series):
    """A chunk that spans several fine-tune events still matches chunk=1.

    With ``regular`` Task-2 the fine-tune schedule is known: sessions at
    every multiple of the interval, several of which land strictly inside
    a 64-step chunk.  SW does not read the score, so its segments decide
    each fire before scoring and never roll back; ARES reads it, so its
    segments take the speculative-rollback path.
    """
    spec = AlgorithmSpec("ae", task1, "regular")
    reference = run_chunked(spec, series, 1)
    detector = build_detector(spec, n_channels=series.n_channels, config=CONFIG)
    telemetry = Telemetry()
    chunked = run_stream(detector, series, batch_size=64, telemetry=telemetry)
    finetune_steps = [e.t for e in chunked.events if e.reason != "initial_fit"]
    assert any(step % 64 not in (0, 63) for step in finetune_steps)
    rollbacks = telemetry.counters.get("chunk_rollbacks", 0)
    assert (rollbacks > 0) == (task1 == "ares")
    assert result_fingerprint(chunked) == result_fingerprint(reference)


def test_run_stream_rejects_bad_batch_size(series):
    spec = AlgorithmSpec("ae", "sw", "never")
    detector = build_detector(spec, n_channels=series.n_channels, config=CONFIG)
    with pytest.raises(ValueError, match="batch_size"):
        run_stream(detector, series, batch_size=0)


# ----------------------------------------------------------------------
# scorers: block updates and snapshots
# ----------------------------------------------------------------------
def make_scorers():
    return [
        RawScore(),
        AverageScore(k=5),
        ConformalScorer(k=7),
        AnomalyLikelihood(k=9, k_short=3),
    ]


@pytest.mark.parametrize("scorer", make_scorers(), ids=lambda s: s.name)
def test_update_batch_matches_scalar_loop(scorer, rng):
    values = rng.uniform(size=37)
    reference = type(scorer)(**_scorer_kwargs(scorer))
    expected = np.asarray([reference.update(float(v)) for v in values])
    # split the block arbitrarily: state must carry across calls
    got = np.concatenate(
        [scorer.update_batch(values[:4]), scorer.update_batch(values[4:])]
    )
    assert got.tobytes() == expected.tobytes()


def _scorer_kwargs(scorer):
    if isinstance(scorer, AverageScore):
        return {"k": scorer.k}
    if isinstance(scorer, ConformalScorer):
        return {"k": scorer.k}
    if isinstance(scorer, AnomalyLikelihood):
        return {"k": scorer.k, "k_short": scorer.k_short}
    return {}


@pytest.mark.parametrize("scorer", make_scorers(), ids=lambda s: s.name)
def test_snapshot_restore_round_trip(scorer, rng):
    warm = rng.uniform(size=11)
    scorer.update_batch(warm)
    state = scorer.snapshot()
    after_snapshot = scorer.update_batch(rng.uniform(size=8))
    scorer.restore(state)
    probe = rng.uniform(size=8)
    replay_a = scorer.update_batch(probe)
    scorer.restore(state)
    replay_b = scorer.update_batch(probe)
    assert replay_a.tobytes() == replay_b.tobytes()
    assert after_snapshot.shape == (8,)


# ----------------------------------------------------------------------
# rolling buffer: block pushes
# ----------------------------------------------------------------------
class TestPushBlock:
    def _buffers(self, window=5):
        return (
            RollingBuffer(WindowRepresentation(window)),
            RollingBuffer(WindowRepresentation(window)),
        )

    def test_matches_sequential_pushes(self, rng):
        sequential, blocked = self._buffers()
        values = rng.normal(size=(23, 3))
        expected = [sequential.push(row) for row in values]
        windows, n_cold = blocked.push_block(values)
        assert n_cold == 4  # window 5: first 4 pushes emit nothing
        assert len(windows) == 23 - n_cold
        for window, reference in zip(windows, expected[n_cold:]):
            assert window.tobytes() == reference.tobytes()
        assert blocked.window_view().tobytes() == sequential.window_view().tobytes()

    def test_mixed_push_and_push_block(self, rng):
        sequential, blocked = self._buffers()
        values = rng.normal(size=(17, 2))
        expected = [sequential.push(row) for row in values]
        got = [blocked.push(row) for row in values[:7]]
        windows, n_cold = blocked.push_block(values[7:10])
        assert n_cold == 0
        got.extend(windows)
        more, _ = blocked.push_block(values[10:])
        got.extend(more)
        for window, reference in zip(got[4:], expected[4:]):
            assert window.tobytes() == reference.tobytes()

    def test_block_larger_than_window(self, rng):
        sequential, blocked = self._buffers(window=4)
        values = rng.normal(size=(12, 2))
        for row in values:
            sequential.push(row)
        windows, n_cold = blocked.push_block(values)
        assert n_cold == 3
        assert len(windows) == 9
        assert blocked.window_view().tobytes() == sequential.window_view().tobytes()

    def test_entirely_cold_block(self, rng):
        _, blocked = self._buffers(window=10)
        windows, n_cold = blocked.push_block(rng.normal(size=(4, 2)))
        assert n_cold == 4
        assert len(windows) == 0
        assert not blocked.is_warm


# ----------------------------------------------------------------------
# detector: reuse, warm-up and chunk validation
# ----------------------------------------------------------------------
def _build(spec=None) -> StreamingAnomalyDetector:
    spec = spec or AlgorithmSpec("ae", "sw", "musigma")
    return build_detector(spec, n_channels=2, config=CONFIG)


class TestDetectorReuse:
    def _make_series(self, seed, n_steps=220):
        return make_daphnet(
            n_series=2, n_steps=n_steps, clean_prefix=50, seed=seed
        )

    def test_reset_clears_streaming_state(self):
        first, _ = self._make_series(seed=3)
        spec = AlgorithmSpec("online_arima", "sw", "musigma")
        detector = build_detector(spec, n_channels=first.n_channels, config=CONFIG)
        run_stream(detector, first, batch_size=32)
        detector.reset()
        assert detector.t == -1
        assert detector.events == []
        assert detector.first_scored_step is None
        assert not detector.buffer.is_warm

    def test_chunk_invariance_survives_reset(self):
        """Two identically-prepared detectors, reset, rerun: any chunking
        of the second stream still matches the chunk=1 reference."""
        first, second = self._make_series(seed=3)
        spec = AlgorithmSpec("online_arima", "sw", "musigma")
        results = {}
        for chunk in (1, 32):
            detector = build_detector(
                spec, n_channels=first.n_channels, config=CONFIG
            )
            run_stream(detector, first, batch_size=16)  # same warm history
            detector.reset()
            results[chunk] = result_fingerprint(
                run_stream(detector, second, batch_size=chunk)
            )
        assert results[1] == results[32]


class TestChunkValidation:
    def test_non_finite_mid_chunk(self):
        detector = _build()
        block = np.ones((10, 2))
        block[6, 1] = np.nan
        with pytest.raises(StreamError, match="t=6 contains non-finite"):
            detector.step_chunk(block)
        # the valid prefix was processed before the failure
        assert detector.t == 5

    def test_non_finite_through_run_stream(self):
        values = np.ones((30, 2))
        values[17] = np.inf
        series = TimeSeries(values=values, labels=np.zeros(30, dtype=np.int_))
        detector = _build()
        with pytest.raises(StreamError, match="t=17 contains non-finite"):
            run_stream(detector, series, batch_size=8)

    def test_channel_mismatch(self):
        detector = _build()
        detector.step_chunk(np.ones((3, 2)))
        with pytest.raises(StreamError, match="has 3 channels, expected 2"):
            detector.step_chunk(np.ones((2, 3)))

    def test_warm_up_equivalent_to_step_chunk(self, rng):
        values = rng.normal(size=(90, 2))
        warmed = _build()
        warmed.warm_up(values, batch_size=16)
        chunked = _build()
        chunked.step_chunk(values)
        assert warmed.t == chunked.t
        assert len(warmed.train_strategy) == len(chunked.train_strategy)
        assert warmed.model.is_fitted == chunked.model.is_fitted
