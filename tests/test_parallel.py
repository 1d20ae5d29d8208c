"""Tests for the parallel experiment engine (repro.streaming.parallel)."""

import os
import pickle
import signal
from dataclasses import dataclass

import numpy as np
import pytest

from repro.core.config import DetectorConfig
from repro.core.exceptions import StreamError
from repro.core.registry import AlgorithmSpec, build_detector
from repro.core.types import TimeSeries
from repro.datasets import make_smd
from repro.streaming import (
    CellFailure,
    CorpusCell,
    ParallelCorpusRunner,
    StreamResult,
    build_cells,
    run_corpus,
)
from repro.streaming.parallel import resolve_n_jobs


SMALL_CONFIG = DetectorConfig(window=8, train_capacity=24, fit_epochs=1)


def small_grid(n_series=2, n_steps=400):
    corpus = make_smd(n_series=n_series, n_steps=n_steps, clean_prefix=100, seed=3)
    specs = [
        AlgorithmSpec("online_arima", "sw", "musigma"),
        AlgorithmSpec("pcb_iforest", "sw", "kswin"),
    ]
    return build_cells(specs, corpus, SMALL_CONFIG, scorers=("avg",))


def poisoned_series(n_steps=300):
    """A series whose tail is non-finite: the detector raises mid-stream."""
    rng = np.random.default_rng(0)
    values = rng.normal(size=(n_steps, 2))
    values[n_steps // 2 :] = np.inf
    return TimeSeries(
        values=values,
        labels=np.zeros(n_steps, dtype=int),
        name="poisoned",
    )


def assert_same_result(a: StreamResult, b: StreamResult) -> None:
    """Two stream results agree bit for bit (runtime aside)."""
    assert (a.series_name, a.algorithm) == (b.series_name, b.algorithm)
    assert a.scores.tobytes() == b.scores.tobytes()
    assert a.nonconformities.tobytes() == b.nonconformities.tobytes()
    assert a.first_scored == b.first_scored
    assert a.drift_steps == b.drift_steps
    assert pickle.dumps(a.events) == pickle.dumps(b.events)


@dataclass(frozen=True)
class KilledOnceCell(CorpusCell):
    """A cell whose first build SIGKILLs the process it runs in.

    The marker file is written before the kill, so the runner's
    in-process retry finds it and builds normally instead of killing
    the test run.
    """

    marker: str = ""

    def build(self):
        if not os.path.exists(self.marker):
            with open(self.marker, "w"):
                pass
            os.kill(os.getpid(), signal.SIGKILL)
        return super().build()


class TestResolveNJobs:
    def test_sequential_aliases(self):
        assert resolve_n_jobs(None) == 1
        assert resolve_n_jobs(0) == 1
        assert resolve_n_jobs(1) == 1

    def test_explicit(self):
        assert resolve_n_jobs(4) == 4

    def test_all_cpus(self):
        assert resolve_n_jobs(-1) >= 1


class TestParallelEqualsSequential:
    def test_bitwise_identical_scores(self):
        cells = small_grid()
        sequential = ParallelCorpusRunner(n_jobs=1).run(cells)
        parallel = ParallelCorpusRunner(n_jobs=2).run(cells)
        assert not sequential.failures and not parallel.failures
        assert len(sequential.results) == len(cells)
        for seq, par in zip(sequential.results, parallel.results):
            assert seq.series_name == par.series_name
            assert seq.algorithm == par.algorithm
            np.testing.assert_array_equal(seq.scores, par.scores)
            np.testing.assert_array_equal(seq.nonconformities, par.nonconformities)
            assert seq.drift_steps == par.drift_steps

    def test_outcomes_stay_ordered(self):
        cells = small_grid(n_series=3)
        grid = ParallelCorpusRunner(n_jobs=2).run(cells)
        for cell, outcome in zip(cells, grid.outcomes):
            assert isinstance(outcome, StreamResult)
            assert outcome.series_name == cell.series.name
            assert outcome.algorithm == cell.spec.model


class TestWorkerCrashSurvival:
    def _cells_with_poison(self):
        good = make_smd(n_series=2, n_steps=300, clean_prefix=80, seed=5)
        spec = AlgorithmSpec("online_arima", "sw", "musigma")
        series = [good[0], poisoned_series(), good[1]]
        return [
            CorpusCell(spec=spec, series=s, config=SMALL_CONFIG, scorer="avg")
            for s in series
        ]

    def test_grid_survives_failing_cell(self):
        grid = ParallelCorpusRunner(n_jobs=2).run(self._cells_with_poison())
        assert grid.n_cells == 3
        assert len(grid.failures) == 1
        assert len(grid.results) == 2
        # The failure slot is in the middle, aligned with its cell.
        assert isinstance(grid.outcomes[1], CellFailure)
        failure = grid.failures[0]
        assert failure.series_name == "poisoned"
        assert failure.error_type == "StreamError"
        assert "non-finite" in failure.message
        assert "run_stream" in failure.traceback

    def test_sequential_engine_also_captures(self):
        grid = ParallelCorpusRunner(n_jobs=1).run(self._cells_with_poison())
        assert len(grid.failures) == 1
        assert len(grid.results) == 2

    def test_killed_worker_loses_no_cell(self, tmp_path):
        corpus = make_smd(n_series=3, n_steps=300, clean_prefix=80, seed=5)
        spec = AlgorithmSpec("online_arima", "sw", "musigma")
        cells = [
            CorpusCell(spec=spec, series=s, config=SMALL_CONFIG, scorer="avg")
            for s in corpus
        ]
        reference = ParallelCorpusRunner(n_jobs=1).run(cells)
        cells[1] = KilledOnceCell(
            spec=spec,
            series=corpus[1],
            config=SMALL_CONFIG,
            scorer="avg",
            marker=str(tmp_path / "killed"),
        )
        grid = ParallelCorpusRunner(n_jobs=2).run(cells)
        assert (tmp_path / "killed").exists()  # a worker really died
        assert not grid.failures
        for got, want in zip(grid.outcomes, reference.outcomes):
            assert_same_result(got, want)
        assert grid.telemetry["counters"]["cells_recovered"] >= 1


class TestRunCorpusParallel:
    """``run_corpus``, the sequential closure-factory loop, beside the
    process-pool runner."""

    def _factory(self, series):
        return build_detector(
            AlgorithmSpec("online_arima", "sw", "musigma"),
            series.n_channels,
            SMALL_CONFIG,
        )

    def test_matches_sequential(self):
        corpus = make_smd(n_series=3, n_steps=400, clean_prefix=100, seed=1)
        sequential = run_corpus(self._factory, corpus)
        cells = build_cells(
            [AlgorithmSpec("online_arima", "sw", "musigma")], corpus, SMALL_CONFIG
        )
        parallel = ParallelCorpusRunner(n_jobs=2).run(cells)
        assert sequential.n_series == 3 and not parallel.failures
        for seq, par in zip(sequential, parallel.outcomes):
            assert_same_result(seq, par)

    def test_closure_factories_supported(self):
        corpus = make_smd(n_series=2, n_steps=400, clean_prefix=100, seed=2)
        config = SMALL_CONFIG
        spec = AlgorithmSpec("pcb_iforest", "sw", "kswin")
        result = run_corpus(
            lambda s: build_detector(spec, s.n_channels, config), corpus
        )
        assert result.n_series == 2

    def test_worker_failure_raises(self):
        # No capture in run_corpus: the failing series' error propagates.
        corpus = [poisoned_series(), poisoned_series()]
        with pytest.raises(StreamError, match="non-finite"):
            run_corpus(self._factory, corpus)
