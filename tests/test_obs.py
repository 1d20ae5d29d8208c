"""Tests for the observability layer (repro.obs) and its integrations."""

import json

import numpy as np
import pytest

from repro.core.config import DetectorConfig
from repro.core.registry import AlgorithmSpec, build_detector
from repro.core.types import TimeSeries
from repro.datasets import make_smd
from repro.experiments.table3 import Table3Config, run_table3
from repro.obs import (
    NULL_TELEMETRY,
    STAGE_PREFIX,
    NullTelemetry,
    Telemetry,
    build_manifest,
    fingerprint_config,
    merge_payloads,
)
from repro.streaming import CellFailure, ParallelCorpusRunner, build_cells, run_corpus
from repro.streaming import parallel as parallel_module
from repro.streaming.runner import run_stream


def make_series(n=600, seed=3, drift=True):
    rng = np.random.default_rng(seed)
    t = np.arange(n, dtype=np.float64)
    values = np.stack(
        [np.sin(2 * np.pi * t / 30), np.cos(2 * np.pi * t / 30)], axis=1
    )
    if drift:
        values[n // 2 :] *= 2.5
        values[n // 2 :] += 1.0
    values += rng.normal(scale=0.08, size=values.shape)
    return TimeSeries(values=values, labels=np.zeros(n, dtype=int), name="obs")


def fresh_detector(spec=("ae", "sw", "kswin"), **overrides):
    config = DetectorConfig(
        window=6,
        train_capacity=24,
        fit_epochs=3,
        kswin_check_every=1,
        **overrides,
    )
    return build_detector(AlgorithmSpec(*spec), n_channels=2, config=config)


class TestTelemetry:
    def test_counters_accumulate(self):
        tel = Telemetry()
        tel.count("steps")
        tel.count("steps", 5)
        assert tel.counters["steps"] == 6

    def test_spans_accumulate_calls_and_seconds(self):
        tel = Telemetry()
        tel.add_time("score", 0.5)
        tel.add_time("score", 1.5, calls=3)
        assert tel.spans["score"] == [4, 2.0]

    def test_span_context_manager(self):
        tel = Telemetry()
        with tel.span("work"):
            pass
        calls, seconds = tel.spans["work"]
        assert calls == 1
        assert seconds >= 0.0

    def test_event_log_is_bounded(self):
        tel = Telemetry(max_events=3)
        for i in range(5):
            tel.event("tick", i=i)
        assert len(tel.events) == 3
        assert tel.n_events_dropped == 2
        assert [e["i"] for e in tel.events] == [2, 3, 4]

    def test_max_events_validated(self):
        with pytest.raises(ValueError):
            Telemetry(max_events=0)

    def test_as_dict_is_json_safe(self):
        tel = Telemetry()
        tel.count("steps", 2)
        tel.add_time("score", 0.25)
        tel.event("finetune", t=10)
        payload = tel.as_dict()
        json.dumps(payload)
        assert payload["counters"] == {"steps": 2}
        assert payload["spans"]["score"] == {"calls": 1, "seconds": 0.25}
        assert payload["events"] == [{"kind": "finetune", "t": 10}]

    def test_merge_payload_sums(self):
        a, b = Telemetry(), Telemetry()
        a.count("steps", 2)
        a.add_time("score", 1.0, calls=2)
        a.event("x", t=1)
        b.count("steps", 3)
        b.add_time("score", 0.5)
        merged = merge_payloads([a.as_dict(), b.as_dict(), None])
        assert merged["counters"]["steps"] == 5
        assert merged["spans"]["score"] == {"calls": 3, "seconds": 1.5}
        assert merged["events"] == [{"kind": "x", "t": 1}]

    def test_stage_seconds(self):
        tel = Telemetry()
        tel.add_time(STAGE_PREFIX + "stream", 2.0)
        tel.add_time("score", 1.0)
        assert tel.stage_seconds() == 2.0

    def test_reset(self):
        tel = Telemetry()
        tel.count("steps")
        tel.add_time("score", 1.0)
        tel.event("x")
        tel.reset()
        assert tel.as_dict() == {
            "counters": {},
            "spans": {},
            "events": [],
            "n_events_dropped": 0,
        }


class TestNullTelemetry:
    def test_everything_is_a_noop(self):
        tel = NullTelemetry()
        tel.count("steps", 5)
        tel.add_time("score", 1.0)
        tel.event("x", t=1)
        with tel.span("work"):
            pass
        tel.merge_payload({"counters": {"steps": 9}})
        assert not tel.enabled
        assert tel.as_dict() == {
            "counters": {},
            "spans": {},
            "events": [],
            "n_events_dropped": 0,
        }

    def test_shared_singleton_is_null(self):
        assert isinstance(NULL_TELEMETRY, NullTelemetry)
        assert not NULL_TELEMETRY.enabled


class TestRunManifest:
    def test_fingerprint_is_stable_and_sensitive(self):
        a = Table3Config(n_steps=100)
        b = Table3Config(n_steps=100)
        c = Table3Config(n_steps=101)
        assert fingerprint_config(a) == fingerprint_config(b)
        assert fingerprint_config(a) != fingerprint_config(c)

    def test_build_manifest_splits_stages_from_spans(self):
        tel = Telemetry()
        tel.add_time(STAGE_PREFIX + "stream", 1.5)
        tel.add_time("score", 0.5)
        tel.count("steps", 10)
        manifest = build_manifest("test", {"a": 1}, tel, wall_time_seconds=2.0)
        assert [s["name"] for s in manifest.stages] == ["stream"]
        assert manifest.stage_seconds == 1.5
        assert "score" in manifest.spans
        assert STAGE_PREFIX + "stream" not in manifest.spans
        assert manifest.counters == {"steps": 10}

    def test_write_round_trips_as_json(self, tmp_path):
        tel = Telemetry()
        tel.add_time(STAGE_PREFIX + "stream", 1.0)
        manifest = build_manifest(
            "test", Table3Config(), tel, wall_time_seconds=1.1, seeds=[7]
        )
        path = manifest.write(tmp_path / "manifest.json")
        payload = json.loads(path.read_text())
        assert payload["schema"].startswith("repro.obs/run-manifest/")
        assert payload["seeds"] == [7]
        assert payload["versions"]["numpy"] == np.__version__
        assert payload["config"]["n_series"] == 2
        assert payload["config_fingerprint"] == fingerprint_config(Table3Config())


class TestTelemetryInvariance:
    """Tracing must never change a score — the zero-feedback guarantee."""

    # ``None`` runs ``run_stream`` at its default block size.
    @pytest.mark.parametrize("batch_size", [None, 32])
    @pytest.mark.parametrize(
        "spec", [("ae", "sw", "kswin"), ("pcb_iforest", "sw", "kswin")]
    )
    def test_traced_scores_bitwise_identical(self, spec, batch_size):
        series = make_series()
        chunk = {} if batch_size is None else {"batch_size": batch_size}
        plain = run_stream(fresh_detector(spec), series, **chunk)
        traced = run_stream(
            fresh_detector(spec), series, telemetry=Telemetry(), **chunk
        )
        assert np.array_equal(plain.scores, traced.scores)
        assert np.array_equal(plain.nonconformities, traced.nonconformities)
        assert plain.drift_steps == traced.drift_steps
        assert plain.telemetry is None
        assert traced.telemetry is not None

    @pytest.mark.parametrize("batch_size", [None, 7, 64])
    def test_counters_match_result_exactly(self, batch_size):
        series = make_series()
        tel = Telemetry()
        chunk = {} if batch_size is None else {"batch_size": batch_size}
        result = run_stream(fresh_detector(), series, telemetry=tel, **chunk)
        c = tel.counters
        assert c["steps"] == series.n_steps
        assert c.get("finetunes", 0) == result.n_finetunes
        assert c.get("drift_fires", 0) == len(result.drift_steps)
        assert c.get("initial_fits", 0) == 1

    def test_stage_time_covers_stream_wall_time(self):
        tel = Telemetry()
        result = run_stream(
            fresh_detector(), make_series(), batch_size=32, telemetry=tel
        )
        manifest = build_manifest(
            "stream", {}, tel, wall_time_seconds=result.runtime_seconds
        )
        assert manifest.stage_seconds >= 0.9 * manifest.wall_time_seconds


class TestDetectorPickleHygiene:
    def test_telemetry_never_pickled(self):
        import pickle

        detector = fresh_detector()
        detector.telemetry = Telemetry()
        run_stream(detector, make_series(n=200), batch_size=16)
        clone = pickle.loads(pickle.dumps(detector))
        assert clone.telemetry is NULL_TELEMETRY


class TestGridTelemetry:
    CONFIG = DetectorConfig(window=8, train_capacity=24, fit_epochs=1)

    def _cells(self, n_series=2):
        corpus = make_smd(n_series=n_series, n_steps=300, clean_prefix=80, seed=3)
        specs = [AlgorithmSpec("online_arima", "sw", "musigma")]
        return build_cells(specs, corpus, self.CONFIG, scorers=("avg",))

    def test_rollup_counts_cells(self):
        grid = ParallelCorpusRunner(n_jobs=1).run(self._cells())
        assert grid.telemetry["counters"]["cells_ok"] == 2
        assert "cells_failed" not in grid.telemetry["counters"]

    def test_traced_rollup_merges_cell_telemetry(self):
        cells = self._cells()
        grid = ParallelCorpusRunner(n_jobs=1, trace=True).run(cells)
        counters = grid.telemetry["counters"]
        assert counters["steps"] == sum(c.series.n_steps for c in cells)
        assert "stage:stream" in grid.telemetry["spans"]
        for result in grid.results:
            assert result.telemetry is not None

    def test_traced_parallel_equals_sequential_scores(self):
        cells = self._cells()
        plain = ParallelCorpusRunner(n_jobs=1).run(cells)
        traced = ParallelCorpusRunner(n_jobs=2, trace=True).run(cells)
        for a, b in zip(plain.results, traced.results):
            assert np.array_equal(a.scores, b.scores)

    def test_trace_off_leaves_results_untraced(self):
        grid = ParallelCorpusRunner(n_jobs=1).run(self._cells())
        for result in grid.results:
            assert result.telemetry is None


class TestBoundedRetry:
    CONFIG = DetectorConfig(window=8, train_capacity=24, fit_epochs=1)

    def _poisoned_cells(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=(300, 2))
        values[150:] = np.inf
        series = TimeSeries(
            values=values, labels=np.zeros(300, dtype=int), name="poisoned"
        )
        return build_cells(
            [AlgorithmSpec("online_arima", "sw", "musigma")],
            [series],
            self.CONFIG,
            scorers=("avg",),
        )

    def test_deterministic_failure_fails_again_and_is_final(self):
        grid = ParallelCorpusRunner(n_jobs=1).run(self._poisoned_cells())
        assert len(grid.failures) == 1
        assert grid.failures[0].retried
        counters = grid.telemetry["counters"]
        assert counters["cells_failed"] == 1
        assert counters["cell_retries"] == 1
        assert "cells_recovered" not in counters

    def test_transient_failure_recovers_on_retry(self, monkeypatch):
        cells = build_cells(
            [AlgorithmSpec("online_arima", "sw", "musigma")],
            make_smd(n_series=1, n_steps=250, clean_prefix=60, seed=0),
            self.CONFIG,
            scorers=("avg",),
        )
        real_run_cell = parallel_module._run_cell
        attempts = {"n": 0}

        def flaky_run_cell(payload):
            attempts["n"] += 1
            if attempts["n"] == 1:
                cell = payload[0]
                return CellFailure(
                    label=cell.label,
                    series_name=cell.series.name,
                    error_type="TransientError",
                    message="simulated worker loss",
                    traceback="(simulated)",
                )
            return real_run_cell(payload)

        monkeypatch.setattr(parallel_module, "_run_cell", flaky_run_cell)
        grid = ParallelCorpusRunner(n_jobs=1).run(cells)
        assert not grid.failures
        assert len(grid.results) == 1
        counters = grid.telemetry["counters"]
        assert counters["cells_ok"] == 1
        assert counters["cell_retries"] == 1
        assert counters["cells_recovered"] == 1


class TestCorpusTelemetry:
    CONFIG = DetectorConfig(window=8, train_capacity=24, fit_epochs=1)

    def _factory(self, series):
        return build_detector(
            AlgorithmSpec("online_arima", "sw", "musigma"),
            n_channels=series.n_channels,
            config=self.CONFIG,
        )

    def test_sequential_corpus_accumulates(self):
        corpus = make_smd(n_series=2, n_steps=250, clean_prefix=60, seed=0)
        tel = Telemetry()

        def traced_factory(series):
            detector = self._factory(series)
            detector.telemetry = tel
            return detector

        run_corpus(traced_factory, corpus)
        assert tel.counters["steps"] == sum(s.n_steps for s in corpus)
        assert tel.counters["initial_fits"] == 2

    def test_parallel_corpus_merges_worker_snapshots(self):
        corpus = make_smd(n_series=2, n_steps=250, clean_prefix=60, seed=0)
        cells = build_cells(
            [AlgorithmSpec("online_arima", "sw", "musigma")], corpus, self.CONFIG
        )
        grid = ParallelCorpusRunner(n_jobs=2, trace=True).run(cells)
        tel = Telemetry()
        tel.merge_payload(grid.telemetry)
        assert tel.counters["steps"] == sum(s.n_steps for s in corpus)


class TestExperimentTelemetry:
    def test_table3_traced_run_covers_wall_time(self):
        import time

        config = Table3Config(
            n_series=1,
            n_steps=400,
            clean_prefix=100,
            detector=DetectorConfig(
                window=8,
                train_capacity=48,
                initial_train_size=88,
                fit_epochs=3,
                kswin_check_every=8,
                scorer_k=24,
                scorer_k_short=3,
            ),
        )
        specs = [
            AlgorithmSpec("ae", "sw", "kswin"),
            AlgorithmSpec("online_arima", "sw", "musigma"),
        ]
        tel = Telemetry()
        plain_rows = run_table3("daphnet", specs=specs, config=config)
        started = time.perf_counter()
        traced_rows = run_table3(
            "daphnet", specs=specs, config=config, telemetry=tel
        )
        wall = time.perf_counter() - started

        # Tracing never changes a number in the table.
        for a, b in zip(plain_rows, traced_rows):
            assert a.metrics == b.metrics
            assert a.n_finetunes == b.n_finetunes

        manifest = build_manifest("table3", config, tel, wall_time_seconds=wall)
        stage_names = {s["name"] for s in manifest.stages}
        assert {"corpus", "stream", "evaluate"} <= stage_names
        assert tel.counters["steps"] == 2 * 2 * 400  # specs x scorers x steps
        assert tel.counters["cells_ok"] == 4


class TestCliTrace:
    def test_trace_writes_manifest(self, tmp_path, capsys):
        from repro.experiments.cli import main

        out = tmp_path / "manifest.json"
        code = main(
            [
                "table3",
                "--corpus",
                "daphnet",
                "--series",
                "1",
                "--steps",
                "400",
                "--prefix",
                "100",
                "--window",
                "8",
                "--capacity",
                "48",
                "--epochs",
                "3",
                "--trace",
                "--trace-out",
                str(out),
            ]
        )
        assert code == 0
        assert str(out) in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["command"] == "table3"
        assert payload["seeds"] == [7]
        assert payload["counters"]["steps"] > 0
        # The coarse stages account for (nearly) all of the wall time.
        stage_seconds = sum(s["seconds"] for s in payload["stages"])
        assert stage_seconds >= 0.9 * payload["wall_time_seconds"]
