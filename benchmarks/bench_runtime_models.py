"""Runtime profile: per-step throughput of every model family.

Not a paper table, but the systems-level complement to Table II: the
drift detector is only one part of the per-step budget.  Benchmarks one
full detector step (representation + prediction + nonconformity + scoring
+ training-set update + drift check) per model.

Also benchmarks the chunked streaming engine (``run_stream`` with
``batch_size``) against its ``batch_size=1`` sequential reference (what
``detector.step`` runs), asserting bitwise identity between the chunked
and chunk=1 runs before any number is written; full mode also asserts
each row's speedup floor (``STREAM_COMBOS``).
Results land in ``BENCH_stream.json`` at the repo root.

Run as a script (``python benchmarks/bench_runtime_models.py [--fast]``)
or through pytest (``pytest benchmarks/bench_runtime_models.py -s``).
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import DetectorConfig
from repro.core.registry import AlgorithmSpec, build_detector
from repro.datasets import make_daphnet
from repro.obs import Telemetry
from repro.streaming.runner import run_stream

CONFIG = DetectorConfig(
    window=16, train_capacity=48, fit_epochs=5, kswin_check_every=8
)

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_stream.json"

#: (model, task1, task2, floor) — ``floor`` is the least chunked ÷
#: chunk=1 speedup asserted in full mode (``None``: reported only).  The
#: neural models batch their forwards, so they clear 3x; PCB-iForest ×
#: KSWIN fine-tunes every ~9 steps here, so its segments are short and
#: its floor pins only that chunking never costs more than it saves.
STREAM_COMBOS = (
    ("ae", "sw", "musigma", 3.0),
    ("usad", "sw", "musigma", 3.0),
    ("nbeats", "sw", "musigma", 3.0),
    ("online_arima", "sw", "musigma", None),
    ("pcb_iforest", "sw", "kswin", 1.0),
)
STREAM_CHUNK = 256


def _warmed_detector(model, task1, task2, series):
    detector = build_detector(
        AlgorithmSpec(model, task1, task2), series.n_channels, CONFIG
    )
    for t in range(200):
        detector.step(series.values[t])
    assert detector.model.is_fitted
    return detector


@pytest.fixture(scope="module")
def series():
    return make_daphnet(n_series=1, n_steps=4000, clean_prefix=400, seed=0)[0]


@pytest.mark.parametrize(
    "model,task1,task2",
    [
        ("online_arima", "sw", "musigma"),
        ("ae", "sw", "musigma"),
        ("ae", "sw", "kswin"),
        ("usad", "ares", "musigma"),
        ("nbeats", "sw", "musigma"),
        ("pcb_iforest", "sw", "kswin"),
    ],
)
def bench_model_step(benchmark, series, model, task1, task2):
    detector = _warmed_detector(model, task1, task2, series)
    counter = {"t": 200}

    def one_step():
        t = counter["t"]
        counter["t"] = 200 + (t + 1 - 200) % 3000
        return detector.step(series.values[t])

    benchmark(one_step)


# ----------------------------------------------------------------------
# chunked streaming engine: BENCH_stream.json
# ----------------------------------------------------------------------
def _stream_fingerprint(result) -> tuple:
    return (
        result.scores.tobytes(),
        result.nonconformities.tobytes(),
        tuple((e.t, e.reason) for e in result.events),
        tuple(result.drift_steps),
    )


def _timed_run(spec: AlgorithmSpec, series, batch_size: int):
    detector = build_detector(spec, series.n_channels, CONFIG)
    started = time.perf_counter()
    result = run_stream(detector, series, batch_size=batch_size)
    return time.perf_counter() - started, result


def bench_stream_combo(spec: AlgorithmSpec, series, repeats: int = 1) -> dict:
    """chunk=1 engine vs chunked engine for one algorithm.

    The identity assertion (chunked == chunk=1, bitwise, including events
    and drift steps) runs before any throughput number is reported.
    Timings take the best of ``repeats`` interleaved passes per variant,
    so a scheduling hiccup in one pass cannot skew a single ratio.
    """
    chunk1_seconds, chunk1 = _timed_run(spec, series, 1)
    chunked_seconds, chunked = _timed_run(spec, series, STREAM_CHUNK)
    identical = _stream_fingerprint(chunk1) == _stream_fingerprint(chunked)
    assert identical, f"{spec.label}: chunked run diverged from chunk=1"
    for _ in range(repeats - 1):
        chunk1_seconds = min(chunk1_seconds, _timed_run(spec, series, 1)[0])
        chunked_seconds = min(
            chunked_seconds, _timed_run(spec, series, STREAM_CHUNK)[0]
        )
    n = series.n_steps
    return {
        "algorithm": spec.label,
        "n_steps": n,
        "steps_per_second": {
            "engine_chunk1": n / chunk1_seconds,
            f"engine_chunk{STREAM_CHUNK}": n / chunked_seconds,
        },
        "speedup_vs_chunk1": chunk1_seconds / chunked_seconds,
        "bitwise_identical": identical,
    }


def bench_telemetry_overhead(series) -> dict:
    """Disabled vs. traced telemetry on one chunked stream.

    Disabled telemetry (the default ``NullTelemetry``) must leave scores
    bitwise identical and the runtime within run-to-run noise — the
    repeated disabled timings give the noise floor (``disabled_spread``)
    that the overhead claim is judged against.  Tracing is allowed to
    cost; its overhead is reported, not asserted.
    """
    spec = AlgorithmSpec("ae", "sw", "musigma")
    disabled_seconds = []
    baseline = None
    for _ in range(3):
        seconds, result = _timed_run(spec, series, STREAM_CHUNK)
        disabled_seconds.append(seconds)
        baseline = result
    detector = build_detector(spec, series.n_channels, CONFIG)
    started = time.perf_counter()
    traced = run_stream(
        detector, series, batch_size=STREAM_CHUNK, telemetry=Telemetry()
    )
    traced_seconds = time.perf_counter() - started
    scores_identical = _stream_fingerprint(baseline) == _stream_fingerprint(traced)
    assert scores_identical, "traced run diverged from untraced run"
    best = min(disabled_seconds)
    return {
        "algorithm": spec.label,
        "disabled_seconds": disabled_seconds,
        "disabled_spread": max(disabled_seconds) / best - 1.0,
        "traced_seconds": traced_seconds,
        "traced_overhead": traced_seconds / best - 1.0,
        "scores_identical": scores_identical,
    }


def run_benchmarks(fast: bool = False) -> dict:
    n_steps = 2000 if fast else 10000
    series = make_daphnet(
        n_series=1, n_steps=n_steps, clean_prefix=400, seed=0
    )[0]
    combos = []
    for model, task1, task2, floor in STREAM_COMBOS:
        entry = bench_stream_combo(
            AlgorithmSpec(model, task1, task2), series, repeats=1 if fast else 3
        )
        entry["floor"] = floor
        combos.append(entry)
    if not fast:
        for combo in combos:
            if combo["floor"] is not None:
                assert combo["speedup_vs_chunk1"] >= combo["floor"], combo
    return {
        "generated_by": "benchmarks/bench_runtime_models.py",
        "mode": "fast" if fast else "full",
        "cpu_count": os.cpu_count(),
        "chunk_size": STREAM_CHUNK,
        "combos": combos,
        "determinism": {
            "bitwise_identical": all(c["bitwise_identical"] for c in combos),
            "reference": "engine_chunk1",
        },
        "telemetry": bench_telemetry_overhead(series),
    }


def write_results(payload: dict, out: Path = DEFAULT_OUT) -> Path:
    out.write_text(json.dumps(payload, indent=2) + "\n")
    return out


def bench_stream_engine(benchmark):
    """pytest-benchmark entry point: full run, floors asserted."""
    payload = benchmark.pedantic(run_benchmarks, rounds=1, iterations=1)
    out = write_results(payload)
    print()
    print(json.dumps(payload, indent=2))
    print(f"\nresults written to {out}")
    assert payload["determinism"]["bitwise_identical"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Chunked streaming engine benchmark"
    )
    parser.add_argument(
        "--fast",
        action="store_true",
        help="smoke-test scale (used by the test-suite invocation)",
    )
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)
    payload = run_benchmarks(fast=args.fast)
    out = write_results(payload, args.out)
    print(json.dumps(payload, indent=2))
    print(f"results written to {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
