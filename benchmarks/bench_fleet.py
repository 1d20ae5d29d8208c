"""Fused fleet inference and training vs per-session stepping.

Measures sustained points/s of K same-spec sessions drained through one
:class:`~repro.streaming.fleet.FleetEngine` call per micro-batch versus
K separate ``step_chunk`` calls, at the serve-shaped micro-batch size
(``max_batch=16``).  Two matrices:

- the quiet baseline (μ/σ-Change that never fires on the clean signal),
  isolating the session-axis *inference* kernels;
- a drift-heavy matrix (``--drift-interval``: RegularFineTuning every
  N steps), where every session fine-tunes continuously — isolating the
  session-axis *training* kernels and the round-based drain that keeps
  firing sessions on the fused path.

A serve-path section repeats the comparison through the full
:class:`~repro.serve.DetectionService`: registry-built sessions (one
spec fingerprint, so they drain as one fused group) against sessions
opened from prebuilt detectors (no fleet key, so each drains alone), so
the engine-level speedup can be read against the end-to-end one.

Before any number is written, the fused outputs over the whole workload
are asserted bitwise identical to the per-session reference — a fleet
that changed the scores would make the throughput meaningless.  In full
mode the headline claims are asserted too: fused K=16 throughput must
be at least 2x the per-session baseline on both matrices, the
drift-heavy K=16 ``fused_fraction`` must stay >= 0.9, and fused K=1
(which auto-bypasses below ``min_fleet``) must not be slower than the
per-session baseline.  Results land in ``BENCH_fleet.json`` at the
repo root.

Run as a script (``python benchmarks/bench_fleet.py [--fast]``).
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import time
from pathlib import Path

import numpy as np

from repro.core.config import DetectorConfig
from repro.core.registry import AlgorithmSpec, build_detector
from repro.serve import DetectionService, ServeConfig
from repro.streaming.fleet import FleetEngine

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_fleet.json"

SPEC = ("ae", "sw", "musigma")
N_CHANNELS = 2
CONFIG = dict(window=8, train_capacity=32, fit_epochs=3, kswin_check_every=8)
MAX_BATCH = 16
WARMUP = 150


def make_values(n, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(n, dtype=np.float64)
    values = np.stack(
        [np.sin(2 * np.pi * t / 40), np.cos(2 * np.pi * t / 40)], axis=1
    )
    return values + rng.normal(scale=0.05, size=values.shape)


def warmed_fleet_pickle(k_sessions, values_by_k, spec=SPEC, config=None):
    """K warmed-up detectors, pickled once so every timed run starts
    from byte-identical state (pickle/unpickle is the clone)."""
    detectors = []
    for k in range(k_sessions):
        det = build_detector(
            AlgorithmSpec(*spec),
            n_channels=N_CHANNELS,
            config=DetectorConfig(**(config or CONFIG)),
        )
        for t in range(WARMUP):
            det.step(values_by_k[k][t])
        detectors.append(det)
    return pickle.dumps(detectors)


def blocks_iter(values_by_k, n_steps):
    for start in range(WARMUP, WARMUP + n_steps, MAX_BATCH):
        end = min(start + MAX_BATCH, WARMUP + n_steps)
        yield [v[start:end] for v in values_by_k]


def run_per_session(detectors, values_by_k, n_steps):
    outputs = [[] for _ in detectors]
    started = time.perf_counter()
    for blocks in blocks_iter(values_by_k, n_steps):
        for k, det in enumerate(detectors):
            outputs[k].append(det.step_chunk(blocks[k]))
    elapsed = time.perf_counter() - started
    return elapsed, outputs


def run_fused(detectors, values_by_k, n_steps):
    fleet = FleetEngine(detectors)
    outputs = [[] for _ in detectors]
    started = time.perf_counter()
    for blocks in blocks_iter(values_by_k, n_steps):
        results = fleet.step_chunk(blocks)
        for k, result in enumerate(results):
            outputs[k].append(result)
    elapsed = time.perf_counter() - started
    return elapsed, outputs, fleet


def assert_outputs_equal(fused, reference):
    for per_session_fused, per_session_ref in zip(fused, reference):
        for block_fused, block_ref in zip(per_session_fused, per_session_ref):
            for got, want in zip(block_fused, block_ref):
                if got.tobytes() != want.tobytes():
                    raise AssertionError("fused outputs diverged from per-session")
    return True


def bench_engine(k_sessions, n_steps, repeats, drift_interval=None):
    """Best-of-``repeats`` engine-level comparison at one fleet size.

    ``drift_interval`` switches to the drift-heavy spec: Regular
    fine-tuning every that many steps (the training set is sized to
    match), so every session trains continuously during the drain.
    """
    if k_sessions == 1:
        # The K=1 parity claim rides on a ~0.2s workload where this
        # class of box shows >10% clock drift between runs; the runs are
        # cheap, so buy tighter best-of error bars instead.
        repeats *= 3
    if drift_interval is None:
        spec, config = SPEC, CONFIG
    else:
        spec = (SPEC[0], SPEC[1], "regular")
        config = dict(CONFIG, train_capacity=drift_interval)
    values_by_k = [make_values(WARMUP + n_steps, seed=k) for k in range(k_sessions)]
    seed_state = warmed_fleet_pickle(k_sessions, values_by_k, spec, config)

    fused_elapsed, fused_out, fleet = run_fused(
        pickle.loads(seed_state), values_by_k, n_steps
    )
    ref_elapsed, ref_out = run_per_session(
        pickle.loads(seed_state), values_by_k, n_steps
    )
    identical = assert_outputs_equal(fused_out, ref_out)
    for _ in range(repeats - 1):  # interleaved re-runs squeeze out noise
        elapsed, _, _ = run_fused(pickle.loads(seed_state), values_by_k, n_steps)
        fused_elapsed = min(fused_elapsed, elapsed)
        elapsed, _ = run_per_session(pickle.loads(seed_state), values_by_k, n_steps)
        ref_elapsed = min(ref_elapsed, elapsed)

    total = k_sessions * n_steps
    manifest = fleet.manifest()
    row = {
        "sessions": k_sessions,
        "per_session_points_per_second": total / ref_elapsed,
        "fused_points_per_second": total / fused_elapsed,
        "speedup_fused_vs_per_session": ref_elapsed / fused_elapsed,
        "fused_fraction": manifest["fused_fraction"],
        "bypassed": manifest["bypassed_drains"] > 0,
        "finetunes_fused": manifest["finetunes_fused"],
        "equivalence_bitwise": identical,
    }
    if drift_interval is not None:
        row["drift_interval"] = drift_interval
    return row


def serve_rate(values, n_sessions, fused):
    """End-to-end service throughput of fused groups or lone sessions.

    ``fused`` sessions are registry-built and share a fleet key; the
    per-session leg opens each from a prebuilt detector, which has no
    fleet key and so drains alone.
    """
    service = DetectionService(
        ServeConfig(
            default_spec="+".join(SPEC),
            max_sessions=n_sessions,
            max_batch=MAX_BATCH,
            max_delay_ms=0.0,
            queue_limit=max(8 * MAX_BATCH, 256),
            result_limit=max(8 * MAX_BATCH, 1024),
            per_session_telemetry=False,
            detector=DetectorConfig(**CONFIG),
        ),
        autostart=False,
    )
    streams = [f"fleet-{i}" for i in range(n_sessions)]
    for stream in streams:
        detector = None
        if not fused:
            detector = build_detector(
                AlgorithmSpec(*SPEC), N_CHANNELS, DetectorConfig(**CONFIG)
            )
        service.create_session(stream, n_channels=N_CHANNELS, detector=detector)
    slice_size = 4 * MAX_BATCH
    n = len(values)
    collected = {stream: 0 for stream in streams}
    started = time.perf_counter()
    sent = 0
    while sent < n or any(done < n for done in collected.values()):
        if sent < n:
            block = values[sent : sent + slice_size]
            for stream in streams:
                service.ingest(stream, block)
            sent += len(block)
        while service.pump():
            pass
        for stream in streams:
            payload = service.collect(stream, flush=False)
            collected[stream] += len(payload["results"])
    elapsed = time.perf_counter() - started
    service.shutdown()
    return n_sessions * n / elapsed


def run_benchmarks(fast: bool = False, drift_intervals=None) -> dict:
    n_steps = 512 if fast else 4000
    fleet_sizes = (1, 4) if fast else (1, 4, 16)
    repeats = 1 if fast else 5  # single-core CI boxes are noisy; best-of-5
    if drift_intervals is None:
        drift_intervals = (32,) if fast else (64, 32)

    fleet_rows = [bench_engine(k, n_steps, repeats) for k in fleet_sizes]
    drift_rows = [
        bench_engine(k, n_steps, repeats, drift_interval=interval)
        for interval in drift_intervals
        for k in fleet_sizes
    ]

    serve_points = 512 if fast else 2000
    serve_sessions = fleet_sizes[-1]
    serve_values = make_values(serve_points, seed=99)
    serve_fused = serve_rate(serve_values, serve_sessions, fused=True)
    serve_unfused = serve_rate(serve_values, serve_sessions, fused=False)

    payload = {
        "generated_by": "benchmarks/bench_fleet.py",
        "mode": "fast" if fast else "full",
        "cpu_count": os.cpu_count(),
        "spec": "+".join(SPEC),
        "config": CONFIG,
        "max_batch": MAX_BATCH,
        "n_points_per_session": n_steps,
        "fleet": fleet_rows,
        "fleet_drift": drift_rows,
        "serve": {
            "sessions": serve_sessions,
            "max_batch": MAX_BATCH,
            "fused_points_per_second": serve_fused,
            "per_session_points_per_second": serve_unfused,
            "speedup_fused_vs_per_session": serve_fused / serve_unfused,
        },
        "equivalence": {
            "bitwise_identical": all(
                row["equivalence_bitwise"] for row in fleet_rows + drift_rows
            ),
            "reference": "per-session step_chunk",
        },
    }
    if not fast:
        headline = fleet_rows[-1]
        assert headline["sessions"] == 16
        assert headline["speedup_fused_vs_per_session"] >= 2.0, (
            "fused K=16 must be >= 2x the per-session baseline, got "
            f"{headline['speedup_fused_vs_per_session']:.2f}x"
        )
        for row in fleet_rows + drift_rows:
            if row["sessions"] == 1:
                # The min_fleet bypass must keep fused K=1 at parity
                # (the 0.9 floor absorbs timer noise on equal code paths).
                assert row["bypassed"] is True
                assert row["speedup_fused_vs_per_session"] >= 0.9, (
                    "bypassed fused K=1 fell behind per-session: "
                    f"{row['speedup_fused_vs_per_session']:.2f}x"
                )
        for row in drift_rows:
            if row["sessions"] != 16:
                continue
            assert row["finetunes_fused"] > 0
            assert row["fused_fraction"] >= 0.9, (
                f"drift interval {row['drift_interval']}: fused_fraction "
                f"{row['fused_fraction']:.3f} < 0.9"
            )
            assert row["speedup_fused_vs_per_session"] >= 2.0, (
                f"drift interval {row['drift_interval']}: fused K=16 "
                f"{row['speedup_fused_vs_per_session']:.2f}x < 2x"
            )
    return payload


def write_results(payload: dict, out: Path = DEFAULT_OUT) -> Path:
    out.write_text(json.dumps(payload, indent=2) + "\n")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Fused fleet inference benchmark")
    parser.add_argument(
        "--fast",
        action="store_true",
        help="smoke-test scale (used by the test-suite invocation)",
    )
    parser.add_argument(
        "--drift-interval",
        type=int,
        nargs="*",
        default=None,
        metavar="N",
        help="drift-heavy matrix axis: RegularFineTuning intervals to "
        "bench (default: 32 in fast mode, 64 and 32 in full mode)",
    )
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)
    payload = run_benchmarks(fast=args.fast, drift_intervals=args.drift_interval)
    out = write_results(payload, args.out)
    print(json.dumps(payload, indent=2))
    print(f"results written to {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
