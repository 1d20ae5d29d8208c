"""Serving throughput: the online service vs the raw chunked engine.

Measures sustained ingest-to-score throughput (points/s) of
``repro.serve`` across session counts and micro-batch sizes, with the
offline ``step_chunk`` rate over the same series as the ceiling — the
gap between a row and its ceiling is pure serving overhead (queueing,
sequence bookkeeping, scheduling, result buffering).  A separate row
measures the in-process wire client, which adds JSON encode/decode on
top.

A ``wal`` section measures the durability tax: the same single-session
ingest-to-score path with the write-ahead ingest log on, across fsync
policies (``never`` / ``barrier`` / ``always``) against the no-WAL
baseline.  Before those numbers are written, one WAL-backed run is
crash-recovered mid-stream (the service is abandoned and rebuilt over
the same directories) and asserted bitwise identical to the offline
reference — the overhead of a log that did not actually make recovery
work would be meaningless.  In full mode the default ``barrier`` policy
must stay within 10% of the no-WAL rate.

A ``sharded`` section measures the multi-process fleet
(:mod:`repro.serve.router`): aggregate points/s over real worker
processes at 1/2/4 workers with concurrent per-stream drivers, plus the
per-worker scaling curve.  ``cpu_count`` is recorded alongside — scaling
past 1x needs cores to scale onto, and the >=2x-at-4-workers assertion
only arms on a machine with at least 4.

Before any number is written, one served stream is asserted bitwise
identical to the offline ``batch_size=1`` ``run_stream`` reference (for
the fleet: including a live mid-stream migration) — throughput numbers
for a service that changed the scores would be meaningless.  Results
land in ``BENCH_serve.json`` at the repo root.

Run as a script (``python benchmarks/bench_serve.py [--fast]
[--no-workers]``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from repro.core.config import DetectorConfig
from repro.core.registry import AlgorithmSpec, build_detector
from repro.core.types import TimeSeries
from repro.serve import (
    DetectionService,
    RouterConfig,
    RouterService,
    ServeClient,
    ServeConfig,
)
from repro.streaming.runner import run_stream

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_serve.json"

SPEC = ("ae", "sw", "musigma")
N_CHANNELS = 2
CONFIG = dict(window=8, train_capacity=32, fit_epochs=3, kswin_check_every=8)


def make_values(n, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(n, dtype=np.float64)
    values = np.stack(
        [np.sin(2 * np.pi * t / 40), np.cos(2 * np.pi * t / 40)], axis=1
    )
    return values + rng.normal(scale=0.05, size=values.shape)


def _detector():
    return build_detector(
        AlgorithmSpec(*SPEC), n_channels=N_CHANNELS, config=DetectorConfig(**CONFIG)
    )


def offline_rate(values, batch_size):
    """Cold-start points/s of the bare chunked engine at this block size."""
    detector = _detector()
    started = time.perf_counter()
    for start in range(0, len(values), batch_size):
        detector.step_chunk(values[start : start + batch_size])
    return len(values) / (time.perf_counter() - started)


def _service(n_sessions, max_batch, **overrides):
    # max_delay_ms=0 makes any queued point immediately due, so a manual
    # pump loop drains deterministically with no timer in the path; big
    # limits keep backpressure out of a pure throughput measurement.
    settings = dict(
        default_spec="+".join(SPEC),
        max_sessions=n_sessions,
        max_batch=max_batch,
        max_delay_ms=0.0,
        queue_limit=max(8 * max_batch, 256),
        result_limit=max(8 * max_batch, 1024),
        # Kept off so the throughput rows stay comparable with the
        # committed BENCH_serve.json, which was measured untraced.
        per_session_telemetry=False,
        detector=DetectorConfig(**CONFIG),
    )
    settings.update(overrides)
    return DetectionService(ServeConfig(**settings), autostart=False)


def serve_rate(values, n_sessions, max_batch, **overrides):
    """Ingest-to-collect points/s through the full service path."""
    service = _service(n_sessions, max_batch, **overrides)
    streams = [f"bench-{i}" for i in range(n_sessions)]
    for stream in streams:
        service.create_session(stream, n_channels=N_CHANNELS)
    slice_size = max(4 * max_batch, 64)
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


def wire_rate(values, max_batch):
    """Same path plus the JSON-lines encoding (in-process wire client)."""
    service = _service(1, max_batch)
    client = ServeClient(service)
    client.create("wire", n_channels=N_CHANNELS)
    started = time.perf_counter()
    client.score_series("wire", values, ingest_size=max(4 * max_batch, 64))
    elapsed = time.perf_counter() - started
    service.shutdown()
    return len(values) / elapsed


def _router(n_workers):
    # Workers run with their own drain threads (real deployment shape);
    # a small flush delay keeps the drain loops from busy-spinning while
    # the driver's score(flush=True) calls still force progress.
    return RouterService(
        RouterConfig(
            n_workers=n_workers,
            worker=ServeConfig(
                default_spec="+".join(SPEC),
                max_batch=64,
                max_delay_ms=2.0,
                queue_limit=1024,
                result_limit=4096,
                per_session_telemetry=False,
                detector=DetectorConfig(**CONFIG),
            ),
        )
    )


def _drive(client, stream, values, start_seq=0, slice_size=256):
    """Ingest a series and collect every score, honoring backpressure.

    Returns scores indexed by absolute sequence number minus
    ``start_seq`` (a migrated/resumed stream keeps counting)."""
    n = len(values)
    by_seq: dict[int, float] = {}
    sent = 0
    while len(by_seq) < n:
        if sent < n:
            reply = client.ingest(stream, values[sent : sent + slice_size])
            if reply.get("ok"):
                sent += reply["accepted"]
            else:
                error = reply.get("error", {})
                if error.get("type") != "queue_full":
                    raise RuntimeError(f"ingest failed: {error}")
                time.sleep(float(error.get("retry_after", 0.005)))
        reply = client.score(stream, flush=True)
        if not reply.get("ok"):
            raise RuntimeError(f"score failed: {reply.get('error')}")
        for result in reply["results"]:
            by_seq[result["seq"] - start_seq] = result["score"]
    return np.array([by_seq[i] for i in range(n)])


def assert_shard_equivalence(values):
    """Routed scores — including a live mid-stream migration — must be
    bitwise identical to the offline reference before any fleet
    throughput number is recorded."""
    router = _router(2)
    try:
        client = ServeClient(router)
        reply = client.create("check", n_channels=N_CHANNELS)
        assert reply.get("ok"), reply
        cut = len(values) // 2
        first = _drive(client, "check", values[:cut])
        router.migrate("check", 1 - reply["worker"])
        rest = _drive(client, "check", values[cut:], start_seq=cut)
    finally:
        router.shutdown()
    served = np.concatenate([first, rest])
    series = TimeSeries(values=values, labels=np.zeros(len(values), dtype=int))
    offline = run_stream(_detector(), series, batch_size=1)
    assert np.array_equal(served, offline.scores), (
        "sharded served scores diverged from offline run_stream"
    )
    return True


def shard_rate(values, n_streams, n_workers):
    """Aggregate points/s through the router over real worker processes,
    one concurrent driver thread per stream."""
    router = _router(n_workers)
    try:
        client = ServeClient(router)
        streams = [f"bench-{i}" for i in range(n_streams)]
        for stream in streams:
            reply = client.create(stream, n_channels=N_CHANNELS)
            assert reply.get("ok"), reply
        errors: list[BaseException] = []

        def worker(stream):
            try:
                _drive(client, stream, values)
            except BaseException as error:  # noqa: BLE001 — re-raised below
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(stream,)) for stream in streams
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
        if errors:
            raise errors[0]
        placement = {
            stream: router.owner_of(stream) for stream in streams
        }
    finally:
        router.shutdown()
    return n_streams * len(values) / elapsed, placement


def run_shard_benchmarks(fast: bool) -> dict:
    n = 400 if fast else 1500
    n_streams = 4 if fast else 8
    worker_counts = (1, 2) if fast else (1, 2, 4)
    values = make_values(n, seed=1)

    identical = assert_shard_equivalence(values[: min(n, 500)])

    rows = []
    base_rate = None
    for n_workers in worker_counts:
        rate, placement = shard_rate(values, n_streams, n_workers)
        if base_rate is None:
            base_rate = rate
        rows.append(
            {
                "workers": n_workers,
                "streams": n_streams,
                "points_per_second": rate,
                "speedup_vs_1_worker": rate / base_rate,
                "streams_per_worker": sorted(
                    np.bincount(
                        list(placement.values()), minlength=n_workers
                    ).tolist()
                ),
            }
        )
    # Scaling is only demonstrable with cores to scale onto; on a 1-core
    # box the honest result is ~1x and the assertion would be noise.
    scaling_asserted = False
    if not fast and (os.cpu_count() or 1) >= 4 and worker_counts[-1] >= 4:
        four = next(r for r in rows if r["workers"] == 4)
        assert four["speedup_vs_1_worker"] >= 2.0, (
            f"expected >=2x at 4 workers on {os.cpu_count()} cores, got "
            f"{four['speedup_vs_1_worker']:.2f}x"
        )
        scaling_asserted = True
    return {
        "n_points_per_stream": n,
        "scaling": rows,
        "equivalence": {
            "bitwise_identical": identical,
            "includes_live_migration": True,
            "reference": "run_stream(batch_size=1)",
        },
        "scaling_asserted": scaling_asserted,
    }


def assert_wal_recovery_equivalence(values, max_batch=32):
    """A WAL-backed run, crash-recovered mid-stream, must score bitwise
    identical to the offline reference before any overhead is timed."""
    root = Path(tempfile.mkdtemp(prefix="repro-bench-wal-"))
    try:
        overrides = dict(
            spill_dir=str(root / "spill"), wal_dir=str(root / "wal")
        )
        service = _service(1, max_batch, **overrides)
        client = ServeClient(service)
        client.create("check", n_channels=N_CHANNELS)
        by_seq: dict[int, float] = {}
        cut = len(values) // 2
        sent = 0
        # leave a slice in flight at the "crash": ingested, never scored
        while sent < cut:
            reply = client.ingest("check", values[sent : sent + 97], expect=sent)
            assert reply.get("ok"), reply
            sent += reply["accepted"]
            if sent < cut:
                for result in client.score("check")["results"]:
                    by_seq[result["seq"]] = result["score"]
        del service, client  # abandoned: no flush, no close, no cleanup

        service = _service(1, max_batch, **overrides)
        counters = service.telemetry.as_dict()["counters"]
        assert counters.get("wal_recovered") == 1, counters
        client = ServeClient(service)
        for result in client.score("check")["results"]:
            by_seq.setdefault(result["seq"], result["score"])
        while sent < len(values):
            reply = client.ingest("check", values[sent : sent + 97], expect=sent)
            assert reply.get("ok"), reply
            sent += reply["accepted"]
            for result in client.score("check")["results"]:
                by_seq[result["seq"]] = result["score"]
        for result in client.score("check")["results"]:
            by_seq[result["seq"]] = result["score"]
        service.shutdown()
    finally:
        shutil.rmtree(root, ignore_errors=True)
    served = np.array([by_seq[i] for i in range(len(values))])
    series = TimeSeries(values=values, labels=np.zeros(len(values), dtype=int))
    offline = run_stream(_detector(), series, batch_size=1)
    assert np.array_equal(served, offline.scores), (
        "crash-recovered served scores diverged from offline run_stream"
    )
    return True


def run_wal_benchmarks(fast: bool) -> dict:
    """The durability tax: single-session rate across fsync policies.

    A barrier is a durable detector checkpoint (~1.5 ms of pickle +
    fsync here), so its cost per point is set by the barrier interval —
    the replay-bound knob.  This synthetic detector scores ~20k points/s
    (far faster than any real model), which at the default interval of
    256 would mean a durable checkpoint every ~12 ms of work; the rows
    below use an interval of 1024 — one durability point per ~50 ms of
    scoring, the cadence a throughput-sensitive deployment runs — and
    record it in the payload.
    """
    n = 800 if fast else 4000
    max_batch = 64
    barrier_interval = 1024
    values = make_values(n, seed=2)

    identical = assert_wal_recovery_equivalence(values[: min(n, 600)])

    def one_rate(fsync):
        root = Path(tempfile.mkdtemp(prefix="repro-bench-wal-"))
        try:
            overrides = {"spill_dir": str(root / "spill")}
            if fsync is not None:
                overrides["wal_dir"] = str(root / "wal")
                overrides["wal_fsync"] = fsync
                overrides["wal_barrier_interval"] = barrier_interval
            return serve_rate(values, 1, max_batch, **overrides)
        finally:
            shutil.rmtree(root, ignore_errors=True)

    # Best-of-N with the policies interleaved per round: each run is
    # short enough that machine noise dwarfs the effect being measured,
    # and interleaving keeps a slow phase from landing on one policy.
    policies = (None, "never", "barrier", "always")
    best = {fsync: 0.0 for fsync in policies}
    for _ in range(1 if fast else 3):
        for fsync in policies:
            best[fsync] = max(best[fsync], one_rate(fsync))

    baseline = best[None]
    rows = [{"fsync": "off", "points_per_second": baseline, "overhead": 0.0}]
    for fsync in ("never", "barrier", "always"):
        rows.append(
            {
                "fsync": fsync,
                "points_per_second": best[fsync],
                "overhead": 1.0 - best[fsync] / baseline,
            }
        )
    # The default policy must stay cheap; timing assertions only arm at
    # full scale where the measurement is stable.
    overhead_asserted = False
    if not fast:
        barrier = next(r for r in rows if r["fsync"] == "barrier")
        assert barrier["overhead"] <= 0.10, (
            f"wal_fsync=barrier costs {barrier['overhead']:.1%} (>10%) "
            "over the no-WAL baseline"
        )
        overhead_asserted = True
    return {
        "n_points": n,
        "max_batch": max_batch,
        "barrier_interval": barrier_interval,
        "policies": rows,
        "equivalence": {
            "bitwise_identical": identical,
            "includes_crash_recovery": True,
            "reference": "run_stream(batch_size=1)",
        },
        "overhead_asserted": overhead_asserted,
    }


def assert_equivalence(values, max_batch=32):
    """Served scores == offline run_stream (batch_size=1), bitwise."""
    service = _service(1, max_batch)
    client = ServeClient(service)
    client.create("check", n_channels=N_CHANNELS)
    scores, nonconformities = client.score_series("check", values, ingest_size=97)
    service.shutdown()
    series = TimeSeries(values=values, labels=np.zeros(len(values), dtype=int))
    offline = run_stream(_detector(), series, batch_size=1)
    assert np.array_equal(scores, offline.scores), "served scores diverged"
    assert np.array_equal(nonconformities, offline.nonconformities)
    return True


def run_benchmarks(
    fast: bool = False, workers: bool = True, wal: bool = True
) -> dict:
    n = 800 if fast else 4000
    session_counts = (1, 4) if fast else (1, 4, 16)
    batch_sizes = (1, 64) if fast else (1, 16, 128)
    values = make_values(n)

    identical = assert_equivalence(values[: min(n, 600)])

    ceilings = {
        str(batch): offline_rate(values, batch) for batch in batch_sizes
    }
    matrix = []
    for max_batch in batch_sizes:
        for n_sessions in session_counts:
            rate = serve_rate(values, n_sessions, max_batch)
            matrix.append(
                {
                    "sessions": n_sessions,
                    "max_batch": max_batch,
                    "points_per_second": rate,
                    "efficiency_vs_ceiling": rate / ceilings[str(max_batch)],
                }
            )
    return {
        "generated_by": "benchmarks/bench_serve.py",
        "mode": "fast" if fast else "full",
        "cpu_count": os.cpu_count(),
        "spec": "+".join(SPEC),
        "n_points_per_session": n,
        "offline_ceiling_points_per_second": ceilings,
        "matrix": matrix,
        "wire": {
            "max_batch": batch_sizes[-1],
            "points_per_second": wire_rate(values, batch_sizes[-1]),
        },
        "equivalence": {
            "bitwise_identical": identical,
            "reference": "run_stream(batch_size=1)",
        },
        "wal": run_wal_benchmarks(fast) if wal else None,
        "sharded": run_shard_benchmarks(fast) if workers else None,
    }


def write_results(payload: dict, out: Path = DEFAULT_OUT) -> Path:
    out.write_text(json.dumps(payload, indent=2) + "\n")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Online serving benchmark")
    parser.add_argument(
        "--fast",
        action="store_true",
        help="smoke-test scale (used by the test-suite invocation)",
    )
    parser.add_argument(
        "--no-workers",
        action="store_true",
        help="skip the sharded multi-process scaling section",
    )
    parser.add_argument(
        "--no-wal",
        action="store_true",
        help="skip the write-ahead-log durability overhead section",
    )
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)
    payload = run_benchmarks(
        fast=args.fast, workers=not args.no_workers, wal=not args.no_wal
    )
    out = write_results(payload, args.out)
    print(json.dumps(payload, indent=2))
    print(f"results written to {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
