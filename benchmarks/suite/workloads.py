"""The benchmark's workloads: three serve traffic mixes and one offline job.

Serve workloads drive :class:`~repro.serve.DetectionService` through the
in-process :class:`~repro.serve.ServeClient` (every request and reply
crosses the JSON wire encoding, no socket) at the default
:class:`~repro.serve.ServeConfig`, because the default is what users
run.  Each has two phases:

1. **Closed loop** (``autostart=False``): each round ingests 64 points
   per session, pumps until idle and collects.  The work is a fixed
   point count, so a run does the same work on every commit; one
   discarded warm-up repetition, then three timed ones, median reported.
2. **Open loop** (drain thread on): a generator sends each session's
   points on a fixed tick schedule at the offered rate whether or not
   the service keeps up, and on the same tick polls ``score(flush=False)``
   for each session with points outstanding.  A point's latency runs from
   its due time on the offered-rate schedule to the reply that carried
   its score.

``offline-table1`` is the researcher's Table III job: one SMD-like
series through one cell per Table I model, ``step_chunk`` in blocks of
256, then ``evaluate_result`` — a single-threaded baseline with no
serve layers.  Its latency is per point, from a copy of each fitted
detector fed one point at a time.

Every workload checks its outputs before it reports a number (see
:class:`BenchmarkError`).
"""

from __future__ import annotations

import copy
import gc
import hashlib
import math
import resource
import shutil
import statistics
import threading
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.config import DetectorConfig
from repro.core.registry import AlgorithmSpec, build_detector
from repro.core.types import TimeSeries
from repro.datasets.corpora import make_smd
from repro.experiments import evaluation
from repro.serve import DetectionService, ServeClient, ServeConfig
from repro.streaming.runner import StreamResult, run_stream

from speed import SpeedSampler
from trace import Tracer, percentile_ms

#: Detector hyper-parameters of every serve session (sent as the
#: ``create`` request's ``config`` dict).
SERVE_CONFIG = {"window": 16, "train_capacity": 64, "fit_epochs": 5, "kswin_check_every": 1}
N_CHANNELS = 4
#: Points per session that take a fresh session through its initial fit
#: (window + training-set capacity); ingested during set-up.
WARM = SERVE_CONFIG["window"] + SERVE_CONFIG["train_capacity"]
ROUND = 64
#: Points per session left ingested but unscored when ``durable-churn``
#: abandons its service.
IN_FLIGHT = 30
TIMED_REPS = 3


class BenchmarkError(RuntimeError):
    """An output did not match its reference; no metric may be printed."""


@dataclass(frozen=True)
class ServeWorkload:
    name: str
    spec: str
    sessions: int
    #: closed-loop pts/s this workload sustained at the commit that
    #: defined the benchmark; only sizes the fixed closed-loop work.
    sizing_rate: float
    #: open-loop offered load over all sessions, pts/s.
    offered_rate: float
    tick_s: float
    max_sessions: int = 64
    durable: bool = False
    #: open loop: sessions take turns in this many cohorts, each active
    #: for :data:`SLOT_S` at a time (a working set that rotates through
    #: the resident bound instead of churning at random).
    cohorts: int = 1


SERVE_WORKLOADS = {
    w.name: w
    for w in (
        # The one mix where the fused path (scheduler grouping ->
        # FleetEngine -> session-axis kernels) should do most of the work.
        # 12 ms ticks: with 8 ms ones the group flush that the 25 ms
        # coalescing delay starts 1 ms after a tick runs into the next
        # tick once it takes over 7 ms, blocking the generator's polls on
        # session locks, and p50 jumps between 26 and 44 ms run to run.
        # Offered at an eighth of capacity: at a quarter the flushes'
        # share of each point's latency follows the host's speed, and
        # over ten seeds run alternately with this rate p50 spread 9.6%
        # and p99 19.7%, against 2.1% and 13.5% here.
        ServeWorkload("fleet-steady", "ae+sw+musigma", 16, 13000.0, 2000.0, 0.012),
        # Task-2 dominates and KSWIN bypasses the fused path.  Offered at
        # about a quarter of capacity: at half, the host's slow speed mode
        # takes the drain near saturation and p99 swings 70-180 ms.
        ServeWorkload("kswin-paper", "ae+sw+kswin", 4, 1100.0, 300.0, 0.010),
        # Writes beside reads: WAL appends, barriers, spills and
        # rehydrations with three sessions per resident slot.  The open
        # loop rotates cohorts of 8 (the resident bound) once a second:
        # with every session always active the store hardly evicts, at
        # lower even rates runs flip between churning and not, and with
        # one session joining and one leaving every 125 ms instead, p50
        # spread 15% over eight seeds against 1.4% here.
        ServeWorkload(
            "durable-churn", "usad+ares+musigma", 24, 5700.0, 600.0, 0.010,
            max_sessions=8, durable=True, cohorts=3,
        ),
    )
}

#: One cell per Table I model.
OFFLINE_SPECS = (
    "online_arima+ures+musigma",
    "ae+sw+kswin",
    "usad+ares+musigma",
    "nbeats+ures+musigma",
    "pcb_iforest+sw+kswin",
)
OFFLINE_CHUNK = 256
#: Per-layer metrics read from the service or the open loop, not spans.
SERVE_ONLY_LAYER_METRICS = (
    "scheduler.queue_full",
    "wal.recover_s",
    "wal.replayed_pts",
    "state.evictions",
    "state.rehydrations",
    "fleet.fused_fraction",
    "gen.lag_p99_ms",
    "gen.backlog_pts",
)


def _seed_sequence(seed: int, name: str) -> np.random.SeedSequence:
    return np.random.SeedSequence([seed, zlib.crc32(name.encode())])


def fingerprint(arrays: list[np.ndarray]) -> str:
    digest = hashlib.blake2b(digest_size=16)
    for array in arrays:
        digest.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    return digest.hexdigest()


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# serve workloads
# ----------------------------------------------------------------------
def make_streams(w: ServeWorkload, seed: int, length: int) -> tuple[list[np.ndarray], list[int]]:
    """Per-session 4-channel sines plus N(0, 0.05) noise, and the two
    sessions the correctness gate checks.

    Periods sit on a fixed geometric grid over 24-96 steps, one per
    (session, channel), jittered +-3% by the seed; phases and noise come
    from the seed.  Free periods would make the work seed-dependent:
    KSWIN fine-tunes per session range 11-70 over 576 points with
    uniform random periods, but stay within +-2% on the grid.
    """
    rng = np.random.default_rng(_seed_sequence(seed, w.name))
    t = np.arange(length, dtype=np.float64)[:, None]
    n_periods = w.sessions * N_CHANNELS
    grid = 24.0 * 4.0 ** ((np.arange(n_periods) + 0.5) / n_periods)
    streams = []
    for s in range(w.sessions):
        period = grid[s * N_CHANNELS : (s + 1) * N_CHANNELS] * rng.uniform(0.97, 1.03, N_CHANNELS)
        phase = rng.uniform(0.0, 2.0 * np.pi, size=N_CHANNELS)
        noise = rng.normal(0.0, 0.05, size=(length, N_CHANNELS))
        streams.append(np.sin(2.0 * np.pi * t / period + phase) + noise)
    gate = sorted(int(s) for s in rng.choice(w.sessions, size=2, replace=False))
    return streams, gate


class Results:
    """Scores and nonconformities delivered per (session, seq).

    A seq delivered twice (a recovery re-emission) must carry the same
    bits both times; :meth:`check_exactly_once` then requires every seq
    below each session's cursor to have arrived.
    """

    def __init__(self, n_sessions: int, length: int) -> None:
        self.score = np.zeros((n_sessions, length))
        self.nonconformity = np.zeros((n_sessions, length))
        self.count = np.zeros((n_sessions, length), dtype=np.int64)
        self.n_delivered = [0] * n_sessions

    def add(self, s: int, results: list[dict]) -> None:
        for entry in results:
            seq = entry["seq"]
            pair = (float(entry["score"]), float(entry["nonconformity"]))
            if self.count[s, seq]:
                old = (self.score[s, seq], self.nonconformity[s, seq])
                if np.array(pair).tobytes() != np.array(old).tobytes():
                    raise BenchmarkError(
                        f"session {s} seq {seq} re-delivered with other values"
                    )
            else:
                self.score[s, seq], self.nonconformity[s, seq] = pair
                self.n_delivered[s] += 1
            self.count[s, seq] += 1

    def delivered(self, s: int) -> int:
        return self.n_delivered[s]

    def check_exactly_once(self, cursors: list[int], what: str) -> None:
        for s, cursor in enumerate(cursors):
            got = self.count[s] > 0
            if not got[:cursor].all() or got[cursor:].any():
                raise BenchmarkError(
                    f"{what}: session {s} is missing or over-delivered seqs "
                    f"(delivered {int(got.sum())} of {cursor})"
                )

    def arrays(self, cursor: int) -> list[np.ndarray]:
        return [self.score[:, :cursor], self.nonconformity[:, :cursor]]


class _Client:
    """Counts the requests a phase sends and the replies that failed."""

    def __init__(self, service: DetectionService) -> None:
        self.client = ServeClient(service)
        self.attempted = 0
        self.failed = 0

    def call(self, op: str, *args, **kwargs) -> dict[str, Any]:
        self.attempted += 1
        reply = getattr(self.client, op)(*args, **kwargs)
        if not reply.get("ok"):
            self.failed += 1
        return reply

    def must(self, op: str, *args, **kwargs) -> dict[str, Any]:
        reply = self.call(op, *args, **kwargs)
        if not reply.get("ok"):
            raise BenchmarkError(f"{op} failed: {reply.get('error')}")
        return reply


def _service(w: ServeWorkload, workdir: Path, autostart: bool) -> DetectionService:
    return DetectionService(
        ServeConfig(
            max_sessions=w.max_sessions,
            spill_dir=str(workdir / "spill"),
            wal_dir=str(workdir / "wal") if w.durable else None,
        ),
        autostart=autostart,
    )


def _names(w: ServeWorkload) -> list[str]:
    return [f"{w.name}-{s:02d}" for s in range(w.sessions)]


def _set_up(w, workdir, streams, results, autostart, clock):
    """Fresh service, every session created and warmed through its
    initial fit.  Returns ``(service, client, seconds)``."""
    started = clock.mark()
    service = _service(w, workdir, autostart)
    client = _Client(service)
    for s, name in enumerate(_names(w)):
        # One session at a time, so earlier sessions sit idle and the
        # store can spill them when the resident bound is reached.
        client.must("create", name, spec=w.spec, n_channels=N_CHANNELS, config=SERVE_CONFIG)
        client.must("ingest", name, streams[s][:WARM], expect=0)
        results.add(s, client.must("score", name, flush=True)["results"])
    return service, client, clock.seconds_since(started)


def closed_loop_rep(
    w: ServeWorkload, streams, n_points: int, workdir: Path, clock: SpeedSampler
) -> dict:
    """One closed-loop repetition over ``n_points`` points per session.

    Times come from ``clock`` (raw seconds unless it is sampling):
    ``rep_s`` covers the whole repetition, ``work_s`` is it on the
    probe-free span clock.
    """
    names = _names(w)
    end = WARM + n_points
    length = end + (IN_FLIGHT if w.durable else 0)
    results = Results(w.sessions, len(streams[0]))
    gc.collect()  # start every repetition from the same heap
    rep_started, work_started = clock.mark(), clock.work_ns()
    service, client, setup_s = _set_up(w, workdir, streams, results, False, clock)
    loop_started = clock.mark()
    for lo in range(WARM, end, ROUND):
        hi = min(lo + ROUND, end)
        for s, name in enumerate(names):
            client.must("ingest", name, streams[s][lo:hi], expect=lo)
            if w.durable:
                results.add(s, client.must("score", name, flush=True)["results"])
        if not w.durable:
            while service.pump():
                pass
            for s, name in enumerate(names):
                results.add(s, client.must("score", name, flush=False)["results"])
    loop_s = clock.seconds_since(loop_started)
    for s, name in enumerate(names):
        results.add(s, client.must("score", name, flush=True)["results"])
    counters = client.must("stats")["fleet"]["counters"]
    attempted = client.attempted
    recover_s = replayed = 0.0
    if w.durable:
        # Leave points in flight, then abandon the service without flush
        # or close (the on-disk state a crash leaves) and rebuild it over
        # the same directories.
        for s, name in enumerate(names):
            client.must("ingest", name, streams[s][end:length], expect=end)
        attempted = client.attempted
        service.shutdown()
        del service, client
        gc.collect()
        started = clock.mark()
        service = _service(w, workdir, autostart=False)
        recover_s = clock.seconds_since(started)
        recovered = service.telemetry.as_dict()["counters"]
        if recovered.get("wal_recovered", 0) != w.sessions:
            raise BenchmarkError(f"recovery restored {recovered} of {w.sessions} sessions")
        replayed = float(recovered.get("wal_replayed", 0))
        client = _Client(service)
        for s, name in enumerate(names):
            results.add(s, client.must("score", name, flush=True)["results"])
        attempted += client.attempted
    results.check_exactly_once([length] * w.sessions, f"{w.name} closed loop")
    service.shutdown()
    rep_s, work_s = clock.seconds_since(rep_started), (clock.work_ns() - work_started) / 1e9
    shutil.rmtree(workdir, ignore_errors=True)
    scored = counters.get("points_scored", 0)
    return {
        "results": results,
        "length": length,
        "setup_s": setup_s,
        "throughput": w.sessions * n_points / loop_s,
        "rep_s": rep_s,
        "work_s": work_s,
        "fused_fraction": counters.get("points_fused", 0) / scored if scored else 0.0,
        "evictions": float(counters.get("sessions_evicted", 0)),
        "rehydrations": float(counters.get("sessions_rehydrated", 0)),
        "queue_full": float(counters.get("ingest_rejected", 0)),
        "recover_s": recover_s,
        "replayed": replayed,
        "attempted": attempted,
        "fingerprint": fingerprint(results.arrays(length)),
    }


#: Open-loop lead-in whose points are served and checked but not timed:
#: the first second holds the drain thread's and fleet engines' start-up
#: and held the slowest 1% of points in most runs.
OPEN_WARM_S = 1.0
#: How long one cohort stays active before the next takes its turn.
SLOT_S = 1.0


def open_loop(w: ServeWorkload, streams, duration_s: float, workdir: Path) -> dict:
    """Offered-rate phase with the drain thread on, timed for
    ``duration_s`` after :data:`OPEN_WARM_S`."""
    names = _names(w)
    n_sessions = w.sessions
    limit = len(streams[0])
    results = Results(n_sessions, limit)
    gc.collect()
    service, client, _ = _set_up(w, workdir, streams, results, True, SpeedSampler())
    start = time.perf_counter() + w.tick_s
    timed_from = start + OPEN_WARM_S
    # Point j of session s is due at its own time on the offered-rate
    # schedule (sessions staggered by a fraction of a point) and goes
    # out on the first tick at or after it.  Timing from the due time
    # rather than the tick keeps the latency distribution continuous:
    # sends and polls share one tick grid, which alone would quantize
    # every latency to whole ticks.
    rate = w.offered_rate / n_sessions * w.cohorts  # while the session is active
    offsets = (np.arange(n_sessions) + 0.5) / n_sessions
    scheduled = np.full((n_sessions, limit), -np.inf)  # warm points: already sent
    for s in range(n_sessions):
        active = (np.arange(limit - WARM) + offsets[s]) / rate
        slots, within = np.divmod(active, SLOT_S)
        cohort_start = slots * w.cohorts * SLOT_S + (s % w.cohorts) * SLOT_S
        scheduled[s, WARM:] = start + cohort_start + within
    sent = [WARM] * n_sessions
    latencies: list[float] = []
    lags: list[float] = []
    max_threads = threading.active_count()

    def collect(s: int, flush: bool) -> None:
        reply = client.call("score", names[s], flush=flush)
        received = time.perf_counter()
        if reply.get("ok"):
            for entry in reply["results"]:
                due = scheduled[s, entry["seq"]]
                if due >= timed_from:
                    latencies.append(received - due)
            results.add(s, reply["results"])

    for k in range(int((OPEN_WARM_S + duration_s) / w.tick_s)):
        tick_at = start + k * w.tick_s
        now = time.perf_counter()
        if now < tick_at:
            time.sleep(tick_at - now)
        if tick_at >= timed_from:
            lags.append(time.perf_counter() - tick_at)
        for s in range(n_sessions):
            due = int(np.searchsorted(scheduled[s], tick_at, side="right"))
            if due > sent[s]:
                reply = client.call(
                    "ingest", names[s], streams[s][sent[s]:due], expect=sent[s]
                )
                if reply.get("ok"):
                    sent[s] = due
            # A client polls only for results it is waiting for: polls of
            # idle sessions compete with the drain for the interpreter.
            if results.delivered(s) < sent[s]:
                collect(s, flush=False)
        max_threads = max(max_threads, threading.active_count())
    backlog = sum(sent[s] - results.delivered(s) for s in range(n_sessions))
    deadline = time.perf_counter() + 30.0
    while time.perf_counter() < deadline:
        behind = [s for s in range(n_sessions) if results.delivered(s) < sent[s]]
        if not behind:
            break
        for s in behind:
            collect(s, flush=True)
    never_scored = sum(sent[s] - results.delivered(s) for s in range(n_sessions))
    service.shutdown()
    shutil.rmtree(workdir, ignore_errors=True)
    if max_threads > 2:
        raise BenchmarkError(f"open loop ran {max_threads} threads; the budget is 2")
    return {
        "results": results,
        "sent": sent,
        "latencies": np.asarray(latencies),
        "lags": np.asarray(lags),
        "backlog": float(backlog),
        "attempted": client.attempted,
        "failed": client.failed + never_scored,
    }


def _traced(repetition) -> tuple[Tracer, dict]:
    """Run ``repetition(clock)`` with every layer wrapped."""
    with SpeedSampler() as clock:
        tracer = Tracer(clock.work_ns)
        tracer.install()
        try:
            return tracer, repetition(clock)
        finally:
            tracer.uninstall()


def _gate_reference(w: ServeWorkload, stream: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    detector = build_detector(
        AlgorithmSpec(*w.spec.split("+")),
        n_channels=N_CHANNELS,
        config=DetectorConfig(**SERVE_CONFIG),
    )
    series = TimeSeries(values=stream, labels=np.zeros(len(stream), dtype=int))
    result = run_stream(detector, series, batch_size=1)
    return result.scores, result.nonconformities


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def run_serve(
    w: ServeWorkload, seed: int, seconds: float, traced: bool, smoke: bool,
    workdir: Path, trace_path: Path,
) -> dict:
    """Closed loop sized to take about ``seconds / 2`` over the timed
    repetitions, then an open loop of ``seconds``."""
    rounds = max(1, round(w.sizing_rate * seconds / 2 / TIMED_REPS / w.sessions / ROUND))
    n_points = rounds * ROUND
    open_s = seconds
    closed_length = WARM + n_points + (IN_FLIGHT if w.durable else 0)
    open_length = WARM + math.ceil(1.2 * w.offered_rate / w.sessions * (OPEN_WARM_S + open_s))
    streams, gate = make_streams(w, seed, max(closed_length, open_length))

    warm_up = 0 if smoke else 1  # discarded
    untraced_reps = warm_up + (1 if traced or smoke else TIMED_REPS)
    with SpeedSampler() as clock:
        reps = [
            closed_loop_rep(w, streams, n_points, workdir / f"rep{i}", clock)
            for i in range(untraced_reps)
        ]
    timed = reps[warm_up:]
    tracer = None
    if traced:
        tracer, rep = _traced(
            lambda clock: closed_loop_rep(w, streams, n_points, workdir / "traced", clock)
        )
        reps.append(rep)
    prints = {rep["fingerprint"] for rep in reps}
    if len(prints) != 1:
        raise BenchmarkError(f"closed-loop repetitions disagree: {sorted(prints)}")
    if traced and reps[-1]["fused_fraction"] != timed[0]["fused_fraction"]:
        raise BenchmarkError("tracing changed fleet.fused_fraction")

    loop = open_loop(w, streams, open_s, workdir / "open")
    closed = reps[0]["results"]
    for s in range(w.sessions):
        cursor = loop["sent"][s]
        overlap = min(cursor, closed_length)
        if not (
            _same_bits(loop["results"].score[s, :overlap], closed.score[s, :overlap])
            and _same_bits(
                loop["results"].nonconformity[s, :overlap],
                closed.nonconformity[s, :overlap],
            )
        ):
            raise BenchmarkError(f"open-loop session {s} differs from the closed loop")
    loop["results"].check_exactly_once(loop["sent"], f"{w.name} open loop")
    for s in gate:
        needed = max(closed_length, loop["sent"][s])
        ref_score, ref_nonconformity = _gate_reference(w, streams[s][:needed])
        for results, cursor in ((closed, closed_length), (loop["results"], loop["sent"][s])):
            if not (
                _same_bits(results.score[s, :cursor], ref_score[:cursor])
                and _same_bits(results.nonconformity[s, :cursor], ref_nonconformity[:cursor])
            ):
                raise BenchmarkError(
                    f"session {s} differs from run_stream(batch_size=1)"
                )

    latencies = loop["latencies"]
    record = {
        "fingerprint": reps[0]["fingerprint"],
        "attempted": sum(rep["attempted"] for rep in reps) + loop["attempted"],
        "failed": loop["failed"],
        "metrics": {
            "throughput_pts_s": _median([rep["throughput"] for rep in timed]),
            "latency_p50_ms": percentile_ms(latencies, 50),
            "latency_p99_ms": percentile_ms(latencies, 99),
            "setup_s": _median([rep["setup_s"] for rep in reps[:untraced_reps]]),
            "peak_rss_mb": peak_rss_mb(),
        },
        "detail": {
            "points_per_session": n_points,
            "latency_samples": int(len(latencies)),
            "open_loop_s": open_s,
            "fused_fraction": timed[0]["fused_fraction"],
            "gen.lag_p99_ms": percentile_ms(loop["lags"], 99),
            "gen.backlog_pts": loop["backlog"],
        },
    }
    if tracer is not None:
        traced_rep, plain = reps[-1], timed[0]
        n_scored = w.sessions * traced_rep["length"]
        layers = tracer.layer_metrics(n_scored, traced_rep["work_s"])
        layers.update(
            {
                "scheduler.queue_full": traced_rep["queue_full"],
                "wal.recover_s": traced_rep["recover_s"],
                "wal.replayed_pts": traced_rep["replayed"],
                "state.evictions": traced_rep["evictions"],
                "state.rehydrations": traced_rep["rehydrations"],
                "fleet.fused_fraction": traced_rep["fused_fraction"],
                "gen.lag_p99_ms": record["detail"]["gen.lag_p99_ms"],
                "gen.backlog_pts": loop["backlog"],
                "trace.overhead_frac": traced_rep["rep_s"] / plain["rep_s"] - 1.0,
            }
        )
        record["layers"] = layers
        record["layers_seen"] = sorted(tracer.layers_seen())
        tracer.write_jsonl(trace_path)
    return record


# ----------------------------------------------------------------------
# offline workload
# ----------------------------------------------------------------------
def offline_setup(seed: int, smoke: bool) -> tuple[TimeSeries, DetectorConfig]:
    """The Table III corpus config at one series (fewer fit epochs and
    one 256-step block past the initial fit keep a run within budget)."""
    config = DetectorConfig(
        window=24,
        train_capacity=96,
        initial_train_size=260,
        fit_epochs=2 if smoke else 5,
        kswin_check_every=8,
        scorer_k=48,
        scorer_k_short=6,
    )
    first_scored = config.window - 1 + config.initial_train_size
    series = make_smd(
        n_series=1,
        n_steps=first_scored + OFFLINE_CHUNK,
        clean_prefix=280,
        n_channels=8 if smoke else 38,
        seed=int(_seed_sequence(seed, "offline-table1").generate_state(1)[0]),
    )[0]
    return series, config


def offline_rep(series: TimeSeries, config: DetectorConfig, clock: SpeedSampler) -> dict:
    """Every Table I cell over the series, chunked, then evaluated.

    Each cell's fitted detector is also copied and stepped one point at
    a time past the fit, the way a stream consumer feeds it: those
    per-point times are the offline latencies, and the copy's outputs
    must equal the chunked ones bit for bit.  Times come from
    ``clock``, as in :func:`closed_loop_rep`."""
    values = series.values
    first_scored = config.window - 1 + config.initial_train_size
    setup_s = stream_s = 0.0
    point_ms: list[float] = []
    arrays: list[np.ndarray] = []
    calls = 0
    gc.collect()
    rep_started, work_started = clock.mark(), clock.work_ns()
    for label in OFFLINE_SPECS:
        t0 = clock.mark()
        detector = build_detector(
            AlgorithmSpec(*label.split("+")), n_channels=values.shape[1], config=config
        )
        a_parts, f_parts = [], []
        a, f, _, _ = detector.step_chunk(values[:first_scored])
        a_parts.append(a)
        f_parts.append(f)
        setup_s += clock.seconds_since(t0)
        twin = copy.deepcopy(detector)
        t1 = clock.mark()
        for lo in range(first_scored, len(values), OFFLINE_CHUNK):
            a, f, _, _ = detector.step_chunk(values[lo : lo + OFFLINE_CHUNK])
            a_parts.append(a)
            f_parts.append(f)
            calls += 1
        if detector.first_scored_step != first_scored:
            raise BenchmarkError(
                f"{label} first scored step {detector.first_scored_step}, "
                f"expected {first_scored}"
            )
        scores, nonconformities = np.concatenate(f_parts), np.concatenate(a_parts)
        evaluation.evaluate_result(
            StreamResult(
                series_name=series.name,
                algorithm=label,
                scores=scores,
                nonconformities=nonconformities,
                labels=series.labels,
                first_scored=first_scored,
                events=list(detector.events),
            )
        )
        calls += 2
        stream_s += clock.seconds_since(t1)
        arrays += [scores, nonconformities]
        a_parts, f_parts = [], []
        for t in range(first_scored, len(values)):
            p0 = clock.mark()
            a, f, _, _ = twin.step_chunk(values[t : t + 1])
            point_ms.append(1e3 * clock.seconds_since(p0))
            a_parts.append(a)
            f_parts.append(f)
            calls += 1
        if not (
            _same_bits(np.concatenate(f_parts), scores[first_scored:])
            and _same_bits(np.concatenate(a_parts), nonconformities[first_scored:])
        ):
            raise BenchmarkError(f"{label}: chunk {OFFLINE_CHUNK} differs from chunk 1")
    return {
        "arrays": arrays,
        "setup_s": setup_s,
        "throughput": len(OFFLINE_SPECS) * (len(values) - first_scored) / stream_s,
        "p50": float(np.percentile(point_ms, 50)),
        "p99": float(np.percentile(point_ms, 99)),
        "points": len(OFFLINE_SPECS) * len(values) + len(point_ms),
        "rep_s": clock.seconds_since(rep_started),
        "work_s": (clock.work_ns() - work_started) / 1e9,
        "attempted": calls,
        "fingerprint": fingerprint(arrays),
    }


def run_offline(seed: int, smoke: bool, traced: bool, trace_path: Path) -> dict:
    series, config = offline_setup(seed, smoke)
    # A traced run compares against the second untraced repetition: the
    # first pays one-off costs the traced one does not.
    untraced = 1 if smoke else 2 if traced else TIMED_REPS
    with SpeedSampler() as clock:
        reps = [offline_rep(series, config, clock) for _ in range(untraced)]
    tracer = None
    if traced:
        tracer, rep = _traced(lambda clock: offline_rep(series, config, clock))
        reps.append(rep)
    prints = {rep["fingerprint"] for rep in reps}
    if len(prints) != 1:
        raise BenchmarkError(f"offline repetitions disagree: {sorted(prints)}")
    # Chunk 256 must equal chunk 1 (the sequential reference).
    nbeats = OFFLINE_SPECS.index("nbeats+ures+musigma")
    detector = build_detector(
        AlgorithmSpec("nbeats", "ures", "musigma"),
        n_channels=series.values.shape[1],
        config=config,
    )
    reference = run_stream(detector, series, batch_size=1)
    if not (
        _same_bits(reference.scores, reps[0]["arrays"][2 * nbeats])
        and _same_bits(reference.nonconformities, reps[0]["arrays"][2 * nbeats + 1])
    ):
        raise BenchmarkError("nbeats+ures+musigma: chunk 256 differs from chunk 1")

    record = {
        "fingerprint": reps[0]["fingerprint"],
        "attempted": sum(rep["attempted"] for rep in reps),
        "failed": 0,
        "metrics": {
            "throughput_pts_s": _median([rep["throughput"] for rep in reps[:untraced]]),
            "latency_p50_ms": _median([rep["p50"] for rep in reps[:untraced]]),
            "latency_p99_ms": _median([rep["p99"] for rep in reps[:untraced]]),
            "setup_s": _median([rep["setup_s"] for rep in reps[:untraced]]),
            "peak_rss_mb": peak_rss_mb(),
        },
        "detail": {
            "steps_per_cell": len(series.values),
            "cells": len(OFFLINE_SPECS),
            "latency_samples": len(OFFLINE_SPECS) * OFFLINE_CHUNK,
        },
    }
    if tracer is not None:
        traced_rep = reps[-1]
        layers = tracer.layer_metrics(traced_rep["points"], traced_rep["work_s"])
        layers.update(dict.fromkeys(SERVE_ONLY_LAYER_METRICS, 0.0))
        layers["trace.overhead_frac"] = traced_rep["rep_s"] / reps[untraced - 1]["rep_s"] - 1.0
        record["layers"] = layers
        record["layers_seen"] = sorted(tracer.layers_seen())
        tracer.write_jsonl(trace_path)
    return record


def run(
    name: str, seed: int, seconds: float, traced: bool, smoke: bool,
    workdir: Path, trace_path: Path,
) -> dict:
    """Run one workload; returns its result record (raises
    :class:`BenchmarkError` when an output is wrong).  Service files go
    under ``workdir``; a traced run writes its spans to ``trace_path``."""
    if name == "offline-table1":
        return run_offline(seed, smoke, traced, trace_path)
    return run_serve(SERVE_WORKLOADS[name], seed, seconds, traced, smoke, workdir, trace_path)
