"""Crash-safe durability: WAL replay recovers in-flight state bitwise.

The acceptance property of :mod:`repro.serve.wal`: kill the serving
process at *any* point — mid-chunk, between a barrier checkpoint and its
log truncation, during an eviction, even with a torn half-written log
record — restart over the same directories, and the recovered score
sequence (scores, nonconformities, drift/fine-tune events) is bitwise
identical to a run that was never interrupted, with no sequence number
scored twice and replay cost bounded by the barrier interval.

In-process "crashes" abandon the service object without flush or close
(nothing on disk is touched, exactly what SIGKILL leaves behind); one
test kills a real worker process with SIGKILL through the sharded
router and lets the respawned worker self-recover.
"""

import dataclasses
import pickle
import struct
import zlib

import numpy as np
import pytest

from repro.core.config import DetectorConfig
from repro.core.exceptions import ConfigurationError
from repro.core.registry import AlgorithmSpec, build_detector
from repro.core.types import TimeSeries
from repro.serve import server as serve_server
from repro.serve import state as serve_state
from repro.serve import wal as serve_wal
from repro.serve import (
    DetectionService,
    RouterConfig,
    RouterService,
    ServeClient,
    ServeConfig,
    SessionWal,
    WalConfig,
    WalCorruption,
    barrier_filename,
    plan_replay,
    read_records,
    spill_filename,
    wal_filename,
)
from repro.streaming import run_stream
from repro.streaming.checkpoint import (
    peek_checkpoint,
    save_detector,
    transfer_checkpoint,
)

SPEC = ("ae", "sw", "kswin")
LABEL = "+".join(SPEC)

CONFIG = dict(
    window=6,
    train_capacity=24,
    fit_epochs=3,
    initial_train_size=40,
    kswin_check_every=1,
)

N = 240


def make_stream(n=N, seed=11):
    rng = np.random.default_rng(seed)
    t = np.arange(n, dtype=np.float64)
    values = np.stack(
        [np.sin(2 * np.pi * t / 30), np.cos(2 * np.pi * t / 30)], axis=1
    )
    values[n // 2 :] += 1.2
    return values + rng.normal(scale=0.08, size=values.shape)


_OFFLINE_CACHE: dict[bytes, object] = {}


def offline_reference(values):
    key = values.tobytes()
    if key not in _OFFLINE_CACHE:
        detector = build_detector(
            AlgorithmSpec(*SPEC), n_channels=2, config=DetectorConfig(**CONFIG)
        )
        series = TimeSeries(values=values, labels=np.zeros(len(values), dtype=int))
        _OFFLINE_CACHE[key] = run_stream(detector, series, batch_size=1)
    return _OFFLINE_CACHE[key]


def make_service(tmp_path, **overrides):
    defaults = dict(
        spill_dir=str(tmp_path / "spill"),
        wal_dir=str(tmp_path / "wal"),
        wal_barrier_interval=48,
        max_batch=16,
        max_delay_ms=0.0,
        detector=DetectorConfig(**CONFIG),
    )
    defaults.update(overrides)
    return DetectionService(ServeConfig(**defaults), autostart=False)


def stream_range(client, stream, values, start, stop, results, chunk=17):
    """Ingest ``values[start:stop]`` with the idempotent cursor and
    collect everything scored along the way into ``results``."""
    sent = start
    while sent < stop:
        reply = client.ingest(
            stream, values[sent : min(sent + chunk, stop)], expect=sent
        )
        assert reply["ok"], reply
        sent += reply["accepted"]
        reply = client.score(stream)
        assert reply["ok"], reply
        for result in reply["results"]:
            assert result["seq"] not in results, "sequence scored twice"
            results[result["seq"]] = result
    return sent


def drain(client, stream, results):
    reply = client.score(stream)
    assert reply["ok"], reply
    for result in reply["results"]:
        results.setdefault(result["seq"], result)


def assert_matches_reference(results, values):
    ref = offline_reference(values)
    n = len(values)
    assert sorted(results) == list(range(n))
    scores = np.array([results[i]["score"] for i in range(n)])
    ncs = np.array([results[i]["nonconformity"] for i in range(n)])
    assert np.array_equal(scores, ref.scores)
    assert np.array_equal(ncs, ref.nonconformities)
    # the fine-tune history round-tripped too: the served flags land on
    # exactly the steps where the offline run records events
    finetuned = {i for i in range(n) if results[i]["finetuned"]}
    assert finetuned == {e.t for e in ref.events}


# ----------------------------------------------------------------------
# log-format unit tests
# ----------------------------------------------------------------------
def test_wal_config_validation():
    with pytest.raises(ConfigurationError):
        WalConfig(dir="x", fsync="sometimes")
    with pytest.raises(ConfigurationError):
        WalConfig(dir="x", barrier_interval=0)


def test_wal_record_roundtrip_and_torn_tail(tmp_path):
    wal = SessionWal(WalConfig(dir=tmp_path), "stream-a")
    wal.open({"spec": LABEL, "n_channels": 2, "config": {}, "scorer": None})
    blocks = [np.arange(6, dtype=np.float64).reshape(3, 2) + i for i in range(4)]
    seq = 0
    for block in blocks:
        wal.append(seq, block)
        seq += len(block)
    wal.close(delete=False)

    records, good_bytes, torn = read_records(wal.path)
    assert not torn
    assert [r["kind"] for r in records] == ["open"] + ["ingest"] * 4
    for record, block in zip(records[1:], blocks):
        assert np.array_equal(record["rows"], block)

    # Tear the tail mid-record (a crash mid-append): the complete prefix
    # survives, the torn bytes are reported.
    size = wal.path.stat().st_size
    with open(wal.path, "rb+") as handle:
        handle.truncate(size - 5)
    records2, good2, torn2 = read_records(wal.path)
    assert torn2
    assert [r["kind"] for r in records2] == ["open"] + ["ingest"] * 3
    assert good2 < size - 5

    # A corrupted (bit-flipped) record also reads as a tear, stopping at
    # the last intact record — CRC catches silent corruption.
    data = bytearray(wal.path.read_bytes())
    data[good2 + 12] ^= 0xFF
    wal.path.write_bytes(bytes(data))
    records3, _, torn3 = read_records(wal.path)
    assert torn3 and len(records3) == len(records2)


def test_barrier_compaction_is_lazy(tmp_path):
    """Barriers advance the replay bound without rewriting the log until
    the stale prefix is worth reclaiming; a forced compaction truncates
    everything at or before the barrier clock."""
    detector = build_detector(
        AlgorithmSpec(*SPEC), n_channels=2, config=DetectorConfig(**CONFIG)
    )
    detector.step_chunk(make_stream(12))

    wal = SessionWal(WalConfig(dir=tmp_path, fsync="never"), "s")
    wal.open({"spec": LABEL, "n_channels": 2, "config": {}, "scorer": None})
    wal.append(0, make_stream(12))
    size_before = wal.path.stat().st_size
    assert wal.barrier(detector) == 0  # tiny log: no rewrite
    assert wal.barrier_t == detector.t
    assert wal.path.stat().st_size == size_before

    assert wal.barrier(detector, compact=True) == 12
    assert wal.path.stat().st_size < size_before
    records, _, torn = read_records(wal.path)
    assert not torn
    assert [r["kind"] for r in records] == ["open"]
    wal.close(delete=False)


def test_plan_replay_dedups_and_trims():
    def ingest(seq_from, n):
        return {
            "kind": "ingest",
            "seq_from": seq_from,
            "rows": np.zeros((n, 2)),
        }

    open_record = {"kind": "open", "stream": "s", "n_channels": 2}
    # duplicate replay (a retried append) + an overlap get dropped/trimmed
    records = [open_record, ingest(0, 4), ingest(0, 4), ingest(2, 4), ingest(6, 2)]
    meta, blocks, dropped = plan_replay(records, barrier_t=-1)
    assert meta["stream"] == "s"
    assert [(s, len(r)) for s, r in blocks] == [(0, 4), (4, 2), (6, 2)]
    assert dropped == 6

    # entries at or before the barrier clock are already scored
    meta, blocks, dropped = plan_replay(
        [open_record, ingest(0, 4), ingest(4, 4)], barrier_t=5
    )
    assert [(s, len(r)) for s, r in blocks] == [(6, 2)]
    assert dropped == 6

    # a gap is an acknowledged record gone missing: hard error
    with pytest.raises(WalCorruption):
        plan_replay([open_record, ingest(0, 4), ingest(6, 2)], barrier_t=-1)
    # as is a log with no open record
    with pytest.raises(WalCorruption):
        plan_replay([ingest(0, 4)], barrier_t=-1)


# ----------------------------------------------------------------------
# crash / recovery equivalence
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cut", [23, 52, 121, 170, 239])
def test_crash_recovery_bitwise_equal(tmp_path, cut):
    """Kill at an arbitrary stream position (some in flight), restart,
    finish: scores and events bitwise match an uninterrupted run."""
    values = make_stream()
    results: dict[int, dict] = {}

    service = make_service(tmp_path)
    client = ServeClient(service)
    assert client.create("s", spec=LABEL, n_channels=2, config=CONFIG)["ok"]
    sent = stream_range(client, "s", values, 0, cut, results)

    # Leave up to a chunk in flight, unscored and uncollected, then
    # "crash": abandon the service without flush/close — exactly the
    # on-disk state SIGKILL leaves.
    tail = min(sent + 13, N)
    reply = client.ingest("s", values[sent:tail], expect=sent)
    assert reply["ok"], reply
    del service, client

    restarted = make_service(tmp_path)
    counters = restarted.telemetry.as_dict()["counters"]
    assert counters.get("wal_recovered") == 1
    # Replay is bounded: at most one barrier interval plus what was in
    # flight at the kill.
    assert counters.get("wal_replayed", 0) <= 48 + 16 + 13
    client = ServeClient(restarted)
    drain(client, "s", results)  # re-emitted unacknowledged results
    stream_range(client, "s", values, tail, N, results)
    drain(client, "s", results)
    assert_matches_reference(results, values)

    # close drains leftovers into the reply and deletes the on-disk state
    reply = client.close("s")
    assert reply["ok"], reply
    assert list((tmp_path / "wal").glob("session-*")) == []


def test_parent_format_log_with_a_committed_swap_recovers_bitwise(tmp_path):
    """A log framed record by record in the on-disk format (an ``open``
    record with ``scorer: None``, ``ingest`` records, a committed
    ``swap`` record with its keys ``t``/``spec``/``config``/``scorer``/
    ``results``) recovers under the swapped recipe, bitwise against
    offline ``run_stream(batch_size=1)``."""
    values = make_stream()
    cut, n = 120, 200
    challenger = AlgorithmSpec("usad", "sw", "musigma")
    config = dataclasses.asdict(DetectorConfig(**CONFIG))
    records = [
        {"kind": "open", "stream": "p", "spec": LABEL, "n_channels": 2,
         "config": config, "scorer": None},
        {"kind": "ingest", "seq_from": 0, "rows": values[:cut]},
        {"kind": "swap", "stream": "p", "t": cut - 1, "spec": challenger.label,
         "config": config, "scorer": None, "results": []},
        {"kind": "ingest", "seq_from": cut, "rows": values[cut:n]},
    ]
    wal_dir = tmp_path / "wal"
    wal_dir.mkdir()
    with open(wal_dir / wal_filename("p"), "wb") as handle:
        for record in records:
            payload = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
            handle.write(struct.pack("<II", len(payload), zlib.crc32(payload)))
            handle.write(payload)
    # The swap's commit point: the challenger's checkpoint at the swap clock.
    swapped = build_detector(challenger, n_channels=2, config=DetectorConfig(**CONFIG))
    swapped.step_chunk(values[:cut])
    save_detector(swapped, wal_dir / barrier_filename("p"))

    service = make_service(tmp_path)
    assert service.telemetry.as_dict()["counters"].get("wal_recovered") == 1
    client = ServeClient(service)
    assert client.describe("p")["spec"] == challenger.label
    results: dict = {}
    drain(client, "p", results)
    assert sorted(results) == list(range(cut, n))
    reference = run_stream(
        build_detector(challenger, n_channels=2, config=DetectorConfig(**CONFIG)),
        TimeSeries(values=values[:n], labels=np.zeros(n, dtype=int)),
        batch_size=1,
    )
    for key, ref in (("score", reference.scores), ("nonconformity", reference.nonconformities)):
        got = np.array([results[seq][key] for seq in range(cut, n)])
        assert got.tobytes() == ref[cut:n].tobytes()
    service.shutdown()


def test_crash_between_barrier_and_truncation(tmp_path):
    """A new barrier checkpoint with an untruncated log replays clean:
    the already-scored entries dedup against the checkpoint's clock."""
    values = make_stream()
    results: dict[int, dict] = {}

    service = make_service(tmp_path)
    client = ServeClient(service)
    assert client.create("s", spec=LABEL, n_channels=2, config=CONFIG)["ok"]
    sent = stream_range(client, "s", values, 0, 150, results)

    # Simulate the torn barrier: checkpoint saved, crash before the log
    # compaction — by re-saving the barrier at the current clock and
    # leaving the log alone.
    session = service.store.get("s")
    with session.lock:
        save_detector(session.detector, session.wal.barrier_path, durable=True)
    del service, client

    restarted = make_service(tmp_path)
    counters = restarted.telemetry.as_dict()["counters"]
    assert counters.get("wal_recovered") == 1
    client = ServeClient(restarted)
    stream_range(client, "s", values, sent, N, results)
    drain(client, "s", results)
    assert_matches_reference(results, values)


def test_crash_during_eviction_window(tmp_path):
    """Evict (a barrier, no spill file), keep streaming, crash: recovery
    adopts the eviction's barrier checkpoint and replays the log past it."""
    values = make_stream()
    results: dict[int, dict] = {}

    service = make_service(tmp_path)
    client = ServeClient(service)
    assert client.create("s", spec=LABEL, n_channels=2, config=CONFIG)["ok"]
    sent = stream_range(client, "s", values, 0, 100, results)
    assert client.evict("s")["ok"]
    sent = stream_range(client, "s", values, sent, 130, results)
    del service, client

    restarted = make_service(tmp_path)
    assert restarted.telemetry.as_dict()["counters"].get("wal_recovered") == 1
    client = ServeClient(restarted)
    drain(client, "s", results)  # re-emitted replayed results
    stream_range(client, "s", values, sent, N, results)
    drain(client, "s", results)
    assert_matches_reference(results, values)


# ----------------------------------------------------------------------
# eviction is a barrier plus a drop from memory
# ----------------------------------------------------------------------
def test_logged_eviction_writes_one_checkpoint_and_no_spill(tmp_path, monkeypatch):
    """Three logged sessions over one resident slot churn through
    eviction and rehydration: every eviction saves exactly one
    checkpoint (its barrier), the spill directory never holds a spill
    file, and every stream stays bitwise equal to offline ``run_stream``."""
    service = make_service(tmp_path, max_sessions=1)
    client = ServeClient(service)
    saved = []

    def counting_save(detector, path, durable=False):
        saved.append(path)
        return save_detector(detector, path, durable=durable)

    monkeypatch.setattr(serve_wal, "save_detector", counting_save)
    monkeypatch.setattr(serve_state, "save_detector", counting_save)
    saves_per_eviction = []
    evict = service.store.evict

    def counting_evict(session):
        before, hydrated = len(saved), session.hydrated
        path = evict(session)
        if hydrated:
            saves_per_eviction.append(len(saved) - before)
            assert path == session.wal.barrier_path
        return path

    monkeypatch.setattr(service.store, "evict", counting_evict)

    streams = {f"s{k}": make_stream(seed=20 + k) for k in range(3)}
    results = {name: {} for name in streams}
    for name in streams:
        assert client.create(name, spec=LABEL, n_channels=2, config=CONFIG)["ok"]
    for lo in range(0, N, 40):
        for name, values in streams.items():
            stream_range(client, name, values, lo, min(lo + 40, N), results[name])
        assert list((tmp_path / "spill").glob("session-*.ckpt")) == []
    for name, values in streams.items():
        drain(client, name, results[name])
        assert_matches_reference(results[name], values)

    counters = service.telemetry.as_dict()["counters"]
    assert counters["sessions_evicted"] == len(saves_per_eviction) >= 2 * N // 40
    assert counters["sessions_rehydrated"] >= 2 * N // 40
    assert set(saves_per_eviction) == {1}
    assert list((tmp_path / "wal").glob("session-*.barrier.ckpt"))


def test_crash_right_after_eviction_recovers_from_the_barrier(tmp_path):
    """Evict, log a few more points without scoring them, abandon the
    service: the barrier checkpoint is the only one on disk, and
    recovery from it plus the log tail continues bitwise."""
    values = make_stream()
    results: dict[int, dict] = {}
    service = make_service(tmp_path)
    client = ServeClient(service)
    assert client.create("s", spec=LABEL, n_channels=2, config=CONFIG)["ok"]
    sent = stream_range(client, "s", values, 0, 100, results)
    reply = client.evict("s")
    assert reply["ok"], reply
    assert reply["spilled"] == str(service.store.get("s").wal.barrier_path)
    reply = client.ingest("s", values[sent : sent + 13], expect=sent)
    assert reply["ok"], reply
    sent += 13
    assert not service.store.get("s").hydrated  # the tail is unscored
    del service, client

    assert list((tmp_path / "spill").glob("session-*")) == []
    restarted = make_service(tmp_path)
    counters = restarted.telemetry.as_dict()["counters"]
    assert counters.get("wal_recovered") == 1
    assert counters.get("wal_replayed") == 13
    (entry,) = restarted.run_log.entries()
    assert entry["barrier_t"] == 99
    client = ServeClient(restarted)
    drain(client, "s", results)
    stream_range(client, "s", values, sent, N, results)
    drain(client, "s", results)
    assert_matches_reference(results, values)


def test_logged_stream_migrates_bitwise_and_leaves_no_checkpoint(tmp_path):
    """A router migration of a logged stream ships its barrier
    checkpoint: the stream continues bitwise on the target, and nothing
    of it stays behind on the source."""
    values = make_stream()
    worker_config = ServeConfig(
        max_delay_ms=5.0,
        wal_dir="wal",  # per-worker path assigned by the router
        wal_barrier_interval=48,
        detector=DetectorConfig(**CONFIG),
    )
    router = RouterService(
        RouterConfig(n_workers=2, spill_dir=str(tmp_path), worker=worker_config)
    )
    try:
        client = ServeClient(router)
        reply = client.create("m", spec=LABEL, n_channels=2, config=CONFIG)
        assert reply["ok"], reply
        source = router.workers[reply["worker"]]
        target = 1 - source.index
        results: dict[int, dict] = {}
        sent = stream_range(client, "m", values, 0, 130, results)
        outcome = router.migrate("m", target)
        assert outcome["moved"] and outcome["seq"] == sent
        stem = spill_filename("m").removesuffix(".ckpt")
        assert list(source.spill_dir.rglob(f"{stem}*")) == []
        stream_range(client, "m", values, sent, N, results)
        drain(client, "m", results)
        assert_matches_reference(results, values)
        assert router.owner_of("m") == target
    finally:
        router.shutdown()


# ----------------------------------------------------------------------
# one checkpoint per logged session: resume, id reuse, bounded replay
# ----------------------------------------------------------------------
def ship_evicted_stream(tmp_path, values, results, cut=100):
    """Serve ``values[:cut]`` under ``tmp_path / "source"``, evict, and
    copy the barrier checkpoint into ``tmp_path / "target"``'s spill
    directory — the router's migration leg.  Returns ``(sent, path)``."""
    source = make_service(tmp_path / "source")
    client = ServeClient(source)
    assert client.create("s", spec=LABEL, n_channels=2, config=CONFIG)["ok"]
    sent = stream_range(client, "s", values, 0, cut, results)
    reply = client.evict("s")
    assert reply["ok"], reply
    shipped = tmp_path / "target" / "spill" / spill_filename("s")
    assert int(transfer_checkpoint(reply["spilled"], shipped)["t"]) + 1 == sent
    return sent, shipped


def resume(client, seq):
    return client.request(
        "create", stream="s", spec=LABEL, n_channels=2, config=CONFIG,
        resume={"seq": seq},
    )


def drain_all(client, stream, results, n):
    """Collect until ``n`` results are in (a result_limit caps each flush)."""
    while len(results) < n:
        before = len(results)
        drain(client, stream, results)
        assert len(results) > before, "drain made no progress"


def test_fresh_log_discards_a_stale_barrier(tmp_path, monkeypatch):
    """A crash inside close after the log is unlinked leaves its barrier
    behind.  A fresh session on the same stream id must not anchor its
    recovery on that barrier: acknowledged points would be dropped as
    already scored and their resend acknowledged as a duplicate."""
    values = make_stream()
    service = make_service(tmp_path)
    client = ServeClient(service)
    assert client.create("s", spec=LABEL, n_channels=2, config=CONFIG)["ok"]
    stream_range(client, "s", values, 0, 100, {})

    def unlink_log_then_crash(self, delete=True):
        self.path.unlink()
        raise RuntimeError("injected crash between the log and barrier unlinks")

    monkeypatch.setattr(SessionWal, "close", unlink_log_then_crash)
    assert not client.close("s")["ok"]  # the injected crash surfaced
    monkeypatch.undo()
    wal_dir = tmp_path / "wal"
    assert (wal_dir / barrier_filename("s")).exists()
    assert not (wal_dir / wal_filename("s")).exists()
    del service, client

    reused = make_service(tmp_path)
    client = ServeClient(reused)
    assert client.create("s", spec=LABEL, n_channels=2, config=CONFIG)["ok"]
    assert client.ingest("s", values[:20], expect=0)["ok"]  # never scored
    del reused, client

    restarted = make_service(tmp_path)
    assert restarted.store.get("s").seq == 20
    client = ServeClient(restarted)
    reply = client.ingest("s", values[20:40], expect=20)
    assert reply["ok"] and "duplicate" not in reply, reply
    results: dict[int, dict] = {}
    drain(client, "s", results)
    stream_range(client, "s", values, 40, N, results)
    drain(client, "s", results)
    assert_matches_reference(results, values)


def test_interrupted_resume_leaves_no_session_behind(tmp_path, monkeypatch):
    """A crash inside ``create(resume)``, right after the shipped
    checkpoint lands in the barrier slot, was never acknowledged: the
    restart brings back no session and no log, keeps the shipped file
    as an orphaned spill, and a retried resume continues bitwise."""
    values = make_stream()
    results: dict[int, dict] = {}
    sent, shipped = ship_evicted_stream(tmp_path, values, results)

    def copy_then_crash(src, dst, durable=False):
        meta = transfer_checkpoint(src, dst, durable=durable)
        assert int(meta["t"]) + 1 == sent
        raise RuntimeError("injected crash after the barrier copy")

    # Patch the copy wherever the serve layer imported it.
    for module in (serve_server, serve_wal):
        if hasattr(module, "transfer_checkpoint"):
            monkeypatch.setattr(module, "transfer_checkpoint", copy_then_crash)
    target = make_service(tmp_path / "target")
    assert not resume(ServeClient(target), sent)["ok"]
    monkeypatch.undo()
    assert (tmp_path / "target" / "wal" / barrier_filename("s")).exists()
    del target

    restarted = make_service(tmp_path / "target")
    assert len(restarted.store) == 0
    assert not (tmp_path / "target" / "wal" / wal_filename("s")).exists()
    assert restarted.store.orphaned_spills == [shipped]
    client = ServeClient(restarted)
    reply = resume(client, sent)
    assert reply["ok"] and reply["seq"] == sent, reply
    stream_range(client, "s", values, sent, N, results)
    drain(client, "s", results)
    assert_matches_reference(results, values)


def test_logged_resume_keeps_one_checkpoint(tmp_path):
    """A logged ``create(resume)`` installs the shipped checkpoint as its
    barrier: no spill stays behind, ``describe`` lists the barrier alone,
    and a crash before the first flush recovers from it bitwise."""
    values = make_stream()
    results: dict[int, dict] = {}
    sent, shipped = ship_evicted_stream(tmp_path, values, results)

    target = make_service(tmp_path / "target")
    client = ServeClient(target)
    reply = resume(client, sent)
    assert reply["ok"] and reply["seq"] == sent, reply
    assert not shipped.exists()
    assert list((tmp_path / "target" / "spill").glob("session-*.ckpt")) == []
    barrier = target.store.get("s").wal.barrier_path
    assert int(peek_checkpoint(barrier)["t"]) == sent - 1
    checkpoints = client.describe("s")["checkpoints"]
    assert list(checkpoints) == ["barrier"]
    assert checkpoints["barrier"]["t"] == sent - 1
    # in flight and unscored, then a crash before the first flush
    assert client.ingest("s", values[sent : sent + 13], expect=sent)["ok"]
    del target, client

    restarted = make_service(tmp_path / "target")
    counters = restarted.telemetry.as_dict()["counters"]
    assert counters.get("wal_recovered") == 1
    assert counters.get("wal_replayed") == 13
    client = ServeClient(restarted)
    drain(client, "s", results)
    stream_range(client, "s", values, sent + 13, N, results)
    drain(client, "s", results)
    assert_matches_reference(results, values)


def test_replay_honours_result_limit(tmp_path):
    """Replay drains through the scheduler, so a full result buffer
    stops it: recovery buffers at most ``result_limit`` results and
    leaves the rest queued, and the stream still completes bitwise."""
    values = make_stream()
    service = make_service(tmp_path, result_limit=16)
    client = ServeClient(service)
    assert client.create("s", spec=LABEL, n_channels=2, config=CONFIG)["ok"]
    for lo in range(0, 120, 20):  # logged, never scored
        assert client.ingest("s", values[lo : lo + 20], expect=lo)["ok"]
    del service, client

    restarted = make_service(tmp_path, result_limit=16)
    assert restarted.telemetry.as_dict()["counters"].get("wal_replayed") == 120
    session = restarted.store.get("s")
    assert session.n_results == 16
    assert session.queue_depth == 120 - 16
    client = ServeClient(restarted)
    results: dict[int, dict] = {}
    drain_all(client, "s", results, 120)
    stream_range(client, "s", values, 120, N, results)
    drain_all(client, "s", results, N)
    assert_matches_reference(results, values)


def test_torn_tail_recovery(tmp_path):
    """Truncate the log mid-record (crash mid-append): the torn block
    was never acknowledged, so recovery proceeds without it and the
    client's normal resend completes the stream."""
    values = make_stream()
    results: dict[int, dict] = {}

    service = make_service(tmp_path)
    client = ServeClient(service)
    assert client.create("s", spec=LABEL, n_channels=2, config=CONFIG)["ok"]
    sent = stream_range(client, "s", values, 0, 90, results)
    del service, client

    wal_path = tmp_path / "wal" / wal_filename("s")
    size = wal_path.stat().st_size
    with open(wal_path, "rb+") as handle:
        handle.truncate(size - 7)

    restarted = make_service(tmp_path)
    counters = restarted.telemetry.as_dict()["counters"]
    assert counters.get("wal_recovered") == 1
    assert counters.get("wal_torn_tails") == 1
    client = ServeClient(restarted)
    drain(client, "s", results)
    # the torn block's points were lost pre-ack: find the resend cursor
    recovered_seq = restarted.store.get("s").seq
    assert recovered_seq <= sent
    for seq in range(recovered_seq, sent):
        results.pop(seq, None)
    stream_range(client, "s", values, recovered_seq, N, results)
    drain(client, "s", results)
    assert_matches_reference(results, values)


def test_corrupt_log_reported_not_fatal(tmp_path):
    """A log recovery cannot repair (a gap) is left on disk, counted,
    and the service still starts."""
    values = make_stream()
    service = make_service(tmp_path)
    client = ServeClient(service)
    assert client.create("s", spec=LABEL, n_channels=2, config=CONFIG)["ok"]
    stream_range(client, "s", values, 0, 40, {})
    del service, client

    # Surgically remove a middle ingest record to fake a gap.
    wal_path = tmp_path / "wal" / wal_filename("s")
    frame = struct.Struct("<II")
    data = wal_path.read_bytes()
    spans = []
    offset = 0
    while offset < len(data):
        length, _ = frame.unpack_from(data, offset)
        spans.append((offset, offset + frame.size + length))
        offset += frame.size + length
    assert len(spans) >= 4
    start, end = spans[2]
    wal_path.write_bytes(data[:start] + data[end:])

    restarted = make_service(tmp_path)
    counters = restarted.telemetry.as_dict()["counters"]
    assert counters.get("wal_recovery_failed") == 1
    assert "wal_recovered" not in counters
    assert wal_path.exists()  # left for the operator
    assert restarted.stats_payload()["orphaned_wals"] == [wal_path.name]


# ----------------------------------------------------------------------
# idempotent ingest + close ordering
# ----------------------------------------------------------------------
def test_ingest_idempotent_replay(tmp_path):
    values = make_stream()
    service = make_service(tmp_path)
    client = ServeClient(service)
    assert client.create("s", spec=LABEL, n_channels=2, config=CONFIG)["ok"]

    first = client.ingest("s", values[:20], expect=0)
    assert first["ok"] and "duplicate" not in first

    # exact replay of an acknowledged block: dropped, re-acked
    replay = client.ingest("s", values[:20], expect=0)
    assert replay["ok"] and replay["duplicate"] is True
    assert (replay["seq_from"], replay["seq_to"]) == (0, 19)

    # a gapped or partially overlapping ingest is a protocol violation
    gapped = client.ingest("s", values[30:40], expect=30)
    assert not gapped["ok"] and gapped["error"]["type"] == "bad_points"
    overlapping = client.ingest("s", values[10:40], expect=10)
    assert not overlapping["ok"]

    # nothing was double-enqueued: the stream completes bitwise-equal
    results: dict[int, dict] = {}
    drain(client, "s", results)
    stream_range(client, "s", values, 20, N, results)
    drain(client, "s", results)
    assert_matches_reference(results, values)
    counters = service.telemetry.as_dict()["counters"]
    assert counters.get("ingest_deduped") == 1


def test_close_deletes_files_last(tmp_path, monkeypatch):
    """A crash injected between close's bookkeeping and the file
    deletion leaves a recoverable stream: the final barrier ran first,
    so the detector state survives at the stream's exact clock."""
    values = make_stream()
    service = make_service(tmp_path)
    client = ServeClient(service)
    assert client.create("s", spec=LABEL, n_channels=2, config=CONFIG)["ok"]
    reply = client.ingest("s", values[:60], expect=0)
    assert reply["ok"], reply

    def explode(session):
        raise RuntimeError("injected crash before deletion")

    monkeypatch.setattr(service.store, "_delete_session_files", explode)
    reply = client.close("s")
    assert not reply["ok"]  # the injected crash surfaced
    monkeypatch.undo()

    wal_path = tmp_path / "wal" / wal_filename("s")
    assert wal_path.exists(), "crash mid-close must leave the log on disk"

    restarted = make_service(tmp_path)
    assert restarted.telemetry.as_dict()["counters"].get("wal_recovered") == 1
    session = restarted.store.get("s")
    assert session.seq == 60  # every acknowledged point survived

    # the recovered detector continues bitwise-on-track from seq 60
    ref = offline_reference(values)
    client = ServeClient(restarted)
    results: dict[int, dict] = {}
    drain(client, "s", results)
    stream_range(client, "s", values, 60, N, results)
    drain(client, "s", results)
    tail = sorted(seq for seq in results if seq >= 60)
    assert tail == list(range(60, N))
    scores = np.array([results[seq]["score"] for seq in tail])
    assert np.array_equal(scores, ref.scores[60:])

    # a clean close drains leftovers into the reply and deletes files
    reply = client.close("s")
    assert reply["ok"], reply
    assert reply["results"] == []
    assert not wal_path.exists()
    assert list((tmp_path / "spill").glob("session-*")) == []


def test_run_log_deterministic_across_recovery(tmp_path):
    """The run log holds only logical state — two recovered runs over the
    same WAL produce identical entries."""
    values = make_stream()
    for round_dir in ("a", "b"):
        root = tmp_path / round_dir
        service = make_service(root)
        client = ServeClient(service)
        assert client.create("s", spec=LABEL, n_channels=2, config=CONFIG)["ok"]
        stream_range(client, "s", values, 0, 80, {})
        del service, client
    logs = []
    for round_dir in ("a", "b"):
        restarted = make_service(tmp_path / round_dir)
        logs.append(restarted.run_log.entries())
    assert logs[0] == logs[1]
    assert [entry["kind"] for entry in logs[0]] == ["session_recovered"]


# ----------------------------------------------------------------------
# real SIGKILL through the sharded router
# ----------------------------------------------------------------------
@pytest.mark.slow
def test_sigkill_worker_self_recovers_bitwise(tmp_path):
    values = make_stream()
    worker_config = ServeConfig(
        max_delay_ms=5.0,
        wal_dir="wal",  # per-worker path assigned by the router
        wal_barrier_interval=48,
        detector=DetectorConfig(**CONFIG),
    )
    router = RouterService(
        RouterConfig(n_workers=2, spill_dir=str(tmp_path), worker=worker_config)
    )
    try:
        client = ServeClient(router)
        reply = client.create("s", spec=LABEL, n_channels=2, config=CONFIG)
        assert reply["ok"], reply
        owner = reply["worker"]

        results: dict[int, dict] = {}
        sent = stream_range(client, "s", values, 0, 140, results)
        # in-flight points, then SIGKILL — no evict, no flush, no mercy
        reply = client.ingest("s", values[sent : sent + 20], expect=sent)
        assert reply["ok"], reply
        sent += 20
        router.workers[owner].kill()
        assert not router.workers[owner].alive()

        drain(client, "s", results)  # heals the worker, replays the log
        stream_range(client, "s", values, sent, N, results)
        drain(client, "s", results)
        assert_matches_reference(results, values)

        counters = router.telemetry.counters
        assert counters.get("workers_respawned") == 1
        assert counters.get("streams_recovered") == 1
        assert "streams_restarted" not in counters
    finally:
        router.shutdown()
