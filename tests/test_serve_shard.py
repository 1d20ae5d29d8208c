"""Sharded-fleet equivalence: routed scores == offline ``run_stream``.

The acceptance property of :mod:`repro.serve.router`: scores served
through the consistent-hash router over real worker *processes* are
bitwise identical to an offline sequential reference — through any mix
of live migrations between shards, a worker being hard-killed and
respawned mid-stream, and a latency-triggered rebalance.  The fleet adds
process boundaries, spill-file transfers and resume-``create`` on top of
the single-service path ``tests/test_serve_e2e.py`` pins; nothing in
that stack is allowed to perturb a single float.

Also pins the routing substrate (``HashRing`` determinism, balance and
minimal remapping on node loss), the session store's crash-recovery
surface (orphaned-spill sweep, spill-filename collision guard) and the
fleet ``stats`` rollup (union latency percentiles, summed counters).

These tests spawn real subprocesses; everything is kept small (short
streams, tiny detectors) so the whole module stays in tens of seconds.
"""

import time
from collections import Counter

import numpy as np
import pytest

from repro.core.config import DetectorConfig
from repro.core.exceptions import ReproError
from repro.core.registry import AlgorithmSpec, build_detector
from repro.core.types import TimeSeries
from repro.serve import (
    DetectionService,
    HashRing,
    RouterConfig,
    RouterService,
    ServeClient,
    ServeConfig,
    SessionStore,
    SpillCollisionError,
    spill_filename,
)
from repro.serve import state as serve_state
from repro.streaming import run_stream
from repro.streaming.checkpoint import save_detector

SPEC = ("ae", "sw", "kswin")

CONFIG = dict(
    window=6,
    train_capacity=24,
    fit_epochs=3,
    initial_train_size=40,
    kswin_check_every=1,
)


def make_stream(n=240, seed=3):
    rng = np.random.default_rng(seed)
    t = np.arange(n, dtype=np.float64)
    values = np.stack(
        [np.sin(2 * np.pi * t / 30), np.cos(2 * np.pi * t / 30)], axis=1
    )
    values[n // 2 :] *= 2.5
    return values + rng.normal(scale=0.08, size=values.shape)


_OFFLINE_CACHE: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}


def offline_reference(spec, values):
    key = (spec, len(values))
    if key not in _OFFLINE_CACHE:
        detector = build_detector(
            AlgorithmSpec(*spec), n_channels=2, config=DetectorConfig(**CONFIG)
        )
        series = TimeSeries(values=values, labels=np.zeros(len(values), dtype=int))
        result = run_stream(detector, series, batch_size=1)
        _OFFLINE_CACHE[key] = (result.scores, result.nonconformities)
    return _OFFLINE_CACHE[key]


@pytest.fixture
def fleet(tmp_path):
    """A 2-worker router fleet (torn down even when a test fails)."""

    def build(**overrides):
        defaults = dict(
            n_workers=2,
            spill_dir=str(tmp_path / "fleet"),
            worker=ServeConfig(
                max_delay_ms=5.0,
                max_batch=32,
                detector=DetectorConfig(**CONFIG),
            ),
        )
        defaults.update(overrides)
        router = RouterService(RouterConfig(**defaults))
        routers.append(router)
        return router

    routers: list[RouterService] = []
    try:
        yield build
    finally:
        for router in routers:
            router.shutdown()


def stream_through(
    client,
    stream,
    values,
    start_seq=0,
    ingest_size=50,
    action_at=None,
    action=None,
):
    """Ingest ``values`` and collect every score, in seq order.

    ``action`` (e.g. a migration, or killing a worker) fires once, after
    ``action_at`` points have been accepted.  ``start_seq`` aligns a
    continuation slice with the server's absolute sequence numbers.
    """
    n = len(values)
    by_seq: dict[int, dict] = {}
    sent = 0
    fired = action is None
    while len(by_seq) < n:
        if not fired and sent >= action_at:
            action()
            fired = True
        if sent < n:
            reply = client.ingest(stream, values[sent : sent + ingest_size])
            if reply.get("ok"):
                sent += reply["accepted"]
            else:
                error = reply.get("error", {})
                assert error.get("type") == "queue_full", reply
                time.sleep(float(error.get("retry_after", 0.01)))
        reply = client.score(stream, flush=True)
        assert reply.get("ok"), reply
        for result in reply["results"]:
            by_seq[result["seq"] - start_seq] = result
    scores = np.array([by_seq[i]["score"] for i in range(n)])
    nonconformities = np.array([by_seq[i]["nonconformity"] for i in range(n)])
    return scores, nonconformities


# ----------------------------------------------------------------------
# the hash ring
# ----------------------------------------------------------------------
def test_hash_ring_is_deterministic_and_balanced():
    nodes = [f"worker-{i}" for i in range(4)]
    ring = HashRing(nodes)
    keys = [f"stream-{i}" for i in range(2000)]
    owners = [ring.lookup(key) for key in keys]
    assert owners == [HashRing(nodes).lookup(key) for key in keys]
    share = Counter(owners)
    assert set(share) == set(nodes), "some node owns no keys"
    assert min(share.values()) > 0.5 * len(keys) / len(nodes), (
        f"load split too skewed: {share}"
    )


def test_hash_ring_remaps_only_the_lost_nodes_keys():
    nodes = [f"worker-{i}" for i in range(4)]
    before = HashRing(nodes)
    after = HashRing(nodes[:-1])
    keys = [f"stream-{i}" for i in range(2000)]
    moved = sum(
        1
        for key in keys
        if before.lookup(key) != "worker-3"
        and before.lookup(key) != after.lookup(key)
    )
    assert moved == 0, (
        f"{moved} keys not owned by the removed node were remapped"
    )


# ----------------------------------------------------------------------
# the store's crash-recovery surface
# ----------------------------------------------------------------------
def test_startup_sweep_reports_orphaned_spills(tmp_path):
    detector = build_detector(
        AlgorithmSpec(*SPEC), n_channels=2, config=DetectorConfig(**CONFIG)
    )
    store = SessionStore(tmp_path)
    session = store.create("crashed", detector, n_channels=2)
    path = store.evict(session)
    assert path.exists()

    reborn = SessionStore(tmp_path)  # same dir, fresh process in spirit
    assert reborn.orphaned_spills == [path]
    adopted = reborn.adopt("crashed", n_channels=2, seq=0)
    assert adopted.spill_path == path
    assert reborn.orphaned_spills == []


def test_adopt_without_a_spill_is_refused(tmp_path):
    store = SessionStore(tmp_path)
    with pytest.raises(ReproError, match="no spill checkpoint"):
        store.adopt("never-spilled", n_channels=2, seq=0)


@pytest.mark.parametrize("wal", [False, True], ids=["spill", "wal"])
def test_resume_seq_must_continue_the_checkpoint(tmp_path, wal):
    """A ``resume.seq`` other than the shipped checkpoint's ``t + 1``
    would relabel the detector's steps; it is refused as ``bad_config``
    before any file moves, and a corrected retry continues bitwise."""
    values = make_stream()
    detector = build_detector(
        AlgorithmSpec(*SPEC), n_channels=2, config=DetectorConfig(**CONFIG)
    )
    detector.step_chunk(values[:100])  # t = 99
    shipped = tmp_path / "spill" / spill_filename("r")
    shipped.parent.mkdir()
    save_detector(detector, shipped)
    service = DetectionService(
        ServeConfig(
            spill_dir=str(tmp_path / "spill"),
            wal_dir=str(tmp_path / "wal") if wal else None,
            detector=DetectorConfig(**CONFIG),
        ),
        autostart=False,
    )
    client = ServeClient(service)
    fields = dict(stream="r", spec="+".join(SPEC), n_channels=2, config=CONFIG)

    reply = client.request("create", resume={"seq": 40}, **fields)
    assert not reply["ok"]
    assert reply["error"]["type"] == "bad_config"
    assert len(service.store) == 0
    assert shipped.exists()
    if wal:
        assert list((tmp_path / "wal").iterdir()) == []

    reply = client.request("create", resume={"seq": 100}, **fields)
    assert reply["ok"] and reply["seq"] == 100, reply
    assert client.ingest("r", values[100:105], expect=100)["ok"]
    results = client.score("r")["results"]
    assert [result["seq"] for result in results] == list(range(100, 105))
    ref_scores, _ = offline_reference(SPEC, values)
    scores = np.array([result["score"] for result in results])
    assert np.array_equal(scores, ref_scores[100:105])
    service.shutdown()


def test_spill_filename_collision_is_refused(tmp_path, monkeypatch):
    monkeypatch.setattr(
        serve_state, "spill_filename", lambda stream_id: "session-same.ckpt"
    )
    detector = build_detector(
        AlgorithmSpec(*SPEC), n_channels=2, config=DetectorConfig(**CONFIG)
    )
    store = SessionStore(tmp_path)
    store.create("first", detector, n_channels=2)
    with pytest.raises(SpillCollisionError, match="refusing to share"):
        store.create("second", None, n_channels=2)


# ----------------------------------------------------------------------
# the fleet
# ----------------------------------------------------------------------
def test_routed_scores_bitwise_equal_offline_through_migration(fleet):
    """Half the stream on one shard, a live migration, the rest on the
    other — every score identical to the never-migrated offline run."""
    values = make_stream()
    ref_scores, ref_nc = offline_reference(SPEC, values)
    router = fleet()
    client = ServeClient(router)

    reply = client.create("mig", spec="+".join(SPEC), n_channels=2)
    assert reply.get("ok"), reply
    source = reply["worker"]
    target = 1 - source
    cut = len(values) // 2

    s1, n1 = stream_through(client, "mig", values[:cut])
    outcome = router.migrate("mig", target)
    assert outcome["moved"] and outcome["seq"] == cut
    assert router.owner_of("mig") == target
    s2, n2 = stream_through(client, "mig", values[cut:], start_seq=cut)

    assert np.array_equal(np.concatenate([s1, s2]), ref_scores)
    assert np.array_equal(np.concatenate([n1, n2]), ref_nc)
    assert router.telemetry.counters.get("sessions_migrated") == 1

    # A no-op migration (already on the target) is reported, not done.
    assert router.migrate("mig", target) == {
        "stream": "mig", "from": target, "to": target, "moved": False,
    }


def test_mid_stream_migration_under_ingest_pressure(fleet):
    """Migration injected *between* ingest slices of one client loop —
    the realistic shape, with buffered results crossing the move."""
    values = make_stream()
    ref_scores, _ = offline_reference(SPEC, values)
    router = fleet()
    client = ServeClient(router)
    reply = client.create("hot", spec="+".join(SPEC), n_channels=2)
    target = 1 - reply["worker"]

    scores, _ = stream_through(
        client,
        "hot",
        values,
        ingest_size=37,
        action_at=len(values) // 3,
        action=lambda: router.migrate("hot", target),
    )
    assert np.array_equal(scores, ref_scores)
    assert router.owner_of("hot") == target


def test_worker_kill_and_respawn_recovers_from_spill(fleet):
    """Hard-kill the owning worker after a spill; the next request
    respawns it, re-homes the stream, and scores stay bitwise equal."""
    values = make_stream()
    ref_scores, _ = offline_reference(SPEC, values)
    router = fleet()
    client = ServeClient(router)
    reply = client.create("frag", spec="+".join(SPEC), n_channels=2)
    owner = reply["worker"]
    cut = len(values) // 2

    s1, _ = stream_through(client, "frag", values[:cut])
    assert client.evict("frag").get("ok")  # durability point
    router.workers[owner].kill()
    assert not router.workers[owner].alive()

    s2, _ = stream_through(client, "frag", values[cut:], start_seq=cut)
    assert np.array_equal(np.concatenate([s1, s2]), ref_scores)
    assert router.workers[owner].alive()
    assert router.workers[owner].respawns == 1
    counters = router.telemetry.counters
    assert counters.get("workers_respawned") == 1
    assert counters.get("streams_recovered") == 1
    assert "streams_restarted" not in counters


def test_latency_rebalance_migrates_off_the_hot_shard(fleet):
    """With a sub-nanosecond p99 threshold every loaded shard is hot;
    ``check_rebalance`` moves the stream to the empty shard and the
    stream keeps scoring bitwise-correctly there."""
    values = make_stream()
    ref_scores, _ = offline_reference(SPEC, values)
    router = fleet(hot_p99_s=1e-9, rebalance_max_moves=1)
    client = ServeClient(router)
    reply = client.create("busy", spec="+".join(SPEC), n_channels=2)
    source = reply["worker"]
    cut = len(values) // 2

    s1, _ = stream_through(client, "busy", values[:cut])
    outcome = router.check_rebalance()
    assert outcome["moved"] == ["busy"] and source in outcome["hot"]
    assert router.owner_of("busy") == 1 - source

    s2, _ = stream_through(client, "busy", values[cut:], start_seq=cut)
    assert np.array_equal(np.concatenate([s1, s2]), ref_scores)
    assert router.telemetry.counters.get("rebalances") == 1


def test_fleet_stats_rollup_merges_workers(fleet):
    """Counters sum across shards and the fleet ingest-latency
    percentiles come from the union of the sessions' samples."""
    values = make_stream(n=120)
    router = fleet()
    client = ServeClient(router)
    streams = [f"stat-{i}" for i in range(4)]
    owners = set()
    for stream in streams:
        reply = client.create(stream, spec="+".join(SPEC), n_channels=2)
        assert reply.get("ok"), reply
        owners.add(reply["worker"])
        stream_through(client, stream, values)
    assert owners == {0, 1}, "pick stream ids that land on both shards"

    stats = client.stats()
    assert stats["n_workers"] == 2 and stats["n_sessions"] == 4
    assert set(stats["sessions"]) == set(streams)
    assert {block["worker"] for block in stats["workers"]} == {0, 1}
    total = len(values) * len(streams)
    assert stats["rollup"]["counters"]["points_scored"] == total
    merged = stats["ingest_latency"]
    assert merged["count"] == total
    assert 0.0 < merged["p50"] <= merged["p99"] <= merged["max"]
    # Raw windows stay out of the reply unless explicitly requested.
    assert "latency_window" not in next(iter(stats["sessions"].values()))


def test_router_error_paths(fleet):
    router = fleet()
    client = ServeClient(router)
    reply = client.ingest("ghost", [[0.0, 0.0]])
    assert not reply.get("ok") and reply["error"]["type"] == "unknown_stream"

    assert client.create("dup", spec="+".join(SPEC), n_channels=2).get("ok")
    reply = client.create("dup", spec="+".join(SPEC), n_channels=2)
    assert not reply.get("ok") and reply["error"]["type"] == "duplicate_stream"

    # Count fields are checked at the protocol edge, before routing.
    reply = client.ingest("dup", [[0.0, 0.0]], expect=0.5)
    assert not reply.get("ok") and reply["error"]["type"] == "bad_request"
    reply = client.request("score", stream="dup", max="2")
    assert not reply.get("ok") and reply["error"]["type"] == "bad_request"
    # So are flag fields: a routed flush "false" neither flushes nor pops.
    assert client.ingest("dup", make_stream(n=6)).get("ok")
    reply = client.request("score", stream="dup", flush="false")
    assert not reply.get("ok") and reply["error"]["type"] == "bad_request"
    reply = client.request("stats", latency_windows="false")
    assert not reply.get("ok") and reply["error"]["type"] == "bad_request"
    assert [r["seq"] for r in client.score("dup")["results"]] == list(range(6))

    with pytest.raises(ReproError, match="out of range"):
        router.migrate("dup", 7)


def test_queue_full_propagates_through_the_router(fleet):
    """Admission control is per-shard: the owning worker's queue bound
    surfaces to the client as queue_full + retry_after, untouched."""
    router = fleet(
        worker=ServeConfig(
            max_delay_ms=1000.0,
            queue_limit=2,
            detector=DetectorConfig(**CONFIG),
        )
    )
    client = ServeClient(router)
    assert client.create("tight", spec="+".join(SPEC), n_channels=2).get("ok")
    reply = client.ingest("tight", [[0.0, 0.0]] * 5)  # batch > queue bound
    assert not reply.get("ok"), reply
    error = reply["error"]
    assert error["type"] == "queue_full"
    assert float(error["retry_after"]) > 0.0
