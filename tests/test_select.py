"""Online algorithm selection: racing, promotion, hot-swap, recovery.

The acceptance properties of ``repro.select``:

- **Shadow neutrality** — with a race armed but no promotion, served
  scores are bitwise identical to the offline ``run_stream`` reference;
  shadow work is accounted separately (``points_shadow``), never in the
  user-facing scoring counters or latency reservoirs.
- **Point-lossless promotion** — a hot-swap at ``swap_t`` yields served
  scores equal to the champion's offline reference through ``swap_t``
  and the challenger's from ``swap_t + 1``: no point skipped, doubled
  or re-scored.
- **Crash-safe swap** — SIGKILL at either crash window of the swap
  protocol (after the WAL intent record, after the commit checkpoint)
  recovers to a consistent session whose delivered results, merged with
  what the child collected before dying, cover every point exactly once
  and match the correct composite reference.
- **Anti-flapping** — warm-up, hysteresis margin, dwell and min-dwell
  gate promotions deterministically.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import _select_crash_child as child
from repro.core.config import DetectorConfig
from repro.core.exceptions import ConfigurationError
from repro.core.registry import AlgorithmSpec, build_detector
from repro.core.types import TimeSeries
from repro.select import (
    EwmaLossPolicy,
    LaneStats,
    SelectionConfig,
    UcbBanditPolicy,
    make_policy,
    make_postprocessor,
    warm_start_detector,
)
from repro.serve import DetectionService, ServeClient, ServeConfig
from repro.serve import wal as serve_wal
from repro.serve.wal import SessionWal, WalConfig, plan_replay, read_records
from repro.streaming import run_stream
from repro.streaming.checkpoint import peek_checkpoint, save_detector
from repro.streaming.ensemble import EnsembleDetector

CONFIG = child.CONFIG
SELECT = child.SELECT
N = child.N

_OFFLINE_CACHE: dict[str, object] = {}


def offline_reference(label):
    """``run_stream`` over the shared drifting series (sequential ref)."""
    if label not in _OFFLINE_CACHE:
        detector = build_detector(
            AlgorithmSpec(*label.split("+")),
            n_channels=2,
            config=DetectorConfig(**CONFIG),
        )
        values = child.make_values()
        series = TimeSeries(values=values, labels=np.zeros(N, dtype=int))
        _OFFLINE_CACHE[label] = run_stream(detector, series, batch_size=1)
    return _OFFLINE_CACHE[label]


def make_service(tmp_path, *, wal=False, **overrides):
    defaults = dict(
        max_batch=16,
        spill_dir=str(tmp_path / "spill"),
        detector=DetectorConfig(**CONFIG),
    )
    if wal:
        defaults.update(
            wal_dir=str(tmp_path / "wal"), wal_barrier_interval=48
        )
    defaults.update(overrides)
    return DetectionService(ServeConfig(**defaults), autostart=False)


def stream_all(client, stream, values, start=0, chunk=25, results=None):
    """Ingest with the idempotent cursor, collecting every result."""
    results = {} if results is None else results
    sent = start
    while sent < len(values):
        reply = client.ingest(
            stream, values[sent : sent + chunk], expect=sent
        )
        assert reply["ok"], reply
        sent += reply["accepted"]
        reply = client.score(stream)
        assert reply["ok"], reply
        for result in reply["results"]:
            previous = results.setdefault(result["seq"], result)
            assert previous == result, "conflicting re-emission"
    return results


# ----------------------------------------------------------------------
# policy units
# ----------------------------------------------------------------------
def test_selection_config_validation():
    with pytest.raises(ConfigurationError):
        SelectionConfig(policy="greedy")
    with pytest.raises(ConfigurationError):
        SelectionConfig(warmup=0)
    with pytest.raises(ConfigurationError):
        SelectionConfig(margin=1.0)
    with pytest.raises(ConfigurationError):
        SelectionConfig(dwell=0)
    with pytest.raises(ConfigurationError):
        SelectionConfig(min_dwell=-1)
    with pytest.raises(ConfigurationError):
        SelectionConfig(ewma_alpha=0.0)
    with pytest.raises(ConfigurationError):
        SelectionConfig(fire_weight=-0.1)
    assert isinstance(make_policy(SelectionConfig()), EwmaLossPolicy)
    assert isinstance(make_policy(SelectionConfig(policy="ucb")), UcbBanditPolicy)


def _feed(stats, losses, alpha=1.0):
    losses = np.asarray(losses, dtype=np.float64)
    stats.update(losses, np.zeros(len(losses), dtype=bool), alpha)


def test_ewma_policy_promotion_needs_margin_dwell_and_min_dwell():
    config = SelectionConfig(
        policy="ewma", warmup=4, margin=0.10, dwell=8, min_dwell=12,
        ewma_alpha=1.0, fire_weight=0.0,
    )
    policy = EwmaLossPolicy(config)
    champ, lane = LaneStats(), LaneStats()
    points = 0

    def step(champ_loss, lane_loss, batch=4):
        nonlocal points
        _feed(champ, [champ_loss] * batch)
        _feed(lane, [lane_loss] * batch)
        points += batch
        return policy.step(champ, [lane], batch, points)

    # Warm-up: neither side eligible on the first batch.
    assert step(1.0, 0.5) is None
    # Beating the champion, but min_dwell (12) not reached at 8 points.
    assert step(1.0, 0.5) is None
    # 12 points: margin + dwell (8 = two batches of wins) + min_dwell met.
    assert step(1.0, 0.5) == 0

    # A hair inside the margin never wins, however long it persists.
    champ2, lane2 = LaneStats(), LaneStats()
    policy2 = EwmaLossPolicy(config)
    for round_index in range(50):
        _feed(champ2, [1.0] * 4)
        _feed(lane2, [0.95] * 4)  # 5% better < 10% margin
        assert (
            policy2.step(champ2, [lane2], 4, (round_index + 1) * 4) is None
        )
    assert lane2.win_points == 0  # the streak never starts

    # An interrupted streak resets the dwell counter: two wins, a losing
    # blip, then the streak must restart from zero.
    champ3, lane3 = LaneStats(), LaneStats()
    policy3 = EwmaLossPolicy(
        SelectionConfig(
            policy="ewma", warmup=4, margin=0.10, dwell=12, min_dwell=0,
            ewma_alpha=1.0, fire_weight=0.0,
        )
    )
    points3 = 0

    def step3(loss):
        nonlocal points3
        _feed(champ3, [1.0] * 4)
        _feed(lane3, [loss] * 4)
        points3 += 4
        return policy3.step(champ3, [lane3], 4, points3)

    assert step3(0.5) is None and step3(0.5) is None  # win_points 8 < 12
    assert step3(2.0) is None
    assert lane3.win_points == 0  # the blip wiped the streak
    assert step3(0.5) is None and step3(0.5) is None  # 8 again, not 16
    assert step3(0.5) == 0  # third consecutive win completes the dwell


def test_ewma_policy_fire_weight_penalizes_flappy_lane():
    config = SelectionConfig(
        policy="ewma", warmup=2, margin=0.05, dwell=2, min_dwell=0,
        ewma_alpha=1.0, fire_weight=10.0,
    )
    policy = EwmaLossPolicy(config)
    champ, lane = LaneStats(), LaneStats()
    # The lane's loss is lower but its drift detector fires every point.
    for _ in range(4):
        champ.update(np.array([1.0]), np.array([False]), 1.0)
        lane.update(np.array([0.8]), np.array([True]), 1.0)
        assert policy.step(champ, [lane], 1, 99) is None
    assert lane.signal(10.0) > champ.signal(10.0)


def test_ucb_policy_promotes_consistent_winner_only():
    config = SelectionConfig(
        policy="ucb", warmup=1, margin=0.1, dwell=3, min_dwell=0,
        ewma_alpha=1.0, ucb_c=0.5,
    )
    policy = UcbBanditPolicy(config)
    champ, lane = LaneStats(), LaneStats()
    promoted = None
    for _ in range(12):
        _feed(champ, [1.0])
        _feed(lane, [0.5])  # challenger wins every round
        promoted = policy.step(champ, [lane], 1, 999)
        if promoted is not None:
            break
    assert promoted == 0
    assert lane.reward > champ.reward

    # A coin-flip lane (alternating wins) never accumulates the margin.
    policy2 = UcbBanditPolicy(config)
    champ2, lane2 = LaneStats(), LaneStats()
    for round_index in range(30):
        win = round_index % 2 == 0
        _feed(champ2, [1.0 if win else 0.5])
        _feed(lane2, [0.5 if win else 1.0])
        assert policy2.step(champ2, [lane2], 1, 999) is None


# ----------------------------------------------------------------------
# postprocessor units
# ----------------------------------------------------------------------
def test_postprocessors_transform_and_reset():
    z = make_postprocessor("zscore")
    assert z.update(5.0) == 0.0  # first value defines the running mean
    assert z.update(5.0) == 0.0  # zero variance stays 0
    assert z.update(8.0) > 0.0
    z.reset()
    assert z.update(100.0) == 0.0

    m = make_postprocessor("minmax")
    assert m.update(2.0) == 0.0
    assert m.update(4.0) == 1.0
    assert m.update(3.0) == 0.5
    m.reset()
    assert m.update(7.0) == 0.0

    e = make_postprocessor("ewma:0.5")
    assert e.update(1.0) == 1.0
    assert e.update(3.0) == 2.0
    e.reset()
    assert e.update(9.0) == 9.0

    with pytest.raises(ConfigurationError):
        make_postprocessor("sigmoid")
    with pytest.raises(ConfigurationError):
        make_postprocessor("zscore:3")
    with pytest.raises(ConfigurationError):
        make_postprocessor("ewma:1.5")


def test_ensemble_postprocess_chain_is_chunking_invariant():
    values = child.make_values()[:160]

    def build(postprocess):
        members = [
            build_detector(
                AlgorithmSpec("ae", "sw", "kswin"),
                n_channels=2,
                config=DetectorConfig(**CONFIG),
            )
        ]
        return EnsembleDetector(members, postprocess=postprocess)

    raw = build(None)
    _, f_raw, _, _ = raw.step_chunk(values)

    whole = build(["zscore", "ewma:0.3"])
    _, f_whole, _, _ = whole.step_chunk(values)

    split = build(["zscore", "ewma:0.3"])
    _, f_a, _, _ = split.step_chunk(values[:71])
    _, f_b, _, _ = split.step_chunk(values[71:])

    assert np.array_equal(f_whole, np.concatenate([f_a, f_b]))
    assert not np.array_equal(f_whole, f_raw)  # the chain did something
    # reset() restarts the calibration stages along with the members.
    split.reset()
    assert split.t == -1
    assert split.postprocess[0].n == 0  # zscore state cleared
    assert split.postprocess[1].value is None  # ewma state cleared


# ----------------------------------------------------------------------
# warm-start
# ----------------------------------------------------------------------
def test_warm_start_detector_clock_and_validation():
    detector = warm_start_detector("ae+sw+kswin", 2, at=120)
    assert detector.t == 119
    assert detector.first_scored_step is None  # cold model, preset clock
    with pytest.raises(ConfigurationError):
        warm_start_detector("ae+sw", 2)
    with pytest.raises(ConfigurationError):
        warm_start_detector("ae+sw+kswin", 2, at=-1)


# ----------------------------------------------------------------------
# serve integration
# ----------------------------------------------------------------------
def test_shadow_race_without_promotion_is_bitwise_neutral(tmp_path):
    """An armed race whose policy can never fire must not perturb served
    scores by a single bit — and its cost lands in the shadow counters,
    not the scoring ones."""
    values = child.make_values()
    ref = offline_reference(child.SPEC)

    service = make_service(tmp_path)
    client = ServeClient(service)
    select = dict(SELECT, min_dwell=10**9)  # promotion structurally off
    reply = client.create("s", spec=child.SPEC, n_channels=2, select=select)
    assert reply["ok"], reply
    results = stream_all(client, "s", values)

    assert sorted(results) == list(range(N))
    scores = np.array([results[i]["score"] for i in range(N)])
    assert np.array_equal(scores, ref.scores)

    describe = client.describe("s")
    assert describe["ok"], describe
    selection = describe["selection"]
    assert selection["promotions"] == 0
    assert selection["champion"]["n_points"] == N
    assert selection["challengers"][0]["t"] == N - 1  # clock-aligned
    assert describe["shadow"]["points_shadow"] == N

    counters = client.stats()["rollup"]["counters"]
    assert counters["points_shadow"] == N
    assert counters["points_scored"] == N  # shadow points not in here
    assert counters.get("promotions", 0) == 0


def test_promotion_is_point_lossless_and_matches_composite(tmp_path):
    """Served scores equal the champion's offline reference through the
    swap offset and the challenger's offline reference after it."""
    values = child.make_values()
    champ_ref = offline_reference(child.SPEC)
    chall_ref = offline_reference(child.CHALLENGER)

    service = make_service(tmp_path)
    client = ServeClient(service)
    reply = client.create(
        "s", spec=child.SPEC, n_channels=2, select=dict(SELECT)
    )
    assert reply["ok"], reply
    results = stream_all(client, "s", values)
    assert sorted(results) == list(range(N))

    describe = client.describe("s")
    events = describe["selection"]["events"]
    assert len(events) == 1, "expected exactly one promotion"
    swap_t = events[0]["t"]
    assert 0 < swap_t < N - 1
    assert events[0]["from"] == child.SPEC
    assert events[0]["to"] == child.CHALLENGER
    assert describe["spec"] == child.CHALLENGER

    scores = np.array([results[i]["score"] for i in range(N)])
    assert np.array_equal(scores[: swap_t + 1], champ_ref.scores[: swap_t + 1])
    assert np.array_equal(scores[swap_t + 1 :], chall_ref.scores[swap_t + 1 :])
    # The challenger's post-swap scores are its *uninterrupted* offline
    # run over the full prefix — the shadow lane saw every point.
    assert not np.array_equal(scores, champ_ref.scores)

    counters = client.stats()["rollup"]["counters"]
    assert counters["promotions"] == 1
    assert counters["points_scored"] == N


def test_promotion_with_demotion_keeps_old_champion_racing(tmp_path):
    values = child.make_values()
    service = make_service(tmp_path)
    client = ServeClient(service)
    select = dict(SELECT, demote=True)
    assert client.create(
        "s", spec=child.SPEC, n_channels=2, select=select
    )["ok"]
    stream_all(client, "s", values)
    describe = client.describe("s")
    selection = describe["selection"]
    assert selection["promotions"] >= 1
    # The demoted ex-champion is back in a lane, clock-aligned.
    specs = [lane["spec"] for lane in selection["challengers"]]
    assert child.SPEC in specs
    for lane in selection["challengers"]:
        assert lane["t"] == N - 1


def test_selection_requires_registry_session_and_real_challenger(tmp_path):
    service = make_service(tmp_path)
    client = ServeClient(service)
    reply = client.create(
        "s", spec=child.SPEC, n_channels=2, select={"challengers": []}
    )
    assert not reply["ok"]
    assert reply["error"]["type"] == "bad_config"
    # The failed create must not leak a half-open session.
    reply = client.create(
        "s", spec=child.SPEC, n_channels=2,
        select={"challengers": [child.SPEC]},
    )
    assert not reply["ok"]
    assert "identical" in reply["error"]["message"]
    reply = client.create("s", spec=child.SPEC, n_channels=2)
    assert reply["ok"], reply


def test_describe_op_shape_and_errors(tmp_path):
    service = make_service(tmp_path, wal=True)
    client = ServeClient(service)
    reply = client.describe("nope")
    assert not reply["ok"]
    assert reply["error"]["type"] == "unknown_stream"
    assert not client.request("describe")["ok"]  # stream is required

    assert client.create("s", spec=child.SPEC, n_channels=2)["ok"]
    values = child.make_values()[:96]
    stream_all(client, "s", values)
    describe = client.describe("s")
    assert describe["ok"], describe
    assert describe["stream"] == "s"
    assert describe["spec"] == child.SPEC
    assert "selection" not in describe  # no race armed
    barrier = describe["checkpoints"]["barrier"]
    assert barrier["model"] == "TwoLayerAutoencoder"
    assert 0 <= barrier["t"] < len(values)
    service.shutdown()


# ----------------------------------------------------------------------
# WAL swap records
# ----------------------------------------------------------------------
def test_plan_replay_folds_committed_swaps_only():
    def ingest(seq_from, n):
        return {
            "kind": "ingest",
            "seq_from": seq_from,
            "rows": np.zeros((n, 2)),
        }

    open_record = {
        "kind": "open", "stream": "s", "n_channels": 2,
        "spec": "a+b+c", "config": {}, "scorer": None,
    }
    swap = {
        "kind": "swap", "t": 7, "spec": "x+y+z",
        "config": {"window": 6}, "scorer": "al",
        "results": [{"seq": 7, "score": 0.5}],
    }
    records = [open_record, ingest(0, 4), ingest(4, 4), swap, ingest(8, 4)]

    # Committed: the surviving checkpoint covers the swap clock.
    meta, blocks, _ = plan_replay(records, barrier_t=7)
    assert meta["swapped"] and meta["swap_t"] == 7
    assert meta["spec"] == "x+y+z"
    assert meta["config"] == {"window": 6}
    assert meta["scorer"] == "al"
    assert meta["swap_results"] == [{"seq": 7, "score": 0.5}]
    assert [(s, len(r)) for s, r in blocks] == [(8, 4)]

    # Aborted: no checkpoint reached t=7, the record is ignored and the
    # pre-swap recipe replays everything.
    meta, blocks, _ = plan_replay(records, barrier_t=3)
    assert "swapped" not in meta
    assert meta["spec"] == "a+b+c"
    assert [(s, len(r)) for s, r in blocks] == [(4, 4), (8, 4)]


def test_scrub_aborted_swaps_rewrites_log(tmp_path):
    wal = SessionWal(WalConfig(dir=tmp_path, fsync="never"), "s")
    wal.open({"spec": "a+b+c", "n_channels": 2, "config": {}, "scorer": None})
    wal.append(0, np.zeros((4, 2)))
    wal.log_swap({"t": 3, "spec": "x+y+z", "config": {}, "scorer": None})
    wal.append(4, np.zeros((4, 2)))
    wal.close(delete=False)

    # t=3 committed (a checkpoint covers it): nothing to scrub.
    assert wal.scrub_aborted_swaps(3) == 0
    kinds = [r["kind"] for r in read_records(wal.path)[0]]
    assert kinds == ["open", "ingest", "swap", "ingest"]

    # No checkpoint reached t=3: the intent is scrubbed, data kept.
    assert wal.scrub_aborted_swaps(1) == 1
    kinds = [r["kind"] for r in read_records(wal.path)[0]]
    assert kinds == ["open", "ingest", "ingest"]


def test_swap_survives_abandon_and_recovery(tmp_path):
    """Promotion, then a simulated crash (abandon without close): the
    recovered session continues under the challenger and the full
    delivered sequence matches the composite reference."""
    values = child.make_values()
    champ_ref = offline_reference(child.SPEC)
    chall_ref = offline_reference(child.CHALLENGER)

    service = make_service(tmp_path, wal=True)
    client = ServeClient(service)
    assert client.create(
        "s", spec=child.SPEC, n_channels=2, select=dict(SELECT)
    )["ok"]
    cut = 380  # past the deterministic promotion offset
    results = {}
    sent = 0
    while sent < cut:
        reply = client.ingest(
            "s", values[sent : min(cut, sent + 25)], expect=sent
        )
        assert reply["ok"], reply
        sent += reply["accepted"]
        for result in client.score("s")["results"]:
            results[result["seq"]] = result
    swap_t = client.describe("s")["selection"]["events"][0]["t"]
    del service, client

    restarted = make_service(tmp_path, wal=True)
    counters = restarted.telemetry.as_dict()["counters"]
    assert counters.get("wal_recovered") == 1
    client = ServeClient(restarted)
    describe = client.describe("s")
    assert describe["spec"] == child.CHALLENGER  # swap fold survived
    assert describe["seq"] == cut
    stream_all(client, "s", values, start=sent, results=results)
    for result in client.score("s")["results"]:
        results.setdefault(result["seq"], result)

    assert sorted(results) == list(range(N))
    scores = np.array([results[i]["score"] for i in range(N)])
    assert np.array_equal(scores[: swap_t + 1], champ_ref.scores[: swap_t + 1])
    assert np.array_equal(scores[swap_t + 1 :], chall_ref.scores[swap_t + 1 :])
    restarted.shutdown()


def test_stale_checkpoint_label_recovers_on_per_session_path(tmp_path):
    """Defensive fallback: a checkpoint whose model class contradicts
    the log's recipe (possible only under fsync="never" reordering)
    is served rather than fused under the wrong label."""
    values = child.make_values()[:12]
    wal_dir = tmp_path / "wal"
    wal_dir.mkdir()
    wal = SessionWal(WalConfig(dir=wal_dir, fsync="never"), "s")
    wal.open(
        {"spec": child.SPEC, "n_channels": 2, "config": dict(CONFIG),
         "scorer": None}
    )
    wal.append(0, values)
    # A different model family scored the stream (a swap whose record
    # never landed): checkpoint it at the log's clock.
    other = build_detector(
        AlgorithmSpec("var", "sw", "kswin"),
        n_channels=2,
        config=DetectorConfig(**CONFIG),
    )
    other.step_chunk(values)
    save_detector(other, wal.barrier_path)
    wal.close(delete=False)

    service = make_service(tmp_path, wal=True)
    counters = service.telemetry.as_dict()["counters"]
    assert counters.get("wal_recovered") == 1
    assert counters.get("wal_stale_labels") == 1
    session = service.store.get("s")
    assert session.fleet_key is None  # never fused under the stale label
    assert type(session.detector.model).__name__ == "VARModel"
    service.shutdown()


# ----------------------------------------------------------------------
# SIGKILL mid-swap
# ----------------------------------------------------------------------
@pytest.mark.parametrize("window", ["after_record", "after_checkpoint"])
def test_sigkill_mid_swap_recovers_lossless(tmp_path, window):
    """Kill -9 the serving process at either crash window of the swap
    protocol; recover; finish the stream.  The union of the child's
    collected results and everything delivered after recovery covers
    every point exactly once and matches the correct reference:
    aborted swap -> pure champion; committed swap -> composite."""
    env = dict(os.environ)
    env["REPRO_SELECT_CRASH"] = window
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("_select_crash_child.py")),
         str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
        cwd=str(tmp_path),
    )
    assert proc.returncode == 42, (
        f"child did not crash at the injected point: rc={proc.returncode}\n"
        f"{proc.stdout}\n{proc.stderr}"
    )

    results = {}
    sent = 0
    for line in (tmp_path / "results.jsonl").read_text().splitlines():
        round_ = json.loads(line)
        sent = round_["sent"]
        for result in round_["results"]:
            results[result["seq"]] = result
    # The crash fired inside the score() after the last recorded ingest
    # round — that block was acked but its results never returned.
    sent += child.CHUNK
    assert max(results) < sent - 1

    values = child.make_values()
    champ_ref = offline_reference(child.SPEC)
    chall_ref = offline_reference(child.CHALLENGER)

    service = child.make_service(tmp_path)
    counters = service.telemetry.as_dict()["counters"]
    assert counters.get("wal_recovered") == 1, counters
    client = ServeClient(service)
    describe = client.describe("s")
    assert describe["ok"], describe

    if window == "after_record":
        # Intent only: the swap aborted, recovery replays through the
        # old champion and the record is scrubbed from the log.
        assert describe["spec"] == child.SPEC
        session = service.store.get("s")
        kinds = [r["kind"] for r in read_records(session.wal.path)[0]]
        assert "swap" not in kinds
    else:
        # Committed: the challenger took over at the checkpoint clock.
        assert describe["spec"] == child.CHALLENGER
        swap_t = describe["checkpoints"]["barrier"]["t"]
        assert describe["seq"] >= swap_t + 1

    # Drain re-emissions (replayed or carried in the swap record), then
    # finish the stream.
    for result in client.score("s")["results"]:
        previous = results.setdefault(result["seq"], result)
        assert previous == result, "conflicting re-emission"
    stream_all(client, "s", values, start=sent, results=results)

    assert sorted(results) == list(range(N)), "dropped or doubled points"
    scores = np.array([results[i]["score"] for i in range(N)])
    if window == "after_record":
        assert np.array_equal(scores, champ_ref.scores)
    else:
        assert np.array_equal(
            scores[: swap_t + 1], champ_ref.scores[: swap_t + 1]
        )
        assert np.array_equal(
            scores[swap_t + 1 :], chall_ref.scores[swap_t + 1 :]
        )
    service.shutdown()


def test_aborted_swap_is_scrubbed_before_replay_barriers(tmp_path, monkeypatch):
    """Replay drains through the scheduler and may take barriers, whose
    compaction folds swap records by clock alone.  An aborted swap
    intent must therefore be gone before replay starts: recover with a
    compacting barrier every 8 points, and the log holds no swap record,
    a second recovery still serves the champion, and the stream matches
    the champion's offline run bitwise."""
    env = dict(os.environ)
    env["REPRO_SELECT_CRASH"] = "after_record"
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("_select_crash_child.py")),
         str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
        cwd=str(tmp_path),
    )
    assert proc.returncode == 42, f"{proc.stdout}\n{proc.stderr}"
    results = {}
    sent = 0
    for line in (tmp_path / "results.jsonl").read_text().splitlines():
        round_ = json.loads(line)
        sent = round_["sent"]
        for result in round_["results"]:
            results[result["seq"]] = result
    sent += child.CHUNK  # the block whose score() crashed mid-swap

    def collect(client):
        for result in client.score("s")["results"]:
            previous = results.setdefault(result["seq"], result)
            assert previous == result, "conflicting re-emission"

    monkeypatch.setattr(serve_wal, "COMPACT_MIN_BYTES", 0)
    service = make_service(tmp_path, wal=True, wal_barrier_interval=8)
    counters = service.telemetry.as_dict()["counters"]
    assert counters.get("wal_recovered") == 1, counters
    assert counters.get("wal_barriers", 0) >= 1  # replay crossed barriers
    session = service.store.get("s")
    kinds = [r["kind"] for r in read_records(session.wal.path)[0]]
    assert "swap" not in kinds
    collect(ServeClient(service))
    del service, session

    again = make_service(tmp_path, wal=True, wal_barrier_interval=8)
    client = ServeClient(again)
    assert client.describe("s")["spec"] == child.SPEC
    collect(client)
    stream_all(client, "s", child.make_values(), start=sent, results=results)

    assert sorted(results) == list(range(N)), "dropped or doubled points"
    scores = np.array([results[i]["score"] for i in range(N)])
    assert np.array_equal(scores, offline_reference(child.SPEC).scores)
    again.shutdown()
