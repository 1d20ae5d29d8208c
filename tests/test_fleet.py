"""Bitwise-identity property tests for cross-session fused inference.

The contract under test: :meth:`FleetEngine.step_chunk` over K same-spec
detectors produces exactly the outputs *and* the detector state that K
separate per-session :meth:`step_chunk` calls would have produced — for
any fleet size, any chunk size, and any mix of clean / diverging /
ineligible sessions.  Since ``step_chunk`` is itself pinned bitwise to
``step()`` (``tests/test_chunked_stream.py``), this transitively pins the
fused path to the sequential reference.

The suite also pins the numerical substrate the fusion relies on (the
"kernel probes"): session-axis stacked ``np.matmul`` slices, row-mean
reductions, scatter adds and the zero-removed-row replay must be
bit-identical to their per-session counterparts on this BLAS build —
if a probe fails on some platform, the fused path is *wrong there*, not
merely different.
"""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest

from repro.core.config import DetectorConfig
from repro.core.registry import AlgorithmSpec, build_detector
from repro.datasets.corpora import make_daphnet
from repro.learning.kswin import KSWIN
from repro.models.base import BATCH_TILE, tiled_forward
from repro.nn.arena import FleetIncompatible, ParameterArena
from repro.obs.telemetry import CORE_SPANS, Telemetry
from repro.streaming.checkpoint import load_detector, save_detector
from repro.streaming.fleet import FleetEngine

CONFIG = DetectorConfig(window=8, train_capacity=32, fit_epochs=2, kswin_check_every=8)
WARMUP = 150

#: registry slice with fleet support: session-axis batchable models ×
#: the fusable Task-2 strategies.
FLEET_SPECS = (
    AlgorithmSpec("ae", "sw", "musigma"),
    AlgorithmSpec("usad", "sw", "musigma"),
    AlgorithmSpec("nbeats", "sw", "regular"),
    AlgorithmSpec("ae", "sw", "never"),
    AlgorithmSpec("ae", "sw", "kswin"),
)

#: (K, chunk) grid: fleet sizes {1, 3, 8} × chunk sizes {1, 7, 64},
#: sampled so each axis value appears with several of the other's.
FLEET_SHAPES = ((1, 7), (3, 1), (3, 64), (8, 7))


def _series(k: int, n_steps: int = 600):
    return make_daphnet(n_series=1, n_steps=n_steps, clean_prefix=200, seed=k)[0]


def _build_fleet(spec: AlgorithmSpec, k_sessions: int, values_by_k, config=CONFIG):
    """K warmed-up detectors, deterministically reproducible."""
    detectors = []
    for k in range(k_sessions):
        det = build_detector(spec, _series(k).n_channels, config)
        for t in range(WARMUP):
            det.step(values_by_k[k][t])
        detectors.append(det)
    return detectors


def state_fingerprint(det) -> bytes:
    """Every piece of detector state the equivalence contract pins."""
    drift = det.drift_detector
    drift_state = (drift.ops.additions, drift.ops.multiplications, drift.ops.comparisons)
    if getattr(drift, "_sum", None) is not None:
        drift_state += (
            drift._sum.tobytes(),
            drift._sumsq.tobytes(),
            drift._count,
            drift._ref_mean.tobytes(),
            drift._ref_std.tobytes(),
        )
    if isinstance(drift, KSWIN):
        drift_state += (
            None if drift._reference is None else drift._reference.tobytes(),
            None if drift._ranks is None else drift._ranks.tobytes(),
            drift._tracked,
        )
    return pickle.dumps(
        {
            "t": det.t,
            "first": det.first_scored_step,
            "train_set": [x.tobytes() for x in det.train_strategy._deque],
            "drift": drift_state,
            "ring": det.buffer._ring.tobytes(),
            "pos": det.buffer._pos,
            "count": det.buffer._count,
            "scorer": pickle.dumps(det.scorer),
            "params": [
                p.value.tobytes()
                for m in det.model.fleet_modules()
                for p in m.parameters()
            ],
            "events": [
                (e.t, e.reason, e.train_set_size, repr(e.loss_after))
                for e in det.events
            ],
        }
    )


def _drain_both(
    spec, k_sessions, chunk, values_by_k, n_steps, shift=None, min_fleet=1,
    traced=False, config=CONFIG,
):
    """Run fused vs per-session over identical streams; return both fleets.

    ``min_fleet=1`` keeps K=1 shapes on the true fused path (the engine
    defaults to bypassing below 2 sessions — pinned separately).

    ``traced=True`` attaches a :class:`Telemetry` to every fused and
    reference detector and drains an untraced fused fleet alongside:
    tracing must change no result, no state and no ``fused_steps``, and
    each member's telemetry must match its per-session reference.
    """
    values = [v.copy() for v in values_by_k]
    if shift is not None:
        for k, start, delta in shift:
            values[k][start:] += delta
    fused_dets = _build_fleet(spec, k_sessions, values, config)
    ref_dets = _build_fleet(spec, k_sessions, values, config)
    fleet = FleetEngine(fused_dets, min_fleet=min_fleet)
    bare = fleet
    if traced:
        bare = FleetEngine(
            _build_fleet(spec, k_sessions, values, config), min_fleet=min_fleet
        )
        for det in fused_dets + ref_dets:
            det.telemetry = Telemetry()
    for start in range(WARMUP, WARMUP + n_steps, chunk):
        end = min(start + chunk, WARMUP + n_steps)
        blocks = [v[start:end] for v in values]
        fused = fleet.step_chunk(blocks)
        untraced = bare.step_chunk(blocks) if traced else fused
        for k in range(k_sessions):
            reference = ref_dets[k].step_chunk(blocks[k])
            for got, want, plain in zip(fused[k], reference, untraced[k]):
                assert got.tobytes() == want.tobytes() == plain.tobytes()
    if traced:
        _assert_tracing_neutral(fleet, bare, ref_dets)
    return fleet, fused_dets, ref_dets


def _assert_tracing_neutral(fleet, bare, ref_dets):
    """A traced fused fleet runs what an untraced one runs, and records
    what per-session ``step_chunk`` records."""
    assert fleet.fused_steps == bare.fused_steps > 0
    for det, plain, ref in zip(fleet.detectors, bare.detectors, ref_dets):
        assert state_fingerprint(det) == state_fingerprint(plain)
        tel, ref_tel = det.telemetry, ref.telemetry
        for name in ("steps", "drift_fires", "finetunes"):
            assert tel.counters.get(name, 0) == ref_tel.counters.get(name, 0), name
        assert set(tel.spans) <= set(CORE_SPANS)
        assert tel.spans["represent"][0] == tel.counters["steps"]
        fine_tunes = [e for e in tel.events if e["kind"] == "finetune"]
        assert fine_tunes == [e for e in ref_tel.events if e["kind"] == "finetune"]
        assert tel.spans.get("fine-tune", [0])[0] == len(fine_tunes)


# ----------------------------------------------------------------------
# fused == per-session across the registry slice × fleet shapes
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "spec", FLEET_SPECS, ids=lambda s: f"{s.model}+{s.task1}+{s.task2}"
)
@pytest.mark.parametrize("k_sessions,chunk", FLEET_SHAPES)
def test_fleet_matches_per_session_bitwise(spec, k_sessions, chunk):
    values = [_series(k).values for k in range(k_sessions)]
    # μ/σ and KSWIN members are traced: tracing must keep them fused,
    # bitwise.
    fleet, fused_dets, ref_dets = _drain_both(
        spec, k_sessions, chunk, values, n_steps=192,
        traced=spec.task2 in ("musigma", "kswin"),
    )
    for fused_det, ref_det in zip(fused_dets, ref_dets):
        assert state_fingerprint(fused_det) == state_fingerprint(ref_det)
    manifest = fleet.manifest()
    assert manifest["sessions"] == k_sessions
    total = (
        manifest["fused_steps"] + manifest["dirty_steps"] + manifest["stock_steps"]
    )
    assert total == k_sessions * 192


def test_fleet_divergence_and_rejoin_bitwise():
    """Sessions that fire mid-fleet now *stay fused* through the fire."""
    spec = AlgorithmSpec("ae", "sw", "musigma")
    values = [_series(k).values for k in range(4)]
    fleet, fused_dets, ref_dets = _drain_both(
        spec,
        4,
        16,
        values,
        n_steps=320,
        shift=[(1, 250, 6.0), (3, 400, 9.0)],
    )
    for fused_det, ref_det in zip(fused_dets, ref_dets):
        assert state_fingerprint(fused_det) == state_fingerprint(ref_det)
    # The shifted sessions must actually have fired (fine-tuned) — and
    # with the round-based drain that no longer costs the fused lane:
    # every step of every session stays fused.
    assert fused_dets[1].n_finetunes > 0 and fused_dets[3].n_finetunes > 0
    manifest = fleet.manifest()
    assert manifest["dirty_steps"] == 0
    assert manifest["stock_steps"] == 0
    assert manifest["fused_fraction"] == 1.0


# ----------------------------------------------------------------------
# drift storms: fused fine-tuning keeps firing fleets on the fused path
# ----------------------------------------------------------------------
@pytest.mark.parametrize("k_sessions,chunk", ((1, 16), (3, 5), (3, 64), (16, 16)))
def test_fleet_drift_storm_regular_bitwise(k_sessions, chunk):
    """RegularFineTuning at interval 32 under μ/σ-shift storms.

    Every session fires every 32 steps — the drift-heavy worst case for
    the old drain (which dropped every fire to the stock lane).  The
    round-based drain must keep 100% of the steps fused, run the
    co-firing sessions' fine-tunes through ``fleet_finetune`` (K >= 2),
    and still match per-session ``step_chunk`` bitwise.
    """
    spec = AlgorithmSpec("ae", "sw", "regular")
    values = [_series(k).values for k in range(k_sessions)]
    shift = [(k, 220 + 10 * k, 4.0) for k in range(k_sessions)]
    shift += [(k, 300 + 5 * k, -3.0) for k in range(k_sessions)]
    fleet, fused_dets, ref_dets = _drain_both(
        spec, k_sessions, chunk, values, n_steps=160, shift=shift, traced=True
    )
    for fused_det, ref_det in zip(fused_dets, ref_dets):
        assert state_fingerprint(fused_det) == state_fingerprint(ref_det)
    assert all(det.n_finetunes >= 4 for det in fused_dets)
    manifest = fleet.manifest()
    assert manifest["fused_fraction"] == 1.0
    assert manifest["dirty_steps"] == 0 and manifest["stock_steps"] == 0
    drain_fires = sum(
        1 for det in fused_dets for e in det.events if e.t > WARMUP
    )
    if k_sessions >= 2:
        # All sessions fire in lock-step, so every drain-phase
        # fine-tune runs fused (warm-up fires happen per step).
        assert manifest["finetunes_fused"] == drain_fires > 0
        assert manifest["points_fused_training"] > 0
    else:
        assert manifest["finetunes_fused"] == 0


@pytest.mark.parametrize("spec_tuple", (("usad", "sw", "regular"), ("nbeats", "sw", "regular")))
def test_fleet_drift_storm_other_models_bitwise(spec_tuple):
    """The fused training kernels hold for USAD (two optimizers, shared
    encoder copies) and N-BEATS (residual block stack) too."""
    spec = AlgorithmSpec(*spec_tuple)
    values = [_series(k).values for k in range(3)]
    fleet, fused_dets, ref_dets = _drain_both(
        spec, 3, 16, values, n_steps=96,
        shift=[(k, 230, 5.0) for k in range(3)],
    )
    for fused_det, ref_det in zip(fused_dets, ref_dets):
        assert state_fingerprint(fused_det) == state_fingerprint(ref_det)
    manifest = fleet.manifest()
    assert manifest["fused_fraction"] == 1.0
    assert manifest["finetunes_fused"] > 0


@pytest.mark.parametrize(
    "chunk,first,second,stagger",
    ((16, 240, 330, 0), (64, 268, 396, 2)),
    ids=("chunk16", "chunk64-staggered"),
)
def test_fleet_drift_storm_musigma_co_firing_bitwise(chunk, first, second, stagger):
    """μ/σ-Change storms hitting all sessions at once fuse the fine-tunes.

    At chunk 64 the first storm's staggered shifts make every session
    fire in one round, after the μ/σ lane's first time-axis block: the
    sums carried across blocks decide the fires of a co-firing fused
    fine-tune.
    """
    from repro.learning.drift import _BLOCK_ELEMENTS

    spec = AlgorithmSpec("ae", "sw", "musigma")
    values = [_series(k).values for k in range(4)]
    shift = [(k, first + stagger * k, 6.0) for k in range(4)]
    shift += [(k, second + stagger * k, -5.0) for k in range(4)]
    fleet, fused_dets, ref_dets = _drain_both(
        spec, 4, chunk, values, n_steps=256, shift=shift
    )
    for fused_det, ref_det in zip(fused_dets, ref_dets):
        assert state_fingerprint(fused_det) == state_fingerprint(ref_det)
    assert all(det.n_finetunes > 0 for det in fused_dets)
    manifest = fleet.manifest()
    assert manifest["fused_fraction"] == 1.0
    assert manifest["finetunes_fused"] > 0
    if stagger:
        # The round of the chunk holding the first shift starts at its
        # first row; each session's first fire there is its offset.
        start = WARMUP + chunk * ((first - WARMUP) // chunk)
        dim = fused_dets[0].window * fused_dets[0].n_channels
        rows = _BLOCK_ELEMENTS // (4 * dim)
        offsets = [
            min(e.t for e in det.events if e.t >= start) - start
            for det in fused_dets
        ]
        assert all(rows <= offset < chunk for offset in offsets), offsets


@pytest.mark.parametrize("check_every", (1, 3))
def test_fleet_drift_storm_kswin_bitwise(check_every):
    """KSWIN storms: the rank counters replay session-axis in a
    :class:`KswinLane`, so KSWIN fleets fire, fine-tune fused and stay
    on the fused path — at the paper's check_every=1 and off-grid."""
    spec = AlgorithmSpec("ae", "sw", "kswin")
    config = DetectorConfig(
        window=8, train_capacity=32, fit_epochs=2, kswin_check_every=check_every
    )
    values = [_series(k).values for k in range(4)]
    shift = [(k, 230, 6.0) for k in range(4)]
    shift += [(k, 320, -5.0) for k in range(4)]
    fleet, fused_dets, ref_dets = _drain_both(
        spec, 4, 16, values, n_steps=256, shift=shift, config=config,
        traced=True,
    )
    for fused_det, ref_det in zip(fused_dets, ref_dets):
        assert state_fingerprint(fused_det) == state_fingerprint(ref_det)
        assert pickle.dumps(fused_det) == pickle.dumps(ref_det)
    assert all(det.n_finetunes > 0 for det in fused_dets)
    manifest = fleet.manifest()
    assert manifest["fused_fraction"] == 1.0
    assert manifest["finetunes_fused"] > 0


def test_fleet_kswin_member_not_fuse_ready_runs_stock():
    """A KSWIN member whose reference predates its full window is not
    fuse-ready: it steps through its own engine while the others fuse,
    rejoins once a fine-tune re-snapshots a full window, and everyone
    stays bitwise equal to per-session stepping."""
    spec = AlgorithmSpec("ae", "sw", "kswin")
    # Member 1 fits (and snapshots its KSWIN reference) at 20 of 32
    # training vectors and has just filled its window: r_i < r_t.
    configs = [CONFIG, dataclasses.replace(CONFIG, initial_train_size=20), CONFIG]
    warmups = [WARMUP, 40, WARMUP]
    values = [_series(k).values for k in range(3)]
    fleets = []
    for _ in range(2):
        dets = [build_detector(spec, 9, config) for config in configs]
        for det, series, warmup in zip(dets, values, warmups):
            for t in range(warmup):
                det.step(series[t])
        fleets.append(dets)
    fused_dets, ref_dets = fleets
    assert fused_dets[1].train_strategy.is_full
    assert not fused_dets[1].drift_detector.fuse_ready
    assert fused_dets[0].drift_detector.fuse_ready
    fleet = FleetEngine(fused_dets)
    lanes = []
    for start in range(0, 192, 16):
        blocks = [v[w + start : w + start + 16] for v, w in zip(values, warmups)]
        fused = fleet.step_chunk(blocks)
        lanes.append(fleet.last_drain)
        for k in range(3):
            want = ref_dets[k].step_chunk(blocks[k])
            for got, expected in zip(fused[k], want):
                assert got.tobytes() == expected.tobytes()
    assert 1 in lanes[0]["stock"]
    assert all(0 in lane["fused"] and 2 in lane["fused"] for lane in lanes)
    assert any(1 in lane["fused"] for lane in lanes)  # rejoined
    for fused_det, ref_det in zip(fused_dets, ref_dets):
        assert state_fingerprint(fused_det) == state_fingerprint(ref_det)


def test_fleet_staggered_fire_offsets_same_chunk_bitwise():
    """Sessions firing at *different* offsets inside one chunk stay fused.

    Staggered warm-ups desynchronize the sessions' clocks, so Regular
    fine-tunes land at different rows of the same drain — each round
    commits each session's own span, fine-tunes the firing subset, and
    re-enters with the rest.  Singleton fire groups take the per-session
    fine-tune (bitwise the same); mid-chunk divergence must still rejoin
    the fused rounds, never the stock lane.
    """
    spec = AlgorithmSpec("ae", "sw", "regular")
    k_sessions, chunk, n_steps = 3, 24, 120
    values = [_series(k).values.copy() for k in range(k_sessions)]
    for k in range(k_sessions):
        values[k][220:] += 3.0
    offsets = [0, 7, 19]  # per-session warm-up stagger, inside one chunk
    fused_dets, ref_dets = [], []
    for build in (fused_dets, ref_dets):
        for k in range(k_sessions):
            det = build_detector(spec, _series(k).n_channels, CONFIG)
            for t in range(WARMUP + offsets[k]):
                det.step(values[k][t])
            build.append(det)
    fleet = FleetEngine(fused_dets, min_fleet=1)
    for start in range(0, n_steps, chunk):
        blocks = [
            values[k][WARMUP + offsets[k] + start :][: min(chunk, n_steps - start)]
            for k in range(k_sessions)
        ]
        fused = fleet.step_chunk(blocks)
        for k in range(k_sessions):
            want = ref_dets[k].step_chunk(blocks[k])
            for got, expected in zip(fused[k], want):
                assert got.tobytes() == expected.tobytes()
    for fused_det, ref_det in zip(fused_dets, ref_dets):
        assert state_fingerprint(fused_det) == state_fingerprint(ref_det)
    # Clocks differ mod 32, so fires hit different rows of each drain.
    assert len({det.t % 32 for det in fused_dets}) == 3
    assert all(det.n_finetunes > 0 for det in fused_dets)
    manifest = fleet.manifest()
    assert manifest["fused_fraction"] == 1.0
    assert manifest["dirty_steps"] == 0 and manifest["stock_steps"] == 0


def test_fleet_checkpoint_bitwise_through_fused_finetunes():
    """Full-detector pickles match after fused fine-tunes: weights,
    gradients, Adam moments and step counts, RNG streams, events."""
    spec = AlgorithmSpec("ae", "sw", "regular")
    values = [_series(k).values for k in range(3)]
    fleet, fused_dets, ref_dets = _drain_both(
        spec, 3, 16, values, n_steps=96,
        shift=[(k, 230, 4.0) for k in range(3)],
    )
    assert fleet.manifest()["finetunes_fused"] > 0
    for fused_det, ref_det in zip(fused_dets, ref_dets):
        assert pickle.dumps(fused_det) == pickle.dumps(ref_det)


def test_fleet_k1_default_bypass():
    """K=1 drains bypass the fused machinery by default (min_fleet=2)."""
    spec = AlgorithmSpec("ae", "sw", "musigma")
    values = [_series(0).values]
    dets = _build_fleet(spec, 1, values)
    ref = _build_fleet(spec, 1, values)
    fleet = FleetEngine(dets)  # default min_fleet=2
    for start in range(WARMUP, WARMUP + 96, 16):
        blocks = [values[0][start : start + 16]]
        fused = fleet.step_chunk(blocks)
        want = ref[0].step_chunk(blocks[0])
        for got, expected in zip(fused[0], want):
            assert got.tobytes() == expected.tobytes()
    manifest = fleet.manifest()
    assert manifest["min_fleet"] == 2
    assert manifest["bypassed_drains"] == manifest["drains"] == 6
    assert manifest["fused_steps"] == 0 and manifest["stock_steps"] == 96
    assert state_fingerprint(dets[0]) == state_fingerprint(ref[0])


@pytest.mark.parametrize(
    "odd",
    [
        AlgorithmSpec("usad", "sw", "musigma"),
        AlgorithmSpec("pcb_iforest", "sw", "kswin"),
        AlgorithmSpec("online_arima", "sw", "musigma"),
    ],
    ids=lambda s: s.model,
)
def test_fleet_mixed_specs_fall_back_to_stock(odd):
    """A non-uniform member is stepped through its own engine, bitwise —
    also one whose model has no fused modules (PCB-iForest, ARIMA)."""
    values = [_series(k).values for k in range(3)]
    ae = AlgorithmSpec("ae", "sw", "musigma")
    specs = [ae, odd, ae]
    mixed = [build_detector(spec, 9, CONFIG) for spec in specs]
    reference = [build_detector(spec, 9, CONFIG) for spec in specs]
    for k in range(3):
        for t in range(WARMUP):
            mixed[k].step(values[k][t])
            reference[k].step(values[k][t])
    fleet = FleetEngine(mixed)
    for start in range(WARMUP, WARMUP + 96, 16):
        blocks = [v[start : start + 16] for v in values]
        fused = fleet.step_chunk(blocks)
        for k in range(3):
            want = reference[k].step_chunk(blocks[k])
            for got, expected in zip(fused[k], want):
                assert got.tobytes() == expected.tobytes()
    assert 1 in fleet.last_drain["stock"]  # the odd member never fuses
    for fused_det, ref_det in zip(mixed, reference):
        assert pickle.dumps(fused_det) == pickle.dumps(ref_det)
        if ref_det.model.fleet_modules() is not None:
            assert state_fingerprint(fused_det) == state_fingerprint(ref_det)


# ----------------------------------------------------------------------
# arena attach / detach / checkpoint round-trips
# ----------------------------------------------------------------------
def test_fleet_member_checkpoint_bitwise_vs_unfused():
    """A fleet member's checkpoint equals the never-fused detector's."""
    spec = AlgorithmSpec("ae", "sw", "musigma")
    values = [_series(k).values for k in range(3)]
    fleet, fused_dets, ref_dets = _drain_both(spec, 3, 16, values, n_steps=96)
    assert fleet._arena is not None and fleet._arena.synced()
    for fused_det, ref_det in zip(fused_dets, ref_dets):
        # Arena row views must pickle to the same bytes as standalone
        # arrays — a spilled fleet member is indistinguishable from one
        # that never joined a fleet.
        assert pickle.dumps(fused_det) == pickle.dumps(ref_det)


def test_fleet_detach_reattach_round_trip(tmp_path):
    """Detach → checkpoint → reload → rejoin stays bitwise."""
    spec = AlgorithmSpec("usad", "sw", "musigma")
    values = [_series(k).values for k in range(3)]
    fleet, fused_dets, ref_dets = _drain_both(spec, 3, 16, values, n_steps=96)
    arena = fleet._arena
    assert arena is not None
    # Detach one session: its parameters become standalone arrays with
    # unchanged bits; the other rows keep their arena views.
    member = fused_dets[1]
    before = [
        p.value.copy()
        for m in member.model.fleet_modules()
        for p in m.parameters()
    ]
    arena.detach_row(1)
    after = [
        p.value for m in member.model.fleet_modules() for p in m.parameters()
    ]
    for want, got in zip(before, after):
        assert got.base is None
        assert got.tobytes() == want.tobytes()
    # Round-trip the detached member through a checkpoint file.
    path = tmp_path / "member.ckpt"
    save_detector(member, path)
    fused_dets[1] = load_detector(path)
    fleet.detectors[1] = fused_dets[1]
    # The next drain rebuilds the arena (the reloaded member's params are
    # rebound) and the fleet keeps matching the reference bitwise.
    assert not arena.synced()
    for start in range(WARMUP + 96, WARMUP + 192, 16):
        blocks = [v[start : start + 16] for v in values]
        fused = fleet.step_chunk(blocks)
        for k in range(3):
            want = ref_dets[k].step_chunk(blocks[k])
            for got, expected in zip(fused[k], want):
                assert got.tobytes() == expected.tobytes()
    for fused_det, ref_det in zip(fused_dets, ref_dets):
        assert state_fingerprint(fused_det) == state_fingerprint(ref_det)
    assert fleet._arena.synced()


def test_arena_survives_in_place_finetunes():
    """Optimizer updates mutate arena rows in place; no rebuild needed."""
    spec = AlgorithmSpec("ae", "sw", "regular")
    values = [_series(k).values for k in range(3)]
    fleet, fused_dets, _ = _drain_both(spec, 3, 16, values, n_steps=96)
    assert any(det.n_finetunes > 0 for det in fused_dets)
    assert fleet._arena is not None and fleet._arena.synced()


def test_arena_rejects_mismatched_shapes():
    specs = [
        build_detector(AlgorithmSpec("ae", "sw", "never"), 9, CONFIG),
        build_detector(
            AlgorithmSpec("ae", "sw", "never"),
            9,
            DetectorConfig(window=12, train_capacity=32, fit_epochs=1),
        ),
    ]
    values = _series(0).values
    for det in specs:
        for t in range(WARMUP):
            det.step(values[t])
    with pytest.raises(FleetIncompatible):
        ParameterArena([det.model.fleet_modules() for det in specs])


# ----------------------------------------------------------------------
# kernel probes: the bitwise substrate of the fused path
# ----------------------------------------------------------------------
def test_probe_tiled_forward_matches_plain_gemm():
    rng = np.random.default_rng(7)
    w = rng.normal(size=(144, 36))
    rows = rng.normal(size=(13, 144))
    tiled = tiled_forward(lambda x: x @ w, rows)
    plain = np.stack([row[None] @ w for row in rows])[:, 0]
    assert tiled.tobytes() == plain.tobytes()
    assert BATCH_TILE == 1  # chunk-1 latency depends on zero padding waste


def test_probe_session_axis_matmul_slices():
    rng = np.random.default_rng(8)
    stack = rng.normal(size=(5, 7, 1, 36))
    w = rng.normal(size=(36, 17))
    fused = stack @ w
    for k in range(5):
        assert fused[k].tobytes() == (stack[k] @ w).tobytes()
        for t in range(7):
            assert fused[k, t].tobytes() == (stack[k, t] @ w).tobytes()


def test_probe_row_mean_matches_per_row():
    rng = np.random.default_rng(9)
    for dim in (1, 16, 17, 144):
        block = rng.normal(size=(6, dim))
        fused = block.mean(axis=1)
        for i in range(6):
            assert fused[i] == block[i].mean()
        gathered = block[np.array([4, 1, 3])]
        assert gathered.mean(axis=1).tobytes() == np.array(
            [block[4].mean(), block[1].mean(), block[3].mean()]
        ).tobytes()


def test_probe_time_axis_cumsum_matches_running_sum():
    """A seeded ``np.cumsum`` along the time axis, carried across a block
    boundary, is the per-row ``+=`` fold bit for bit."""
    rng = np.random.default_rng(17)
    seed = rng.normal(size=(5, 24)) * 1e3
    deltas = rng.normal(size=(5, 12, 24))
    looped = seed.copy()
    want = []
    for j in range(12):
        looped += deltas[:, j]
        want.append(looped.copy())
    blocks = []
    carried = seed
    for block in (deltas[:, :5], deltas[:, 5:]):
        seeded = np.concatenate((carried[:, None], block), axis=1)
        sums = np.cumsum(seeded, axis=1)[:, 1:]
        blocks.append(sums)
        carried = sums[:, -1]
    fused = np.concatenate(blocks, axis=1)
    assert fused.tobytes() == np.stack(want, axis=1).tobytes()


def test_probe_time_axis_row_mean_matches_per_step():
    """``(K, B, D).mean(axis=2)`` is the per-step ``(K, D).mean(axis=1)``."""
    rng = np.random.default_rng(18)
    for dim in (1, 16, 17, 144):
        block = rng.normal(size=(6, 9, dim))
        fused = block.mean(axis=2)
        for j in range(9):
            assert fused[:, j].tobytes() == block[:, j].mean(axis=1).tobytes()


def test_probe_scatter_add_matches_per_row():
    rng = np.random.default_rng(10)
    base = rng.normal(size=(5, 12))
    add = rng.normal(size=(3, 12))
    idx = np.array([0, 2, 4])
    scattered = base.copy()
    scattered[idx] += add
    looped = base.copy()
    for j, k in enumerate(idx):
        looped[k] += add[j]
    assert scattered.tobytes() == looped.tobytes()


def test_probe_zero_removed_row_replay():
    """x + (a - 0.0) and x + (a² - 0.0²) are bit-identical to appends."""
    rng = np.random.default_rng(11)
    x = rng.normal(size=72)
    a = rng.normal(size=72)
    assert (x + (a - 0.0)).tobytes() == (x + a).tobytes()
    assert (x + (a**2 - 0.0**2)).tobytes() == (x + a**2).tobytes()


def test_probe_session_axis_training_grads():
    """The fused backward's stacked matmuls slice to per-session grads."""
    rng = np.random.default_rng(12)
    x = rng.normal(size=(4, 9, 36))
    w = rng.normal(size=(4, 36, 17))
    g = rng.normal(size=(4, 9, 17))
    fwd = np.matmul(x, w)
    w_grad = np.matmul(x.transpose(0, 2, 1), g)
    b_grad = g.sum(axis=1)
    x_grad = np.matmul(g, w.transpose(0, 2, 1))
    for k in range(4):
        assert fwd[k].tobytes() == (x[k] @ w[k]).tobytes()
        assert w_grad[k].tobytes() == (x[k].T @ g[k]).tobytes()
        assert b_grad[k].tobytes() == g[k].sum(axis=0).tobytes()
        assert x_grad[k].tobytes() == (g[k] @ w[k].T).tobytes()


def test_probe_adam_lane_bias_broadcast():
    """Per-session bias corrections broadcast over (K, 1, ...) columns
    exactly as the scalar per-session Adam expressions."""
    rng = np.random.default_rng(13)
    counts = [3, 7, 11]
    beta1, beta2, lr, eps = 0.9, 0.999, 3e-3, 1e-8
    m = rng.normal(size=(3, 36, 17))
    v = rng.normal(size=(3, 36, 17)) ** 2
    bias1 = np.array([1.0 - beta1**c for c in counts])
    bias2 = np.array([1.0 - beta2**c for c in counts])
    shape = (3,) + (1,) * (m.ndim - 1)
    fused = lr * (m / bias1.reshape(shape)) / (
        np.sqrt(v / bias2.reshape(shape)) + eps
    )
    for k, count in enumerate(counts):
        solo = lr * (m[k] / (1.0 - beta1**count)) / (
            np.sqrt(v[k] / (1.0 - beta2**count)) + eps
        )
        assert fused[k].tobytes() == solo.tobytes()


def test_probe_fancy_gather_minibatch():
    """(K, B)-indexed minibatch gather slices to per-session takes,
    including the ragged final batch."""
    rng = np.random.default_rng(14)
    flat = rng.normal(size=(3, 32, 20))
    orders = np.stack([rng.permutation(32) for _ in range(3)])
    rows = np.arange(3)[:, None]
    for start in (0, 24):  # 24 → final partial batch of 8
        idx = orders[:, start : start + 12]
        batch = flat[rows, idx]
        for k in range(3):
            assert batch[k].tobytes() == flat[k][idx[k]].tobytes()


def test_probe_fleet_scorer_lane_bitwise():
    """`AnomalyLikelihood.fleet_update_batch` equals per-scorer
    `update_batch` and the scalar `update` bitwise — ragged spans,
    warm-ring fallback, mixed parameters, extreme ``z`` — and leaves
    identical ring state behind."""
    import pickle

    from repro.scoring.anomaly_score import (
        AnomalyLikelihood,
        _likelihoods,
        gaussian_tail,
    )

    # The vectorized tail against the scalar reference where erfc
    # saturates, at signed zeros and on a subnormal.
    z = np.array([40.0, -40.0, 0.0, -0.0, 5e-324, -5e-324, 1e-310])
    want = np.array([1.0 - gaussian_tail(x) for x in z.tolist()])
    assert _likelihoods(z).tobytes() == want.tobytes()

    rng = np.random.default_rng(16)

    def warmed(seed, k=64, n_warm=200):
        scorer = AnomalyLikelihood(k=k)
        scorer.update_batch(np.random.default_rng(seed).normal(size=n_warm))
        return scorer

    # Ragged spans across a 4-session lane, plus a still-warming ring
    # (scalar-path region) and a mismatched-k session that must fall
    # back — the lane result must not depend on who shares the stack.
    scorers = [warmed(s) for s in range(4)]
    scorers.append(warmed(4, n_warm=10))  # ring below k-1: scalar path
    scorers.append(warmed(5, k=32))  # different window length
    values = [rng.normal(size=b) for b in (16, 1, 7, 16, 5, 16)]
    reference = [pickle.loads(pickle.dumps(s)) for s in scorers]
    scalar = [pickle.loads(pickle.dumps(s)) for s in scorers]

    fused = AnomalyLikelihood.fleet_update_batch(scorers, values)
    for scorer, ref, one, vals, out in zip(
        scorers, reference, scalar, values, fused
    ):
        want = ref.update_batch(vals)
        assert out.tobytes() == want.tobytes()
        assert out.tobytes() == np.array([one.update(v) for v in vals]).tobytes()
        assert pickle.dumps(scorer.snapshot()) == pickle.dumps(ref.snapshot())


def test_train_micro_fix_identity():
    """The preallocated/hoisted `_train` loop equals the naive one."""
    from repro import nn
    from repro.models.autoencoder import TwoLayerAutoencoder

    rng = np.random.default_rng(15)
    windows = rng.normal(size=(50, 8, 6))
    current = TwoLayerAutoencoder(window=8, n_channels=6, seed=3)
    naive = TwoLayerAutoencoder(window=8, n_channels=6, seed=3)
    loss_current = current.fit(windows, epochs=3)

    naive.scaler.fit(windows)
    flat = naive.scaler.transform(windows).reshape(len(windows), -1)
    loss_naive = float("nan")
    for _ in range(3):
        order = naive._rng.permutation(len(flat))
        losses = []
        for start in range(0, len(flat), naive.batch_size):
            batch = flat[order[start : start + naive.batch_size]]
            naive._optimizer.zero_grad()
            output = naive.network(batch)
            losses.append(nn.mse_loss(output, batch))
            naive.network.backward(nn.mse_loss_grad(output, batch))
            naive._optimizer.step()
        loss_naive = float(np.mean(losses))
    naive._fitted = True

    assert loss_current == loss_naive
    for p_cur, p_old in zip(current.network.parameters(), naive.network.parameters()):
        assert p_cur.value.tobytes() == p_old.value.tobytes()
