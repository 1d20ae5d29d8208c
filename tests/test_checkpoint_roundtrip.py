"""Mid-stream checkpoint/restore must resume bitwise-identically.

The contract pinned here: for any registry algorithm and any chunk size,
cutting a stream at step ``c``, checkpointing, loading, and streaming the
remainder produces exactly the score/nonconformity/event sequence of the
uninterrupted run.  The cut points cover every interesting detector
phase: mid-warm-up (before the initial fit), just after the initial fit,
and deep in the stream after drift-triggered fine-tunes — including cuts
that fall in the middle of a chunk boundary for ``batch_size`` 7 and 64,
which exercises the chunked engine's rolling buffers, mirrored score
rings and nonconformity snapshots across the pickle boundary.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import DetectorConfig
from repro.core.registry import AlgorithmSpec, build_detector
from repro.streaming import (
    load_detector,
    peek_checkpoint,
    save_detector,
    transfer_checkpoint,
)

#: A registry slice spanning the model families and both Task-2 drift
#: detectors (the full 26-spec grid runs in the experiment harness; this
#: slice keeps the test suite fast while covering every stateful code
#: path: AE forward, ARIMA recursion, iForest ensembles, ARES scoring
#: feedback and KSWIN windows).
SPECS = [
    ("ae", "sw", "kswin"),
    ("online_arima", "sw", "musigma"),
    ("pcb_iforest", "sw", "kswin"),
    ("usad", "ares", "kswin"),
]

#: Cut points: mid-warm-up (20), just past the initial fit (45), and
#: post-drift (380, after the level shift at step 300).  None is aligned
#: with batch_size 7 or 64, so mid-chunk resume is always exercised.
CUTS = (20, 45, 380)

CONFIG = DetectorConfig(
    window=6,
    train_capacity=24,
    fit_epochs=3,
    initial_train_size=40,
    kswin_check_every=1,
)


def make_stream(n=600, seed=3):
    rng = np.random.default_rng(seed)
    t = np.arange(n, dtype=np.float64)
    values = np.stack(
        [np.sin(2 * np.pi * t / 30), np.cos(2 * np.pi * t / 30)], axis=1
    )
    # A level shift halfway through keeps the drift detectors firing, so
    # the post-fine-tune state is exercised across the pickle boundary.
    values[n // 2 :] *= 2.5
    values[n // 2 :] += 1.0
    return values + rng.normal(scale=0.08, size=values.shape)


def run_chunked(detector, values, batch_size):
    scores, nonconformities = [], []
    for start in range(0, len(values), batch_size):
        a, f, _, _ = detector.step_chunk(values[start : start + batch_size])
        scores.append(f)
        nonconformities.append(a)
    return (
        np.concatenate(scores) if scores else np.empty(0),
        np.concatenate(nonconformities) if nonconformities else np.empty(0),
    )


@pytest.mark.parametrize("batch_size", [1, 7, 64])
@pytest.mark.parametrize("spec", SPECS, ids=["-".join(s) for s in SPECS])
class TestMidStreamResume:
    def test_resumed_scores_bitwise_identical(self, tmp_path, spec, batch_size):
        values = make_stream()
        reference = build_detector(AlgorithmSpec(*spec), n_channels=2, config=CONFIG)
        full_scores, full_nc = run_chunked(reference, values, batch_size)
        reference_events = [(e.t, e.reason) for e in reference.events]

        for cut in CUTS:
            detector = build_detector(
                AlgorithmSpec(*spec), n_channels=2, config=CONFIG
            )
            run_chunked(detector, values[:cut], batch_size)
            path = save_detector(detector, tmp_path / f"cut{cut}.pkl")
            resumed = load_detector(path)
            rest_scores, rest_nc = run_chunked(resumed, values[cut:], batch_size)

            assert np.array_equal(full_scores[cut:], rest_scores), (
                f"scores diverge after resume at cut={cut}"
            )
            assert np.array_equal(full_nc[cut:], rest_nc), (
                f"nonconformities diverge after resume at cut={cut}"
            )
            assert [(e.t, e.reason) for e in resumed.events] == reference_events


@pytest.mark.parametrize("batch_size", [7, 64])
def test_resume_across_engine_modes(tmp_path, batch_size):
    """A checkpoint taken under one chunk size resumes under another.

    Chunk-size invariance of the chunked engine extends across the
    pickle boundary: the persisted state is the sequential-reference
    state, not an artifact of the block size that produced it.
    """
    values = make_stream()
    cut = 380
    reference = build_detector(
        AlgorithmSpec("ae", "sw", "kswin"), n_channels=2, config=CONFIG
    )
    full_scores, _ = run_chunked(reference, values, 1)

    detector = build_detector(
        AlgorithmSpec("ae", "sw", "kswin"), n_channels=2, config=CONFIG
    )
    run_chunked(detector, values[:cut], batch_size)
    resumed = load_detector(save_detector(detector, tmp_path / "cross.pkl"))
    rest_scores, _ = run_chunked(resumed, values[cut:], 1)
    assert np.array_equal(full_scores[cut:], rest_scores)


def test_checkpoint_with_stale_event_loss_resumes(tmp_path):
    """A v5 checkpoint whose fine-tune events still carry ``loss_before``.

    Checkpoints written before events dropped that field pickle it in
    every event.  No step reads an event, so such a checkpoint must load
    and finish the stream bitwise like an uninterrupted run.
    """
    values = make_stream()
    cut = 380
    spec = AlgorithmSpec("ae", "sw", "kswin")
    reference = build_detector(spec, n_channels=2, config=CONFIG)
    full_scores, full_nc = run_chunked(reference, values, 7)

    detector = build_detector(spec, n_channels=2, config=CONFIG)
    run_chunked(detector, values[:cut], 7)
    assert detector.n_finetunes >= 1
    for event in detector.events:
        event.loss_before = 0.5
    resumed = load_detector(save_detector(detector, tmp_path / "v5.pkl"))
    rest_scores, rest_nc = run_chunked(resumed, values[cut:], 7)

    assert np.array_equal(full_scores[cut:], rest_scores)
    assert np.array_equal(full_nc[cut:], rest_nc)
    assert [
        (e.t, e.reason, e.train_set_size, repr(e.loss_after))
        for e in resumed.events
    ] == [
        (e.t, e.reason, e.train_set_size, repr(e.loss_after))
        for e in reference.events
    ]


_CHILD_RESUME = """\
import sys

import numpy as np

from repro.streaming import load_detector

checkpoint, values_path, out = sys.argv[1:4]
detector = load_detector(checkpoint)
values = np.load(values_path)
scores = []
for start in range(len(values)):
    _, f, _, _ = detector.step_chunk(values[start : start + 1])
    scores.append(f)
np.save(out, np.concatenate(scores))
"""


def test_resume_in_a_fresh_process_is_bitwise_identical(tmp_path):
    """Checkpoint pickled here, loaded and resumed in a freshly spawned
    interpreter — the boundary live migration and crash recovery cross.

    Same-process round-trips can hide state that leaks through module
    globals or interned objects; a child process shares nothing but the
    checkpoint bytes, so whatever resumes there is exactly what the file
    carries.
    """
    values = make_stream()
    cut = 380
    reference = build_detector(
        AlgorithmSpec("ae", "sw", "kswin"), n_channels=2, config=CONFIG
    )
    full_scores, _ = run_chunked(reference, values, 1)

    detector = build_detector(
        AlgorithmSpec("ae", "sw", "kswin"), n_channels=2, config=CONFIG
    )
    run_chunked(detector, values[:cut], 1)
    checkpoint = save_detector(detector, tmp_path / "parent.pkl")

    # Ship the spill bytes the way the router does, and sanity-check the
    # meta block a router reads to compute the resume sequence number.
    shipped = tmp_path / "target" / "parent.pkl"
    meta = transfer_checkpoint(checkpoint, shipped)
    assert meta == peek_checkpoint(shipped)
    assert meta["t"] == cut - 1, "meta t must be the last processed index"

    values_path = tmp_path / "rest.npy"
    out = tmp_path / "child-scores.npy"
    np.save(values_path, values[cut:])
    src_dir = Path(__file__).resolve().parents[1] / "src"
    subprocess.run(
        [sys.executable, "-c", _CHILD_RESUME, str(shipped), str(values_path),
         str(out)],
        check=True,
        env={**os.environ, "PYTHONPATH": str(src_dir)},
        cwd=tmp_path,
        timeout=300,
    )
    child_scores = np.load(out)
    assert np.array_equal(full_scores[cut:], child_scores), (
        "scores resumed in a fresh process diverge from the parent run"
    )


# ----------------------------------------------------------------------
# cross-spec warm-start (the hot-swap resume primitive)
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "target", [("online_arima", "sw", "musigma"), ("usad", "ares", "kswin")],
    ids=["arima", "usad"],
)
def test_cross_spec_warm_start_continues_the_clock(tmp_path, target):
    """Checkpoint spec A at a cut, resume under spec B at ``t + 1``.

    This is the primitive a hot-swap promotion (and a ``resume`` with a
    new spec) is built on: the new detector's clock continues exactly
    where the old one stopped — no stream index skipped or scored twice
    — and its scores are bitwise what a clock-preset spec-B detector
    produces over the remainder, independent of *how* the offset was
    obtained (peeked from checkpoint metadata vs. set directly).
    """
    from repro.select import warm_start_detector, warm_start_from_checkpoint

    values = make_stream()
    cut = 380
    label = "+".join(target)
    old = build_detector(
        AlgorithmSpec("ae", "sw", "kswin"), n_channels=2, config=CONFIG
    )
    run_chunked(old, values[:cut], 7)
    checkpoint = save_detector(old, tmp_path / "a.pkl")
    assert peek_checkpoint(checkpoint)["t"] == cut - 1

    resumed = warm_start_from_checkpoint(
        checkpoint, label, 2, config=CONFIG
    )
    assert resumed.t == cut - 1  # next point scored is stream index `cut`
    resumed_scores, _ = run_chunked(resumed, values[cut:], 7)
    assert resumed.t == len(values) - 1  # no skip, no double

    reference = warm_start_detector(label, 2, config=CONFIG, at=cut)
    reference_scores, _ = run_chunked(reference, values[cut:], 7)
    assert np.array_equal(resumed_scores, reference_scores)
    # The clock offset must show up in the new spec's event log, so a
    # post-swap fine-tune is attributed to the right stream index.
    assert all(event.t >= cut for event in resumed.events)


def test_warm_start_rejects_bad_inputs(tmp_path):
    from repro.core.exceptions import ConfigurationError
    from repro.select import warm_start_detector, warm_start_from_checkpoint

    with pytest.raises(ConfigurationError):
        warm_start_detector("ae+sw", 2)
    with pytest.raises(ConfigurationError):
        warm_start_detector("ae+sw+kswin", 2, at=-3)
    detector = build_detector(
        AlgorithmSpec("ae", "sw", "kswin"), n_channels=2, config=CONFIG
    )
    run_chunked(detector, make_stream()[:50], 7)
    checkpoint = save_detector(detector, tmp_path / "a.pkl")
    with pytest.raises(ConfigurationError):
        warm_start_from_checkpoint(checkpoint, "not-a-spec", 2)
