"""The detector's segment engine: decide, then score, where Task 1 allows.

A Task-1 strategy whose ``update`` ignores the score lets a segment run
Task 1 and Task 2 up to its first fire before scoring anything, so the
measure's ``precompute`` sees exactly the rows the segment commits.  The
chunk-invariance tests (``test_chunked_stream.py``) pin that the outputs
do not change; these pin that the work does.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import DetectorConfig
from repro.core.registry import build_algorithm_grid, build_detector
from repro.datasets.corpora import make_daphnet
from repro.learning import AnomalyAwareReservoir, SlidingWindow, UniformReservoir
from repro.streaming.runner import run_stream

#: the chunk-invariance fixture's detector config and series.
CONFIG = DetectorConfig(window=8, train_capacity=24, fit_epochs=1, kswin_check_every=4)
SCORE_BLIND = [spec for spec in build_algorithm_grid() if spec.task1 in ("sw", "ures")]


@pytest.fixture(scope="module")
def series():
    return make_daphnet(n_series=1, n_steps=260, clean_prefix=50, seed=0)[0]


@pytest.mark.parametrize("spec", SCORE_BLIND, ids=lambda s: s.label)
def test_precompute_sees_only_committed_rows(spec, series):
    """Streamed at chunk 64, every row ``precompute`` is handed is a row
    the detector commits: none is scored, discarded and scored again
    after a mid-chunk fine-tune."""
    detector = build_detector(spec, n_channels=series.n_channels, config=CONFIG)
    precompute = detector.nonconformity.precompute
    rows: list[int] = []

    def counting(windows, model):
        rows.append(len(windows))
        return precompute(windows, model)

    detector.nonconformity.precompute = counting
    result = run_stream(detector, series, batch_size=64)
    assert sum(rows) == series.n_steps - result.first_scored


def test_score_declarations():
    assert SlidingWindow.reads_score is False
    assert UniformReservoir.reads_score is False
    assert AnomalyAwareReservoir.reads_score is True


@pytest.mark.parametrize(
    "make",
    [
        lambda: SlidingWindow(8),
        lambda: UniformReservoir(8, rng=np.random.default_rng(3)),
    ],
    ids=["sw", "ures"],
)
def test_score_blind_strategies_ignore_the_score(make, rng):
    """What a score-blind strategy keeps, and every update it reports,
    is the same whatever scores come with the vectors."""
    vectors = rng.normal(size=(60, 4, 2))
    zero, scored = make(), make()
    for x, score in zip(vectors, rng.uniform(size=60)):
        a = zero.update(x, score=0.0)
        b = scored.update(x, score=float(score))
        assert a.kind == b.kind
        for left, right in ((a.added, b.added), (a.removed, b.removed)):
            assert (left is None) == (right is None)
            if left is not None:
                assert left.tobytes() == right.tobytes()
    assert zero.training_set().tobytes() == scored.training_set().tobytes()
