"""Drive a detector over a labelled stream and collect aligned results."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np
from numpy.typing import NDArray

from repro.core.detector import StreamingAnomalyDetector
from repro.core.types import FineTuneEvent, FloatArray, TimeSeries, count_finetunes
from repro.obs import NULL_TELEMETRY, STAGE_PREFIX, Telemetry

#: Rows per ``step_chunk`` block when the offline drivers (``run_corpus``,
#: which the sweeps call, and
#: :class:`~repro.streaming.parallel.ParallelCorpusRunner`) stream a
#: series.  Results are bitwise invariant to the block size; 256 rows
#: amortise the per-block overhead.
OFFLINE_CHUNK = 256


@dataclass
class StreamResult:
    """Scores and events from one detector run over one series.

    All arrays are aligned with the input series (length ``T``); the
    warm-up region — before the representation buffer filled and the
    initial model fit happened — holds zeros and is excluded by
    :meth:`scored_region`.
    """

    series_name: str
    algorithm: str
    scores: FloatArray
    nonconformities: FloatArray
    labels: NDArray[np.int_]
    first_scored: int
    events: list[FineTuneEvent] = field(default_factory=list)
    drift_steps: list[int] = field(default_factory=list)
    runtime_seconds: float = 0.0
    #: :meth:`Telemetry.as_dict` snapshot for traced runs, else ``None``.
    telemetry: dict[str, Any] | None = None

    @property
    def n_steps(self) -> int:
        return int(self.scores.size)

    @property
    def n_finetunes(self) -> int:
        """Fine-tuning sessions excluding the initial fit."""
        return count_finetunes(self.events)

    def scored_region(self) -> tuple[FloatArray, NDArray[np.int_]]:
        """``(scores, labels)`` restricted to the post-warm-up region."""
        return (
            self.scores[self.first_scored :],
            self.labels[self.first_scored :],
        )


def run_stream(
    detector: StreamingAnomalyDetector,
    series: TimeSeries,
    batch_size: int = 1,
    telemetry: Telemetry | None = None,
) -> StreamResult:
    """Feed every stream vector of ``series`` through ``detector``.

    Args:
        detector: a freshly built detector (call :meth:`reset` to reuse one).
        series: the labelled stream.
        batch_size: process the stream through
            :meth:`StreamingAnomalyDetector.step_chunk` in blocks of this
            many steps (>= 1).  The results are bitwise invariant to the
            chosen block size; 1 is the sequential reference.
        telemetry: when given, attached to the detector for the duration
            of the run; the result carries an :meth:`Telemetry.as_dict`
            snapshot.  Telemetry never feeds back into the computation,
            so traced scores are bitwise identical to untraced ones.

    Returns:
        A :class:`StreamResult` with scores aligned to the series.
    """
    if telemetry is not None:
        detector.telemetry = telemetry
    # Duck-typed detectors (e.g. score-fusion ensembles) need not carry a
    # telemetry slot; they simply run untraced.
    tel = getattr(detector, "telemetry", NULL_TELEMETRY)
    n_steps = series.n_steps
    scores = np.zeros(n_steps, dtype=np.float64)
    nonconformities = np.zeros(n_steps, dtype=np.float64)
    drift_steps: list[int] = []
    started = time.perf_counter()
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    values = series.values
    for start in range(0, n_steps, batch_size):
        block = values[start : start + batch_size]
        a_block, f_block, drift_block, _ = detector.step_chunk(block)
        stop = start + len(block)
        scores[start:stop] = f_block
        nonconformities[start:stop] = a_block
        if drift_block.any():
            drift_steps.extend((start + np.flatnonzero(drift_block)).tolist())
    runtime = time.perf_counter() - started
    if tel.enabled:
        tel.add_time(STAGE_PREFIX + "stream", runtime)
    first_scored = (
        detector.first_scored_step
        if detector.first_scored_step is not None
        else n_steps
    )
    return StreamResult(
        series_name=series.name,
        algorithm=type(detector.model).name,
        scores=scores,
        nonconformities=nonconformities,
        labels=series.labels.copy(),
        first_scored=first_scored,
        events=list(detector.events),
        drift_steps=drift_steps,
        runtime_seconds=runtime,
        telemetry=tel.as_dict() if tel.enabled else None,
    )
