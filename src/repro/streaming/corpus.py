"""Run one algorithm across a corpus of series with aggregated results."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.detector import StreamingAnomalyDetector
from repro.core.types import TimeSeries
from repro.streaming.runner import OFFLINE_CHUNK, StreamResult, run_stream

DetectorFactory = Callable[[TimeSeries], StreamingAnomalyDetector]


@dataclass
class CorpusResult:
    """Per-series results for one algorithm over one corpus."""

    results: list[StreamResult]

    @property
    def n_series(self) -> int:
        return len(self.results)

    @property
    def total_finetunes(self) -> int:
        return sum(result.n_finetunes for result in self.results)

    @property
    def total_runtime_seconds(self) -> float:
        return sum(result.runtime_seconds for result in self.results)

    def __iter__(self):
        return iter(self.results)


def run_corpus(factory: DetectorFactory, corpus: list[TimeSeries]) -> CorpusResult:
    """Stream every series through a fresh detector from ``factory``.

    A fresh detector per series keeps runs independent (matching how the
    experiment harness and the paper evaluate); each series streams in
    blocks of :data:`~repro.streaming.runner.OFFLINE_CHUNK` rows.  Pass a
    closure capturing your spec/config:

        run_corpus(lambda s: build_detector(spec, s.n_channels, config),
                   make_daphnet(...))

    The series stream one after another in this process, so the factory
    may be any callable; a detector it builds with a
    :class:`~repro.obs.Telemetry` attached is traced.  Grids of
    registry specs that should fan out over processes run through
    :class:`~repro.streaming.parallel.ParallelCorpusRunner` instead.

    Args:
        factory: builds a detector for a given series (channel counts may
            differ across series).
        corpus: the labelled series to stream.

    Returns:
        A :class:`CorpusResult` wrapping the per-series stream results.
    """
    return CorpusResult(
        results=[
            run_stream(factory(series), series, batch_size=OFFLINE_CHUNK)
            for series in corpus
        ]
    )
