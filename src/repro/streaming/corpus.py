"""Run one algorithm across a corpus of series with aggregated results."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.detector import StreamingAnomalyDetector
from repro.core.types import TimeSeries
from repro.obs import Telemetry
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


def run_corpus(
    factory: DetectorFactory,
    corpus: list[TimeSeries],
    progress: bool = False,
    progress_every: int | None = None,
    n_jobs: int | None = None,
    telemetry: Telemetry | None = None,
) -> CorpusResult:
    """Stream every series through a fresh detector from ``factory``.

    A fresh detector per series keeps runs independent (matching how the
    experiment harness and the paper evaluate); each series streams in
    blocks of :data:`~repro.streaming.runner.OFFLINE_CHUNK` rows.  Pass a
    closure capturing your spec/config:

        run_corpus(lambda s: build_detector(spec, s.n_channels, config),
                   make_daphnet(...))

    Args:
        factory: builds a detector for a given series (channel counts may
            differ across series).
        corpus: the labelled series to stream.
        progress: print one line per completed series.
        progress_every: forwarded to :func:`run_stream` — print a
            per-step progress line every N steps within each series.
        n_jobs: worker processes; ``None``/``0``/``1`` stream the corpus
            sequentially, ``-1`` uses every CPU.  Parallel workers are
            *forked* so the factory closure is inherited rather than
            pickled (Linux; other platforms fall back to sequential).
            Scores are bitwise-identical to a sequential run.
        telemetry: when given, accumulates counters/spans/events across
            the whole corpus.  Sequential runs attach it to every
            detector directly; parallel runs trace inside the workers
            and merge the per-series snapshots into it afterwards.

    Returns:
        A :class:`CorpusResult` wrapping the per-series stream results.

    Raises:
        RuntimeError: if a parallel worker's series run raised; the
            captured worker traceback is included.  (Use
            :class:`~repro.streaming.parallel.ParallelCorpusRunner` for
            grid runs that must survive individual cell failures.)
    """
    from repro.streaming.parallel import (
        CellFailure,
        resolve_n_jobs,
        run_corpus_parallel,
    )

    n = resolve_n_jobs(n_jobs)
    if n > 1 and len(corpus) > 1:
        outcomes = run_corpus_parallel(
            factory,
            corpus,
            n,
            progress=progress,
            progress_every=progress_every,
            trace=telemetry is not None,
        )
        for outcome in outcomes:
            if isinstance(outcome, CellFailure):
                raise RuntimeError(
                    f"series {outcome.series_name} failed in its worker:\n"
                    f"{outcome.traceback}"
                )
        if telemetry is not None:
            for outcome in outcomes:
                telemetry.merge_payload(outcome.telemetry)
        return CorpusResult(results=outcomes)

    results = []
    for index, series in enumerate(corpus):
        detector = factory(series)
        result = run_stream(
            detector,
            series,
            progress_every=progress_every,
            batch_size=OFFLINE_CHUNK,
            telemetry=telemetry,
        )
        results.append(result)
        if progress:
            print(
                f"  [{index + 1}/{len(corpus)}] {series.name}: "
                f"{result.n_finetunes} finetunes, "
                f"{result.runtime_seconds:.1f}s"
            )
    return CorpusResult(results=results)
