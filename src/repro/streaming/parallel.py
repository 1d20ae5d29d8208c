"""Parallel experiment engine: fan (algorithm, series) cells over processes.

The paper's evaluation is a grid — 26 algorithms x corpora x scorers x
series — whose cells are *embarrassingly parallel*: every cell builds a
fresh detector, streams one series, and never shares state with any other
cell.  This module exploits that:

- :class:`CorpusCell` is a picklable description of one grid cell
  (spec + series + config + scorer); the worker rebuilds the detector
  *inside* the worker process, so no model state ever crosses a process
  boundary.
- :class:`ParallelCorpusRunner` fans cells out over a
  :class:`~concurrent.futures.ProcessPoolExecutor`, collects outcomes in
  submission order, and captures failures as :class:`CellFailure`
  records — one bad cell, or one killed worker, reports instead of
  killing the whole grid.
- Determinism: every cell is seeded from its ``config.seed``, so an
  ``n_jobs=1`` run and an ``n_jobs=8`` run produce bitwise-identical
  scores.
"""

from __future__ import annotations

import os
import traceback
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.core.config import DetectorConfig
from repro.core.detector import StreamingAnomalyDetector
from repro.core.registry import AlgorithmSpec, build_detector
from repro.core.types import TimeSeries
from repro.obs import Telemetry
from repro.streaming.runner import OFFLINE_CHUNK, StreamResult, run_stream


def resolve_n_jobs(n_jobs: int | None) -> int:
    """Normalize an ``n_jobs`` knob: ``None``/``0``/``1`` mean sequential,
    negative means one worker per available CPU."""
    if n_jobs is None or n_jobs == 0:
        return 1
    if n_jobs < 0:
        return max(os.cpu_count() or 1, 1)
    return n_jobs


@dataclass(frozen=True)
class CorpusCell:
    """One picklable grid cell: build a detector, stream one series.

    Attributes:
        spec: the (model, task1, task2) combination to build.
        series: the labelled stream for this cell.
        config: detector hyper-parameters, ``config.seed`` included.
        scorer: optional anomaly-scorer override (Table III runs every
            algorithm under several scorers).
    """

    spec: AlgorithmSpec
    series: TimeSeries
    config: DetectorConfig = field(default_factory=DetectorConfig)
    scorer: str | None = None

    @property
    def label(self) -> str:
        scorer = self.scorer or self.config.scorer
        return f"{self.spec.label}/{scorer}/{self.series.name}"

    def build(self) -> StreamingAnomalyDetector:
        """Construct this cell's detector (called inside the worker)."""
        return build_detector(
            self.spec,
            n_channels=self.series.n_channels,
            config=self.config,
            scorer=self.scorer,
        )


@dataclass
class CellFailure:
    """A cell that raised, or whose worker died; the grid keeps going.

    ``retried`` is ``True`` once the runner's retry pass has re-executed
    the cell and it failed again — the failure is final.
    """

    label: str
    series_name: str
    error_type: str
    message: str
    traceback: str
    retried: bool = False

    def __str__(self) -> str:
        return f"{self.label}: {self.error_type}: {self.message}"


@dataclass
class GridResult:
    """Ordered outcomes of one grid run (aligned with the input cells)."""

    outcomes: list[StreamResult | CellFailure]
    #: grid-level telemetry rollup: cell accounting counters always;
    #: merged per-cell spans/counters/events when the run was traced.
    telemetry: dict | None = None

    @property
    def results(self) -> list[StreamResult]:
        """The successful cells, in submission order."""
        return [o for o in self.outcomes if isinstance(o, StreamResult)]

    @property
    def failures(self) -> list[CellFailure]:
        return [o for o in self.outcomes if isinstance(o, CellFailure)]

    @property
    def n_cells(self) -> int:
        return len(self.outcomes)


def _failure(cell: CorpusCell, exc: BaseException) -> CellFailure:
    """Record the exception being handled as ``cell``'s failure."""
    return CellFailure(
        label=cell.label,
        series_name=cell.series.name,
        error_type=type(exc).__name__,
        message=str(exc),
        traceback=traceback.format_exc(),
    )


def _run_cell(payload: tuple[CorpusCell, bool]) -> StreamResult | CellFailure:
    """Worker body: rebuild the detector, stream the series, capture errors."""
    cell, trace = payload
    try:
        return run_stream(
            cell.build(),
            cell.series,
            batch_size=OFFLINE_CHUNK,
            telemetry=Telemetry() if trace else None,
        )
    except Exception as exc:  # noqa: BLE001 — one cell must not kill the grid
        return _failure(cell, exc)


def _collect(future: Future, cell: CorpusCell) -> StreamResult | CellFailure:
    """A finished cell's outcome; a lost one (e.g. its worker was killed,
    which breaks the pool for every unfinished cell) becomes a failure."""
    try:
        return future.result()
    except Exception as exc:  # noqa: BLE001 — finished cells keep their outcomes
        return _failure(cell, exc)


class ParallelCorpusRunner:
    """Run (algorithm, series) cells over a process pool, in order.

    Args:
        n_jobs: worker processes; ``None``/``0``/``1`` run sequentially
            in-process (no pool, no pickling), ``-1`` uses every CPU.
            Cells are dispatched one per task, the best load balance for
            cells as uneven as the Table III grid's.
        trace: collect per-cell :class:`~repro.obs.Telemetry` inside each
            worker and merge the snapshots into ``GridResult.telemetry``.

    A failed cell is re-executed once, in-process, from a fresh detector
    with the same seed: a deterministic failure fails again and a
    transient one (a killed worker, flaky I/O) recovers.  The executor
    is created per :meth:`run` call so a runner instance is cheap,
    stateless and reusable.
    """

    def __init__(self, n_jobs: int | None = None, trace: bool = False) -> None:
        self.n_jobs = resolve_n_jobs(n_jobs)
        self.trace = trace

    def run(self, cells: Sequence[CorpusCell]) -> GridResult:
        """Execute every cell; outcomes stay aligned with ``cells``.

        The retry accounting lands in ``GridResult.telemetry``.
        """
        payloads = [(cell, self.trace) for cell in cells]
        if self.n_jobs == 1 or len(cells) <= 1:
            outcomes = [_run_cell(payload) for payload in payloads]
        else:
            with ProcessPoolExecutor(
                max_workers=min(self.n_jobs, len(cells))
            ) as executor:
                futures = [executor.submit(_run_cell, p) for p in payloads]
                outcomes = [_collect(f, cell) for f, cell in zip(futures, cells)]
        n_retries, n_recovered = self._retry_failures(payloads, outcomes)
        return GridResult(
            outcomes=outcomes,
            telemetry=self._rollup(outcomes, n_retries, n_recovered),
        )

    @staticmethod
    def _retry_failures(
        payloads: list[tuple[CorpusCell, bool]],
        outcomes: list[StreamResult | CellFailure],
    ) -> tuple[int, int]:
        """Re-execute each failed cell once, in-process.

        Retries run sequentially in the parent process (the pool is gone
        by now): failures are rare, and an in-process run surfaces any
        environment-specific breakage directly.  Returns
        ``(n_retries, n_recovered)``.
        """
        n_retries = 0
        n_recovered = 0
        for index, outcome in enumerate(outcomes):
            if not isinstance(outcome, CellFailure):
                continue
            n_retries += 1
            attempt = _run_cell(payloads[index])
            if isinstance(attempt, CellFailure):
                attempt.retried = True
            else:
                n_recovered += 1
            outcomes[index] = attempt
        return n_retries, n_recovered

    def _rollup(
        self,
        outcomes: list[StreamResult | CellFailure],
        n_retries: int,
        n_recovered: int,
    ) -> dict:
        """Grid-level telemetry: cell accounting + merged cell snapshots."""
        rollup = Telemetry()
        for outcome in outcomes:
            if isinstance(outcome, CellFailure):
                rollup.count("cells_failed")
                rollup.event(
                    "cell_failure",
                    label=outcome.label,
                    error_type=outcome.error_type,
                    retried=outcome.retried,
                )
            else:
                rollup.count("cells_ok")
                if self.trace:
                    rollup.merge_payload(outcome.telemetry)
        if n_retries:
            rollup.count("cell_retries", n_retries)
        if n_recovered:
            rollup.count("cells_recovered", n_recovered)
        return rollup.as_dict()


def build_cells(
    specs: Sequence[AlgorithmSpec],
    corpus: Sequence[TimeSeries],
    config: DetectorConfig,
    scorers: Sequence[str | None] = (None,),
) -> list[CorpusCell]:
    """Cross specs x scorers x series into an ordered cell list; every
    cell shares ``config`` and so ``config.seed``."""
    return [
        CorpusCell(spec=spec, series=series, config=config, scorer=scorer)
        for spec in specs
        for scorer in scorers
        for series in corpus
    ]


def parallel_map(fn: Callable, items: Sequence, n_jobs: int | None = None) -> list:
    """Order-preserving process-parallel map for picklable ``fn``/``items``.

    Used by experiment drivers whose units of work are plain functions
    (e.g. Table II's per-setting op-count measurements).  Sequential when
    ``n_jobs`` resolves to 1.
    """
    n = resolve_n_jobs(n_jobs)
    if n == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=min(n, len(items))) as executor:
        return list(executor.map(fn, items))
