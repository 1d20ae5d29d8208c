"""Parallel experiment engine: fan (algorithm, series) cells over processes.

The paper's evaluation is a grid — 26 algorithms x corpora x scorers x
series — whose cells are *embarrassingly parallel*: every cell builds a
fresh detector, streams one series, and never shares state with any other
cell.  This module exploits that:

- :class:`CorpusCell` is a picklable description of one grid cell
  (spec + series + config + scorer + resolved seed); the worker rebuilds
  the detector *inside* the worker process, so no model state ever
  crosses a process boundary.
- :class:`ParallelCorpusRunner` fans cells out over a
  :class:`~concurrent.futures.ProcessPoolExecutor`, collects outcomes in
  submission order, and captures worker-side exceptions as
  :class:`CellFailure` records — one bad cell reports its traceback
  instead of killing the whole grid.
- Determinism: a cell's seed is resolved *before* dispatch (either the
  shared config seed, or a stable per-cell hash via
  :func:`derive_cell_seed`), so an ``n_jobs=1`` run and an ``n_jobs=8``
  run produce bitwise-identical scores.

``run_corpus``-style closures cannot be pickled; for those the module
falls back to fork-inherited state (see :func:`run_corpus_parallel`),
which is why factory-based parallelism requires a platform with the
``fork`` start method (Linux).  Spec-based cells work everywhere.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Sequence

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


def derive_cell_seed(base_seed: int, *parts: object) -> int:
    """Stable per-cell seed from a base seed and identifying strings.

    Uses blake2b over the joined parts, so the same (algorithm, scorer,
    series) cell gets the same seed in every process, on every platform,
    in every run — the foundation of parallel == sequential determinism.
    """
    payload = "|".join([str(base_seed), *map(str, parts)]).encode()
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest[:4], "little")


@dataclass(frozen=True)
class CorpusCell:
    """One picklable grid cell: build a detector, stream one series.

    Attributes:
        spec: the (model, task1, task2) combination to build.
        series: the labelled stream for this cell.
        config: detector hyper-parameters.
        scorer: optional anomaly-scorer override (Table III runs every
            algorithm under several scorers).
        seed: optional per-cell seed; ``None`` keeps ``config.seed``
            (every cell identically seeded, the historical behaviour).
            Use :func:`derive_cell_seed` for distinct-but-deterministic
            per-cell streams.
    """

    spec: AlgorithmSpec
    series: TimeSeries
    config: DetectorConfig = field(default_factory=DetectorConfig)
    scorer: str | None = None
    seed: int | None = None

    @property
    def label(self) -> str:
        scorer = self.scorer or self.config.scorer
        return f"{self.spec.label}/{scorer}/{self.series.name}"

    def build(self) -> StreamingAnomalyDetector:
        """Construct this cell's detector (called inside the worker)."""
        config = (
            self.config
            if self.seed is None
            else replace(self.config, seed=self.seed)
        )
        return build_detector(
            self.spec,
            n_channels=self.series.n_channels,
            config=config,
            scorer=self.scorer,
        )


@dataclass
class CellFailure:
    """A cell that raised inside its worker; the grid keeps going.

    ``retried`` is ``True`` once the runner's bounded retry pass has
    re-executed the cell and it failed again — the failure is final.
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

    def raise_on_failure(self) -> "GridResult":
        """Escalate the first captured failure (for callers that cannot
        tolerate partial grids, e.g. ``run_corpus``)."""
        for failure in self.failures:
            raise RuntimeError(
                f"grid cell {failure.label} failed in its worker:\n"
                f"{failure.traceback}"
            )
        return self


def _run_cell(
    payload: tuple[CorpusCell, int | None, bool],
) -> StreamResult | CellFailure:
    """Worker body: rebuild the detector, stream the series, capture errors."""
    cell, progress_every, trace = payload
    try:
        return run_stream(
            cell.build(),
            cell.series,
            progress_every=progress_every,
            batch_size=OFFLINE_CHUNK,
            telemetry=Telemetry() if trace else None,
        )
    except Exception as exc:  # noqa: BLE001 — one cell must not kill the grid
        return CellFailure(
            label=cell.label,
            series_name=cell.series.name,
            error_type=type(exc).__name__,
            message=str(exc),
            traceback=traceback.format_exc(),
        )


class ParallelCorpusRunner:
    """Run (algorithm, series) cells over a process pool, in order.

    Args:
        n_jobs: worker processes; ``None``/``0``/``1`` run sequentially
            in-process (no pool, no pickling), ``-1`` uses every CPU.
        chunksize: cells handed to a worker per dispatch.  1 (default)
            gives the best load balance for heterogeneous cells; raise it
            when cells are tiny and numerous to amortize IPC.
        trace: collect per-cell :class:`~repro.obs.Telemetry` inside each
            worker and merge the snapshots into ``GridResult.telemetry``.
        retries: bounded re-execution budget for failed cells (default 1).
            A retried cell rebuilds its detector from scratch with the
            same resolved seed, so a deterministic failure fails again
            and a transient one (worker OOM-kill, flaky I/O) recovers.

    The executor is created per :meth:`run` call so a runner instance is
    cheap, stateless and reusable.
    """

    def __init__(
        self,
        n_jobs: int | None = None,
        chunksize: int = 1,
        trace: bool = False,
        retries: int = 1,
    ) -> None:
        if chunksize < 1:
            raise ValueError(f"chunksize must be >= 1, got {chunksize}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.n_jobs = resolve_n_jobs(n_jobs)
        self.chunksize = chunksize
        self.trace = trace
        self.retries = retries

    def run(
        self,
        cells: Sequence[CorpusCell],
        progress: bool = False,
        progress_every: int | None = None,
    ) -> GridResult:
        """Execute every cell; outcomes stay aligned with ``cells``.

        Failed cells get up to ``retries`` fresh re-executions (same
        seed, new detector) before their :class:`CellFailure` is final;
        the retry accounting lands in ``GridResult.telemetry``.

        Args:
            cells: the grid to run.
            progress: print one line per completed cell.
            progress_every: forwarded to :func:`run_stream` (per-step
                progress inside a cell; with a pool the workers' lines
                interleave on shared stdout).
        """
        payloads = [(cell, progress_every, self.trace) for cell in cells]
        outcomes: list[StreamResult | CellFailure] = []
        if self.n_jobs == 1 or len(cells) <= 1:
            iterator: Iterable[StreamResult | CellFailure] = map(
                _run_cell, payloads
            )
        else:
            executor = ProcessPoolExecutor(
                max_workers=min(self.n_jobs, len(cells))
            )
            iterator = executor.map(
                _run_cell, payloads, chunksize=self.chunksize
            )
        try:
            for index, outcome in enumerate(iterator):
                outcomes.append(outcome)
                if progress:
                    self._print_progress(index, len(cells), cells[index], outcome)
        finally:
            if self.n_jobs > 1 and len(cells) > 1:
                executor.shutdown(wait=True)
        n_retries, n_recovered = self._retry_failures(payloads, outcomes, progress)
        return GridResult(
            outcomes=outcomes,
            telemetry=self._rollup(outcomes, n_retries, n_recovered),
        )

    def _retry_failures(
        self,
        payloads: list[tuple[CorpusCell, int | None, int, bool]],
        outcomes: list[StreamResult | CellFailure],
        progress: bool,
    ) -> tuple[int, int]:
        """Re-execute failed cells in-process, up to ``self.retries`` each.

        Retries run sequentially in the parent process (the pool is gone
        by now): failures are rare, and an in-process run surfaces any
        environment-specific breakage directly.  Returns
        ``(n_retries, n_recovered)``.
        """
        n_retries = 0
        n_recovered = 0
        if self.retries == 0:
            return n_retries, n_recovered
        for index, outcome in enumerate(outcomes):
            if not isinstance(outcome, CellFailure):
                continue
            final = outcome
            for _ in range(self.retries):
                n_retries += 1
                attempt = _run_cell(payloads[index])
                if isinstance(attempt, StreamResult):
                    outcomes[index] = attempt
                    n_recovered += 1
                    if progress:
                        print(f"  [retry] {final.label}: recovered")
                    final = None
                    break
                final = attempt
            if final is not None:
                final.retried = True
                outcomes[index] = final
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

    @staticmethod
    def _print_progress(
        index: int,
        total: int,
        cell: CorpusCell,
        outcome: StreamResult | CellFailure,
    ) -> None:
        if isinstance(outcome, CellFailure):
            print(f"  [{index + 1}/{total}] {cell.label}: FAILED ({outcome.error_type})")
        else:
            print(
                f"  [{index + 1}/{total}] {cell.label}: "
                f"{outcome.n_finetunes} finetunes, "
                f"{outcome.runtime_seconds:.1f}s"
            )


def build_cells(
    specs: Sequence[AlgorithmSpec],
    corpus: Sequence[TimeSeries],
    config: DetectorConfig,
    scorers: Sequence[str | None] = (None,),
    per_cell_seeds: bool = False,
) -> list[CorpusCell]:
    """Cross specs x scorers x series into an ordered cell list.

    With ``per_cell_seeds`` every cell gets a distinct deterministic seed
    derived from ``config.seed`` and the cell's identity; otherwise all
    cells share ``config.seed`` (the historical sequential behaviour,
    which keeps existing experiment outputs unchanged).
    """
    cells = []
    for spec in specs:
        for scorer in scorers:
            for series in corpus:
                seed = (
                    derive_cell_seed(config.seed, spec.label, scorer, series.name)
                    if per_cell_seeds
                    else None
                )
                cells.append(
                    CorpusCell(
                        spec=spec,
                        series=series,
                        config=config,
                        scorer=scorer,
                        seed=seed,
                    )
                )
    return cells


# ----------------------------------------------------------------------
# factory-closure support (run_corpus) via fork-inherited state
# ----------------------------------------------------------------------
#: Factory shared with forked workers; closures cannot be pickled, but a
#: fork child inherits the parent's memory, so the factory set here right
#: before the pool starts is visible inside every worker.
_FORK_FACTORY: Callable[[TimeSeries], StreamingAnomalyDetector] | None = None


def _run_forked_series(
    payload: tuple[TimeSeries, int | None, bool],
) -> StreamResult | CellFailure:
    series, progress_every, trace = payload
    assert _FORK_FACTORY is not None, "worker started without a factory"
    try:
        return run_stream(
            _FORK_FACTORY(series),
            series,
            progress_every=progress_every,
            batch_size=OFFLINE_CHUNK,
            telemetry=Telemetry() if trace else None,
        )
    except Exception as exc:  # noqa: BLE001
        return CellFailure(
            label=series.name,
            series_name=series.name,
            error_type=type(exc).__name__,
            message=str(exc),
            traceback=traceback.format_exc(),
        )


def fork_start_method_available() -> bool:
    """Whether factory-closure parallelism is possible on this platform."""
    return "fork" in multiprocessing.get_all_start_methods()


def run_corpus_parallel(
    factory: Callable[[TimeSeries], StreamingAnomalyDetector],
    corpus: Sequence[TimeSeries],
    n_jobs: int,
    progress: bool = False,
    progress_every: int | None = None,
    trace: bool = False,
) -> list[StreamResult | CellFailure]:
    """Stream every series through ``factory`` detectors, ``n_jobs`` at a time.

    The factory may be an arbitrary closure: workers are forked, so they
    inherit it rather than unpickling it.  Falls back to sequential
    execution when the platform has no ``fork`` start method.
    """
    global _FORK_FACTORY
    payloads = [(series, progress_every, trace) for series in corpus]
    if n_jobs <= 1 or len(corpus) <= 1 or not fork_start_method_available():
        return [_run_forked_series_with(factory, p) for p in payloads]
    context = multiprocessing.get_context("fork")
    _FORK_FACTORY = factory
    try:
        with ProcessPoolExecutor(
            max_workers=min(n_jobs, len(corpus)), mp_context=context
        ) as executor:
            outcomes = []
            for index, outcome in enumerate(
                executor.map(_run_forked_series, payloads)
            ):
                outcomes.append(outcome)
                if progress and not isinstance(outcome, CellFailure):
                    print(
                        f"  [{index + 1}/{len(corpus)}] {corpus[index].name}: "
                        f"{outcome.n_finetunes} finetunes, "
                        f"{outcome.runtime_seconds:.1f}s"
                    )
            return outcomes
    finally:
        _FORK_FACTORY = None


def _run_forked_series_with(factory, payload):
    global _FORK_FACTORY
    previous = _FORK_FACTORY
    _FORK_FACTORY = factory
    try:
        return _run_forked_series(payload)
    finally:
        _FORK_FACTORY = previous


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
