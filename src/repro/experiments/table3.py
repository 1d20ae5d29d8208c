"""Table III: the 26-algorithm evaluation over the three corpora.

Each algorithm runs over every series of a corpus with both the average
and anomaly-likelihood scoring functions; the reported row is the mean
over scorers and series — matching the paper's "results averaged across
both anomaly scores".  The final three rows of Table III (the anomaly-
score ablation) live in :mod:`repro.experiments.score_ablation`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import DetectorConfig
from repro.core.registry import AlgorithmSpec, build_algorithm_grid
from repro.datasets.corpora import make_corpus
from repro.experiments.evaluation import MetricRow, average_rows, evaluate_result
from repro.experiments.reporting import render_table
from repro.obs import NULL_TELEMETRY, STAGE_PREFIX, Telemetry
from repro.streaming.parallel import (
    CellFailure,
    GridResult,
    ParallelCorpusRunner,
    build_cells,
)


@dataclass
class Table3Row:
    """One algorithm's averaged metrics for one corpus."""

    spec: AlgorithmSpec
    metrics: MetricRow
    n_runs: int
    n_finetunes: float

    def cells(self) -> list:
        return [
            self.spec.model,
            self.spec.task1,
            self.spec.task2,
            self.metrics.precision,
            self.metrics.recall,
            self.metrics.auc,
            self.metrics.vus,
            self.metrics.nab,
            self.n_finetunes,
        ]


@dataclass
class Table3Config:
    """Scaled-down defaults for the Table III experiment (see DESIGN.md §5).

    Use :meth:`paper_scale` for the paper's original parameters (expect
    hours of runtime on a laptop for the full grid).
    """

    n_series: int = 2
    n_steps: int = 1600
    clean_prefix: int = 300
    seed: int = 7
    scorers: tuple[str, ...] = ("avg", "al")
    #: quantile of the score distribution used as the unsupervised
    #: operating point for the thresholded metrics (Prec / Rec / NAB).
    threshold_quantile: float = 0.98
    detector: DetectorConfig = field(
        default_factory=lambda: DetectorConfig(
            window=24,
            train_capacity=96,
            initial_train_size=260,
            fit_epochs=20,
            kswin_check_every=8,
            scorer_k=48,
            scorer_k_short=6,
        )
    )

    @classmethod
    def paper_scale(cls, n_series: int = 3, n_steps: int = 20000) -> "Table3Config":
        """The paper's original parameters: w=100, 5000-step initial set.

        The training-set capacity and scorer windows are not stated in
        the paper; the values here keep the paper's ratios to ``w``.
        """
        return cls(
            n_series=n_series,
            n_steps=n_steps,
            clean_prefix=5000,
            detector=DetectorConfig(
                window=100,
                train_capacity=400,
                initial_train_size=4900,
                fit_epochs=30,
                kswin_check_every=1,
                scorer_k=200,
                scorer_k_short=25,
            ),
        )


def _row_from_grid(
    spec: AlgorithmSpec, grid: GridResult, config: Table3Config
) -> Table3Row:
    """Average one algorithm's successful cells into its table row."""
    rows = []
    n_finetunes = 0
    for outcome in grid.outcomes:
        if isinstance(outcome, CellFailure):
            print(f"  WARNING: cell {outcome.label} failed: {outcome.message}")
            continue
        rows.append(
            evaluate_result(outcome, threshold_quantile=config.threshold_quantile)
        )
        n_finetunes += outcome.n_finetunes
    if not rows:
        raise RuntimeError(
            f"every cell of {spec.label} failed; first traceback:\n"
            f"{grid.failures[0].traceback}"
        )
    return Table3Row(
        spec=spec,
        metrics=average_rows(rows),
        n_runs=len(rows),
        n_finetunes=n_finetunes / len(rows),
    )


def run_table3(
    corpus_name: str,
    specs: list[AlgorithmSpec] | None = None,
    config: Table3Config | None = None,
    n_jobs: int | None = None,
    telemetry: Telemetry | None = None,
) -> list[Table3Row]:
    """Regenerate one corpus block of Table III.

    The full cross product of (algorithm, scorer, series) cells is fanned
    out over one :class:`ParallelCorpusRunner` grid — not one pool per
    algorithm — so workers stay busy across the whole table.  Every cell
    is seeded from ``config.detector.seed``; ``n_jobs`` only changes
    wall-clock time, never a number in the table.  A cell that
    raises is reported and excluded from its row's averages; the grid
    keeps running (an algorithm only raises if *all* of its cells fail).

    Args:
        corpus_name: ``"daphnet"``, ``"exathlon"`` or ``"smd"``.
        specs: algorithm subset; defaults to the full 26-algorithm grid.
        config: experiment scale parameters.
        n_jobs: worker processes for the grid (``None``/``1``
            sequential, ``-1`` all CPUs).
        telemetry: when given, collects the experiment's coarse stage
            times (``stage:corpus`` / ``stage:stream`` / ``stage:evaluate``)
            plus the merged per-cell detector telemetry.  With ``n_jobs``
            > 1 the stream stage sums worker CPU time and may exceed
            wall-clock.  Tracing never changes a number in the table.

    Returns:
        One row per algorithm, in Table I order.
    """
    config = config if config is not None else Table3Config()
    specs = specs if specs is not None else build_algorithm_grid()
    tel = telemetry if telemetry is not None else NULL_TELEMETRY
    with tel.span(STAGE_PREFIX + "corpus"):
        corpus = make_corpus(
            corpus_name,
            n_series=config.n_series,
            n_steps=config.n_steps,
            clean_prefix=config.clean_prefix,
            seed=config.seed,
        )
    cells = build_cells(specs, corpus, config.detector, scorers=config.scorers)
    grid = ParallelCorpusRunner(n_jobs=n_jobs, trace=tel.enabled).run(cells)
    tel.merge_payload(grid.telemetry if tel.enabled else None)
    per_spec = len(config.scorers) * len(corpus)
    rows = []
    with tel.span(STAGE_PREFIX + "evaluate"):
        for i, spec in enumerate(specs):
            block = GridResult(grid.outcomes[i * per_spec : (i + 1) * per_spec])
            rows.append(_row_from_grid(spec, block, config))
    return rows


def render_table3(corpus_name: str, rows: list[Table3Row]) -> str:
    """Text rendering in the paper's column layout."""
    headers = ["Model", "Task1", "Task2", "Prec", "Rec", "AUC", "VUS", "NAB", "FT/run"]
    return render_table(
        headers,
        [row.cells() for row in rows],
        title=f"Table III ({corpus_name})",
    )
