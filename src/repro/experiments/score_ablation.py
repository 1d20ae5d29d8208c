"""The last three rows of Table III: raw vs. average vs. anomaly likelihood.

The paper averages each scoring function's metrics over all algorithms
that use it.  The expected shape: NAB improves monotonically from the raw
nonconformity scores through the moving average to the anomaly
likelihood, while VUS decreases (the complex scores make more focused
predictions covering fewer points of the true windows).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.registry import AlgorithmSpec, build_algorithm_grid
from repro.datasets.corpora import make_corpus
from repro.experiments.evaluation import MetricRow, average_rows, evaluate_result
from repro.experiments.reporting import render_table
from repro.experiments.table3 import Table3Config
from repro.obs import NULL_TELEMETRY, STAGE_PREFIX, Telemetry
from repro.streaming.parallel import CellFailure, CorpusCell, ParallelCorpusRunner

SCORER_ORDER = ("raw", "avg", "al")


@dataclass
class AblationRow:
    """One scorer's metrics averaged over all algorithms and series."""

    scorer: str
    metrics: MetricRow
    n_runs: int


def run_score_ablation(
    corpus_name: str,
    specs: list[AlgorithmSpec] | None = None,
    config: Table3Config | None = None,
    n_jobs: int | None = None,
    telemetry: Telemetry | None = None,
) -> list[AblationRow]:
    """Average each scoring function over the algorithm grid.

    The (scorer, algorithm, series) cells run on one
    :class:`ParallelCorpusRunner` grid; as in ``run_table3``, ``n_jobs``
    affects wall-clock time only, and failed cells are reported and
    dropped from their scorer's average.

    Args:
        corpus_name: ``"daphnet"``, ``"exathlon"`` or ``"smd"``.
        specs: algorithm subset (defaults to the full grid; pass a subset
            to keep the benchmark fast).
        config: experiment scale parameters.
        n_jobs: worker processes for the grid.
        telemetry: when given, collects stage times and the merged
            per-cell detector telemetry (see :func:`run_table3`).
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
    cells = [
        CorpusCell(spec=spec, series=series, config=config.detector, scorer=scorer)
        for scorer in SCORER_ORDER
        for spec in specs
        for series in corpus
    ]
    grid = ParallelCorpusRunner(
        n_jobs=n_jobs, batch_size=config.stream_chunk, trace=tel.enabled
    ).run(cells)
    tel.merge_payload(grid.telemetry if tel.enabled else None)
    per_scorer = len(specs) * len(corpus)
    rows = []
    with tel.span(STAGE_PREFIX + "evaluate"):
        for i, scorer in enumerate(SCORER_ORDER):
            block = grid.outcomes[i * per_scorer : (i + 1) * per_scorer]
            metric_rows = []
            for outcome in block:
                if isinstance(outcome, CellFailure):
                    print(f"  WARNING: cell {outcome.label} failed: {outcome.message}")
                    continue
                metric_rows.append(evaluate_result(outcome))
            rows.append(
                AblationRow(
                    scorer=scorer,
                    metrics=average_rows(metric_rows),
                    n_runs=len(metric_rows),
                )
            )
    return rows


def render_score_ablation(corpus_name: str, rows: list[AblationRow]) -> str:
    headers = ["Scorer", "Prec", "Rec", "AUC", "VUS", "NAB"]
    cells = [
        [
            row.scorer,
            row.metrics.precision,
            row.metrics.recall,
            row.metrics.auc,
            row.metrics.vus,
            row.metrics.nab,
        ]
        for row in rows
    ]
    return render_table(
        headers, cells, title=f"Table III, anomaly-score rows ({corpus_name})"
    )
