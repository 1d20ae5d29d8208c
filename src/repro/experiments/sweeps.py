"""Parameter-sensitivity sweeps over the framework's main knobs.

The paper fixes the data representation length (w=100) and the initial
training range (5000 steps); these sweeps quantify how sensitive the
results are to those choices at reproduction scale — the due diligence a
scaled-down substitution owes its readers.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.core.config import DetectorConfig
from repro.core.registry import AlgorithmSpec, build_detector
from repro.core.types import TimeSeries
from repro.datasets.corpora import make_corpus
from repro.experiments.evaluation import MetricRow, average_rows, evaluate_result
from repro.experiments.reporting import render_table
from repro.streaming.corpus import run_corpus


@dataclass(frozen=True)
class SweepPoint:
    """One evaluated setting of the swept parameter."""

    value: float
    metrics: MetricRow
    mean_finetunes: float
    runtime_seconds: float


def _run_point(
    spec: AlgorithmSpec,
    corpus: list[TimeSeries],
    config: DetectorConfig,
    value: float,
) -> SweepPoint:
    result = run_corpus(
        lambda series: build_detector(spec, series.n_channels, config), corpus
    )
    return SweepPoint(
        value=value,
        metrics=average_rows(
            [evaluate_result(r, threshold_quantile=0.98) for r in result]
        ),
        mean_finetunes=result.total_finetunes / max(result.n_series, 1),
        runtime_seconds=result.total_runtime_seconds,
    )


def sweep_parameter(
    parameter: str,
    values: list,
    spec: AlgorithmSpec | None = None,
    corpus_name: str = "daphnet",
    n_steps: int = 1200,
    clean_prefix: int = 260,
    base_config: DetectorConfig | None = None,
    seed: int = 7,
) -> list[SweepPoint]:
    """Sweep one :class:`DetectorConfig` field and evaluate each setting.

    Args:
        parameter: the config field to vary (e.g. ``"window"``,
            ``"train_capacity"``, ``"kswin_alpha"``).
        values: settings to evaluate.
        spec: algorithm under test (default: AE + ARES + μ/σ-Change).
        corpus_name: corpus emulator to stream.
        n_steps / clean_prefix / seed: corpus scale.
        base_config: starting configuration for the non-swept fields.

    Returns:
        One :class:`SweepPoint` per value, in input order.
    """
    spec = spec if spec is not None else AlgorithmSpec("ae", "ares", "musigma")
    base = base_config if base_config is not None else DetectorConfig(
        window=16,
        train_capacity=64,
        initial_train_size=220,
        fit_epochs=15,
        kswin_check_every=8,
        scorer_k=48,
        scorer_k_short=6,
    )
    if parameter not in {f.name for f in dataclasses.fields(DetectorConfig)}:
        raise ValueError(f"unknown DetectorConfig field {parameter!r}")
    corpus = make_corpus(
        corpus_name,
        n_series=1,
        n_steps=n_steps,
        clean_prefix=clean_prefix,
        seed=seed,
    )
    points = []
    for value in values:
        config = dataclasses.replace(base, **{parameter: value})
        points.append(_run_point(spec, corpus, config, value))
    return points


def render_sweep(parameter: str, points: list[SweepPoint]) -> str:
    headers = [parameter, "Prec", "Rec", "AUC", "VUS", "NAB", "FT", "sec"]
    rows = [
        [
            point.value,
            point.metrics.precision,
            point.metrics.recall,
            point.metrics.auc,
            point.metrics.vus,
            point.metrics.nab,
            point.mean_finetunes,
            point.runtime_seconds,
        ]
        for point in points
    ]
    return render_table(headers, rows, title=f"Sensitivity sweep: {parameter}")
