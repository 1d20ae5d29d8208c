"""Tests for the experiment harness (Tables II & III, Figure 1, ablation)."""

import dataclasses

import numpy as np
import pytest

from repro.core.config import DetectorConfig
from repro.core.registry import AlgorithmSpec, build_detector
from repro.datasets.corpora import make_corpus
from repro.experiments.evaluation import average_rows, evaluate_result
from repro.streaming import run_stream
from repro.experiments import (
    MetricRow,
    average_rows,
    best_f1_threshold,
    evaluate_scores,
    render_figure1,
    render_score_ablation,
    render_table,
    render_table2,
    render_table3,
    run_figure1,
    run_score_ablation,
    run_table2,
    run_table3,
)
from repro.experiments.table3 import Table3Config


class TestEvaluation:
    def test_perfect_scores_full_metrics(self, labelled_series):
        rng = np.random.default_rng(0)
        scores = labelled_series.labels + rng.uniform(
            0, 0.05, labelled_series.n_steps
        )
        row = evaluate_scores(scores, labelled_series.labels)
        assert row.precision == 1.0
        assert row.recall == 1.0
        assert row.nab > 0.9

    def test_best_f1_threshold_separates(self, labelled_series):
        scores = labelled_series.labels.astype(float)
        threshold = best_f1_threshold(scores, labelled_series.labels)
        assert 0.0 < threshold <= 1.0

    def test_average_rows(self):
        rows = [MetricRow(1, 1, 1, 1, 1), MetricRow(0, 0, 0, 0, 0)]
        mean = average_rows(rows)
        assert mean.precision == 0.5
        assert mean.nab == 0.5

    def test_average_rows_empty_rejected(self):
        with pytest.raises(ValueError):
            average_rows([])

    def test_as_dict_keys(self):
        row = MetricRow(0.1, 0.2, 0.3, 0.4, 0.5)
        assert list(row.as_dict()) == ["Prec", "Rec", "AUC", "VUS", "NAB"]


class TestRenderTable:
    def test_renders_aligned(self):
        text = render_table(["a", "bb"], [[1, 2.5], ["x", 3.0]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "2.50" in text

    def test_wrong_row_width_rejected(self):
        with pytest.raises(ValueError):
            render_table(["a"], [[1, 2]])


class TestTable2:
    def test_rows_have_formulas_and_measurements(self):
        rows = run_table2(settings=[(20, 10, 3)])
        row = rows[0]
        assert row.musigma_formula.total > 0
        assert row.kswin_formula.total > row.musigma_formula.total
        assert row.kswin_measured.total > row.musigma_measured.total

    def test_measured_scaling_matches_formula(self):
        # Doubling m should roughly double KSWIN's measured arithmetic but
        # leave mu/sigma's unchanged — the Table II asymptotics.
        rows = run_table2(settings=[(20, 10, 3), (40, 10, 3)])
        small, large = rows
        assert large.musigma_measured.total == small.musigma_measured.total
        ratio = large.kswin_measured.additions / small.kswin_measured.additions
        assert 1.5 < ratio < 2.5

    def test_render(self):
        text = render_table2(run_table2(settings=[(20, 10, 3)]))
        assert "Table II" in text


@pytest.fixture(scope="module")
def tiny_table3_config():
    return Table3Config(
        n_series=1,
        n_steps=700,
        clean_prefix=150,
        detector=DetectorConfig(
            window=10,
            train_capacity=24,
            fit_epochs=5,
            kswin_check_every=8,
            scorer_k=24,
            scorer_k_short=4,
        ),
        scorers=("avg",),
    )


class TestTable3:
    def test_subset_run(self, tiny_table3_config):
        specs = [
            AlgorithmSpec("ae", "sw", "musigma"),
            AlgorithmSpec("pcb_iforest", "sw", "kswin"),
        ]
        rows = run_table3("daphnet", specs=specs, config=tiny_table3_config)
        assert len(rows) == 2
        for row in rows:
            assert 0.0 <= row.metrics.precision <= 1.0
            assert 0.0 <= row.metrics.recall <= 1.0
            assert row.n_runs == 1

    def test_render(self, tiny_table3_config):
        specs = [AlgorithmSpec("ae", "sw", "musigma")]
        rows = run_table3("smd", specs=specs, config=tiny_table3_config)
        text = render_table3("smd", rows)
        assert "Table III" in text
        assert "ae" in text


class TestScoreAblation:
    def test_three_rows_in_order(self, tiny_table3_config):
        specs = [AlgorithmSpec("ae", "sw", "musigma")]
        rows = run_score_ablation("daphnet", specs=specs, config=tiny_table3_config)
        assert [row.scorer for row in rows] == ["raw", "avg", "al"]
        text = render_score_ablation("daphnet", rows)
        assert "raw" in text

    def test_rows_use_the_table3_operating_point(self, tiny_table3_config):
        """Each ablation row averages its scorer's cells evaluated at
        ``config.threshold_quantile``, as Table III's rows are."""
        specs = [AlgorithmSpec("ae", "sw", "musigma")]
        config = dataclasses.replace(tiny_table3_config, threshold_quantile=0.8)
        rows = run_score_ablation("daphnet", specs=specs, config=config)
        corpus = make_corpus(
            "daphnet",
            n_series=config.n_series,
            n_steps=config.n_steps,
            clean_prefix=config.clean_prefix,
            seed=config.seed,
        )
        for row in rows:
            expected = average_rows(
                [
                    evaluate_result(
                        run_stream(
                            build_detector(
                                spec, series.n_channels, config.detector, row.scorer
                            ),
                            series,
                        ),
                        threshold_quantile=config.threshold_quantile,
                    )
                    for spec in specs
                    for series in corpus
                ]
            )
            assert row.metrics == expected, row.scorer


class TestFigure1:
    def test_finetuned_gap_larger(self):
        impact = run_figure1(seed=7)
        assert impact.gap_finetuned > impact.gap_stale
        # The mechanism behind the larger gap: fine-tuning adapts the model
        # to the post-drift regime, lowering its normal nonconformity.
        assert impact.baseline_finetuned < impact.baseline_stale
        assert impact.detection_step > 900  # detected after the true drift
        text = render_figure1(impact)
        assert "improvement" in text
