"""Tests for the one-command reproduction report."""

from repro.core.config import DetectorConfig
from repro.core.registry import AlgorithmSpec
from repro.experiments.report import generate_report, write_report
from repro.experiments.table3 import Table3Config


def tiny_config():
    return Table3Config(
        n_series=1,
        n_steps=600,
        clean_prefix=140,
        detector=DetectorConfig(
            window=8,
            train_capacity=24,
            initial_train_size=120,
            fit_epochs=3,
            kswin_check_every=16,
            scorer_k=24,
            scorer_k_short=4,
        ),
        scorers=("avg",),
    )


class TestReport:
    def test_report_sections_present(self, monkeypatch):
        # Shrink the grid to two algorithms so the test stays fast.
        import repro.experiments.report as report_module
        import repro.experiments.table3 as table3_module
        import repro.experiments.score_ablation as ablation_module

        small_grid = [
            AlgorithmSpec("ae", "sw", "musigma"),
            AlgorithmSpec("pcb_iforest", "sw", "kswin"),
        ]
        monkeypatch.setattr(
            table3_module, "build_algorithm_grid", lambda: small_grid
        )
        monkeypatch.setattr(
            ablation_module, "build_algorithm_grid", lambda: small_grid
        )
        text = generate_report(config=tiny_config(), corpora=("daphnet",))
        assert "# Reproduction report" in text
        assert "## Table I" in text
        assert "26 algorithm combinations" in text  # full grid still printed
        assert "## Table II" in text
        assert "## Table III — daphnet" in text
        assert "## Figure 1" in text
        assert "Total runtime" in text

    def test_write_report(self, tmp_path, monkeypatch):
        import repro.experiments.table3 as table3_module
        import repro.experiments.score_ablation as ablation_module

        small_grid = [AlgorithmSpec("online_arima", "sw", "musigma")]
        monkeypatch.setattr(
            table3_module, "build_algorithm_grid", lambda: small_grid
        )
        monkeypatch.setattr(
            ablation_module, "build_algorithm_grid", lambda: small_grid
        )
        path = write_report(
            tmp_path / "report.md", config=tiny_config(), corpora=("smd",)
        )
        assert path.exists()
        assert "Table III — smd" in path.read_text()
