"""Experiment harness regenerating every table and figure of the paper."""

from repro.experiments.evaluation import (
    MetricRow,
    average_rows,
    best_f1_threshold,
    evaluate_result,
    evaluate_scores,
    quantile_threshold,
)
from repro.experiments.figure1 import (
    FineTuneImpact,
    make_figure1_stream,
    render_figure1,
    run_figure1,
)
from repro.experiments.report import generate_report, write_report
from repro.experiments.reporting import render_table
from repro.experiments.score_ablation import (
    AblationRow,
    render_score_ablation,
    run_score_ablation,
)
from repro.experiments.sweeps import SweepPoint, render_sweep, sweep_parameter
from repro.experiments.table2 import Table2Row, render_table2, run_table2
from repro.experiments.table3 import (
    Table3Config,
    Table3Row,
    render_table3,
    run_table3,
)

__all__ = [
    "AblationRow",
    "FineTuneImpact",
    "MetricRow",
    "Table2Row",
    "Table3Config",
    "Table3Row",
    "average_rows",
    "best_f1_threshold",
    "evaluate_result",
    "evaluate_scores",
    "generate_report",
    "make_figure1_stream",
    "quantile_threshold",
    "render_figure1",
    "render_score_ablation",
    "render_table",
    "render_table2",
    "render_table3",
    "run_figure1",
    "run_score_ablation",
    "run_table2",
    "run_table3",
    "render_sweep",
    "SweepPoint",
    "sweep_parameter",
    "write_report",
]
