"""One-command reproduction report.

Runs every experiment of the paper's evaluation — Tables I–III, the
anomaly-score ablation and Figure 1 — and writes a single markdown report
with the measured tables, so "reproduce the paper" is::

    from repro.experiments.report import write_report
    write_report("report.md")

or, from the shell, ``repro-experiments report --out report.md``.
The scale parameters mirror :class:`~repro.experiments.table3.Table3Config`.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.core.registry import build_algorithm_grid
from repro.experiments.figure1 import render_figure1, run_figure1
from repro.experiments.reporting import render_table
from repro.experiments.score_ablation import (
    render_score_ablation,
    run_score_ablation,
)
from repro.experiments.table2 import render_table2, run_table2
from repro.experiments.table3 import Table3Config, render_table3, run_table3
from repro.obs import NULL_TELEMETRY, STAGE_PREFIX, Telemetry

CORPORA = ("daphnet", "exathlon", "smd")


def generate_report(
    config: Table3Config | None = None,
    corpora: tuple[str, ...] = CORPORA,
    n_jobs: int | None = None,
    telemetry: Telemetry | None = None,
) -> str:
    """Run all experiments and return the markdown report text.

    ``n_jobs`` parallelizes each experiment's grid over worker processes;
    the report's numbers are identical at any setting.  ``telemetry``
    (optional) collects per-experiment stage times — the telemetry-aware
    experiments (Table III, the score ablation) record their own
    corpus/stream/evaluate stages, the rest get one stage each here.
    """
    config = config if config is not None else Table3Config()
    tel = telemetry if telemetry is not None else NULL_TELEMETRY
    sections: list[str] = []
    started = time.perf_counter()

    def log(message: str) -> None:
        print(f"[report] {message}", flush=True)

    sections.append("# Reproduction report\n")
    sections.append(
        "Generated by `repro.experiments.report`; synthetic corpus emulators, "
        "scaled-down parameters (see DESIGN.md). Compare *shapes* with the "
        "paper, not absolute numbers.\n"
    )

    log("Table I (grid enumeration)")
    grid = build_algorithm_grid()
    sections.append("## Table I\n")
    sections.append("```")
    sections.append(
        render_table(
            ["Model", "Task1", "Task2", "Nonconformity"],
            [[s.model, s.task1, s.task2, s.nonconformity] for s in grid],
            title=f"Table I ({len(grid)} algorithm combinations)",
        )
    )
    sections.append("```\n")

    log("Table II (operation counts)")
    sections.append("## Table II\n")
    sections.append("```")
    with tel.span(STAGE_PREFIX + "table2"):
        sections.append(render_table2(run_table2(n_jobs=n_jobs)))
    sections.append("```\n")

    for corpus in corpora:
        log(f"Table III ({corpus}) — 26 algorithms x scorers x series")
        rows = run_table3(corpus, config=config, n_jobs=n_jobs, telemetry=telemetry)
        sections.append(f"## Table III — {corpus}\n")
        sections.append("```")
        sections.append(render_table3(corpus, rows))
        sections.append("```\n")

    log("Table III anomaly-score rows (ablation)")
    ablation = run_score_ablation(
        corpora[0], config=config, n_jobs=n_jobs, telemetry=telemetry
    )
    sections.append("## Table III — anomaly-score rows\n")
    sections.append("```")
    sections.append(render_score_ablation(corpora[0], ablation))
    sections.append("```\n")

    log("Figure 1 (fine-tuning impact)")
    with tel.span(STAGE_PREFIX + "figure1"):
        impact = run_figure1()
    sections.append("## Figure 1\n")
    sections.append("```")
    sections.append(render_figure1(impact))
    sections.append("```\n")

    elapsed = time.perf_counter() - started
    sections.append(f"_Total runtime: {elapsed:.0f} s._\n")
    log(f"done in {elapsed:.0f}s")
    return "\n".join(sections)


def write_report(
    path: str | Path,
    config: Table3Config | None = None,
    corpora: tuple[str, ...] = CORPORA,
    n_jobs: int | None = None,
    telemetry: Telemetry | None = None,
) -> Path:
    """Generate the report and write it to ``path``."""
    path = Path(path)
    path.write_text(
        generate_report(
            config=config,
            corpora=corpora,
            n_jobs=n_jobs,
            telemetry=telemetry,
        )
    )
    return path
