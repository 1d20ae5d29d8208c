"""Command-line interface for the experiment harness.

Usage (installed as the ``repro-experiments`` console script, or via
``python -m repro.experiments.cli``):

    repro-experiments table1
    repro-experiments table2
    repro-experiments table3 --corpus daphnet --series 2 --steps 1600
    repro-experiments scores --corpus smd
    repro-experiments figure1 --seed 7
    repro-experiments serve --port 8765 --spec ae+sw+kswin --max-sessions 64
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.core.config import DetectorConfig
from repro.core.registry import build_algorithm_grid
from repro.experiments.figure1 import render_figure1, run_figure1
from repro.experiments.reporting import render_table
from repro.experiments.score_ablation import render_score_ablation, run_score_ablation
from repro.experiments.table2 import render_table2, run_table2
from repro.experiments.table3 import Table3Config, render_table3, run_table3
from repro.obs import Telemetry, build_manifest


def _table3_config(args: argparse.Namespace) -> Table3Config:
    return Table3Config(
        n_series=args.series,
        n_steps=args.steps,
        clean_prefix=args.prefix,
        seed=args.seed,
        detector=DetectorConfig(
            window=args.window,
            train_capacity=args.capacity,
            initial_train_size=max(args.prefix - args.window - 4, args.capacity),
            fit_epochs=args.epochs,
            kswin_check_every=args.kswin_every,
            scorer_k=args.scorer_k,
            scorer_k_short=max(args.scorer_k // 8, 2),
        ),
    )


def _add_scale_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--corpus", default="daphnet",
                        choices=("daphnet", "exathlon", "smd"))
    parser.add_argument("--series", type=int, default=1, help="series per corpus")
    parser.add_argument("--steps", type=int, default=1400, help="steps per series")
    parser.add_argument("--prefix", type=int, default=280,
                        help="anomaly-free warm-up steps")
    parser.add_argument("--window", type=int, default=16,
                        help="data representation length w (paper: 100)")
    parser.add_argument("--capacity", type=int, default=96,
                        help="maintained training-set size m")
    parser.add_argument("--epochs", type=int, default=20, help="initial fit epochs")
    parser.add_argument("--kswin-every", type=int, default=8, dest="kswin_every",
                        help="run the KSWIN test every N steps (paper: 1)")
    parser.add_argument("--scorer-k", type=int, default=48, dest="scorer_k",
                        help="anomaly-score window k")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--n-jobs", type=int, default=1, dest="n_jobs",
                        help="worker processes for the experiment grid "
                             "(1 = sequential, -1 = all CPUs); results are "
                             "identical at any setting")
    parser.add_argument("--trace", action="store_true",
                        help="collect run telemetry (counters, stage/span "
                             "timers, event log) and write a RunManifest "
                             "JSON next to the output; scores are bitwise "
                             "identical with or without tracing")
    parser.add_argument("--trace-out", default=None, dest="trace_out",
                        help="path for the RunManifest JSON (default: "
                             "RunManifest_<command>.json)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("table1", help="print the 26-algorithm grid")

    table2 = subparsers.add_parser("table2", help="print per-step operation counts")
    table2.add_argument("--n-jobs", type=int, default=1, dest="n_jobs",
                        help="measure the (m, w, N) settings in parallel")

    table3 = subparsers.add_parser("table3", help="run one corpus block of Table III")
    _add_scale_arguments(table3)

    scores = subparsers.add_parser(
        "scores", help="run the anomaly-score ablation rows of Table III"
    )
    _add_scale_arguments(scores)

    figure1 = subparsers.add_parser("figure1", help="run the fine-tuning experiment")
    figure1.add_argument("--seed", type=int, default=7)
    figure1.add_argument("--steps", type=int, default=1600)

    report = subparsers.add_parser(
        "report", help="run every experiment, write a markdown report"
    )
    report.add_argument("--out", default="report.md", help="output file")
    _add_scale_arguments(report)

    serve = subparsers.add_parser(
        "serve", help="run the online detection service (JSON-lines TCP)"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8765,
                       help="TCP port (0 lets the OS pick one)")
    serve.add_argument("--spec", default="ae+sw+kswin",
                       help="default algorithm for create requests that "
                            "omit one (model+task1+task2)")
    serve.add_argument("--scorer", default=None,
                       help="anomaly-scoring override for built detectors "
                            "(raw/avg/al/conformal)")
    serve.add_argument("--max-sessions", type=int, default=64,
                       dest="max_sessions",
                       help="hydrated-detector bound; LRU sessions beyond "
                            "it are evicted to a checkpoint")
    serve.add_argument("--spill-dir", default=None, dest="spill_dir",
                       help="checkpoint directory for evicted sessions "
                            "without a write-ahead log; a logged session "
                            "evicts through its WAL barrier checkpoint "
                            "(default: a fresh temporary directory)")
    serve.add_argument("--max-batch", type=int, default=64, dest="max_batch",
                       help="micro-batch size coalesced per step_chunk call")
    serve.add_argument("--max-delay-ms", type=float, default=25.0,
                       dest="max_delay_ms",
                       help="max time a buffered point waits before its "
                            "session is flushed anyway")
    serve.add_argument("--queue-limit", type=int, default=512,
                       dest="queue_limit",
                       help="per-session ingest queue bound (backpressure)")
    serve.add_argument("--workers", type=int, default=0,
                       help="shard the service over this many worker "
                            "processes behind a consistent-hash router "
                            "(0 = single in-process service)")
    serve.add_argument("--rebalance-p99-ms", type=float, default=None,
                       dest="rebalance_p99_ms",
                       help="router only: migrate streams off a shard whose "
                            "merged ingest-latency p99 exceeds this many ms")
    serve.add_argument("--maintenance-interval", type=float, default=5.0,
                       dest="maintenance_interval",
                       help="router only: seconds between fleet health "
                            "sweeps (worker respawn + rebalance check)")
    serve.add_argument("--idle-timeout", type=float, default=None,
                       dest="idle_timeout",
                       help="evict sessions idle this many seconds even "
                            "below the capacity bound")
    serve.add_argument("--wal-dir", default=None, dest="wal_dir",
                       help="enable the per-session write-ahead ingest "
                            "log in this directory: every accepted "
                            "ingest is logged before acknowledgement and "
                            "orphaned logs are replayed at startup "
                            "(with --workers, each worker logs under its "
                            "own spill subdirectory)")
    serve.add_argument("--wal-fsync", default="barrier",
                       choices=("always", "barrier", "never"),
                       dest="wal_fsync",
                       help="WAL durability policy: fsync every append "
                            "(always), only checkpoint barriers "
                            "(barrier, default), or never")
    serve.add_argument("--wal-barrier-interval", type=int, default=256,
                       dest="wal_barrier_interval",
                       help="scored points between WAL checkpoint "
                            "barriers — the bound on replay cost after "
                            "a crash")
    serve.add_argument("--run-log", default=None, dest="run_log",
                       help="write the deterministic JSON-lines run log "
                            "(session lifecycle audit) to this path; "
                            "summarized into the --trace manifest")
    serve.add_argument("--select", default=None,
                       help="arm online algorithm selection on every "
                            "registry-built session: comma-separated "
                            "challenger specs raced in shadow against the "
                            "champion and hot-swapped in when they "
                            "sustainably win (e.g. "
                            "'ae+sw+kswin,lstm+sw+kswin')")
    serve.add_argument("--select-policy", default="ewma",
                       choices=("ewma", "ucb"), dest="select_policy",
                       help="promotion policy: EWMA prequential-loss "
                            "comparison (ewma) or a UCB bandit over "
                            "batch wins (ucb)")
    serve.add_argument("--select-warmup", type=int, default=64,
                       dest="select_warmup",
                       help="scored points a lane needs before its "
                            "signal counts")
    serve.add_argument("--select-margin", type=float, default=0.05,
                       dest="select_margin",
                       help="relative improvement a challenger must "
                            "sustain to win (hysteresis)")
    serve.add_argument("--select-dwell", type=int, default=32,
                       dest="select_dwell",
                       help="consecutive winning points (ewma) or rounds "
                            "(ucb) required before a promotion")
    serve.add_argument("--select-min-dwell", type=int, default=256,
                       dest="select_min_dwell",
                       help="points after a swap before the next "
                            "promotion may fire (anti-flapping)")
    serve.add_argument("--window", type=int, default=24,
                       help="data representation length w for built detectors")
    serve.add_argument("--capacity", type=int, default=64,
                       help="maintained training-set size m")
    serve.add_argument("--epochs", type=int, default=20,
                       help="initial fit epochs")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--trace", action="store_true",
                       help="write a fleet RunManifest JSON on shutdown")
    serve.add_argument("--trace-out", default=None, dest="trace_out")
    return parser


def _write_manifest(
    args: argparse.Namespace,
    config: Table3Config,
    telemetry: Telemetry,
    wall_time_seconds: float,
) -> None:
    manifest = build_manifest(
        command=args.command,
        config=config,
        telemetry=telemetry,
        wall_time_seconds=wall_time_seconds,
        seeds=[args.seed],
    )
    out = args.trace_out or f"RunManifest_{args.command}.json"
    path = manifest.write(out)
    print(f"run manifest written to {path}")


def _run_serve(args: argparse.Namespace) -> int:
    """Run the online detection service until shutdown (op or Ctrl-C).

    ``--workers N`` (N >= 1) runs the sharded fleet instead: N worker
    processes, each one a full :class:`DetectionService`, behind a
    consistent-hash :class:`~repro.serve.router.RouterService` speaking
    the same protocol on the same port.
    """
    from repro.serve import (
        DetectionServer,
        DetectionService,
        RouterConfig,
        RouterService,
        ServeConfig,
    )

    select = None
    if args.select:
        select = {
            "challengers": [
                spec.strip() for spec in args.select.split(",") if spec.strip()
            ],
            "policy": args.select_policy,
            "warmup": args.select_warmup,
            "margin": args.select_margin,
            "dwell": args.select_dwell,
            "min_dwell": args.select_min_dwell,
        }
    config = ServeConfig(
        default_spec=args.spec,
        scorer=args.scorer,
        max_sessions=args.max_sessions,
        spill_dir=None if args.workers > 0 else args.spill_dir,
        max_batch=args.max_batch,
        max_delay_ms=args.max_delay_ms,
        queue_limit=args.queue_limit,
        idle_timeout_s=args.idle_timeout,
        wal_dir=args.wal_dir,
        wal_fsync=args.wal_fsync,
        wal_barrier_interval=args.wal_barrier_interval,
        run_log=args.run_log,
        select=select,
        detector=DetectorConfig(
            window=args.window,
            train_capacity=args.capacity,
            fit_epochs=args.epochs,
            seed=args.seed,
        ),
    )
    if args.workers > 0:
        service = RouterService(
            RouterConfig(
                n_workers=args.workers,
                host=args.host,
                spill_dir=args.spill_dir,
                worker=config,
                hot_p99_s=(
                    args.rebalance_p99_ms / 1000.0
                    if args.rebalance_p99_ms is not None
                    else None
                ),
                maintenance_interval_s=args.maintenance_interval,
            )
        )
        spill_dir = service.spill_root
    else:
        service = DetectionService(config)
        spill_dir = service.spill_dir
    server = DetectionServer((args.host, args.port), service)
    host, port = server.server_address[:2]
    workers = f", {args.workers} workers" if args.workers > 0 else ""
    print(
        f"serving on {host}:{port} (default spec {args.spec}, "
        f"spill dir {spill_dir}{workers})",
        flush=True,
    )
    started = time.perf_counter()
    try:
        server.serve_forever(poll_interval=0.1)
    except KeyboardInterrupt:
        pass
    finally:
        service.shutdown()
        server.server_close()
        if args.trace:
            rollup = Telemetry()
            rollup.merge_payload(service.stats_payload()["rollup"])
            run_log = getattr(service, "run_log", None)
            manifest = build_manifest(
                command="serve",
                config=config,
                telemetry=rollup,
                wall_time_seconds=time.perf_counter() - started,
                seeds=[args.seed],
                artifacts=(
                    {"run_log": run_log.summary()} if run_log is not None else None
                ),
            )
            out = args.trace_out or "RunManifest_serve.json"
            print(f"run manifest written to {manifest.write(out)}", flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "table1":
        grid = build_algorithm_grid()
        print(
            render_table(
                ["Model", "Task1", "Task2", "Nonconformity"],
                [[s.model, s.task1, s.task2, s.nonconformity] for s in grid],
                title=f"Table I ({len(grid)} algorithm combinations)",
            )
        )
    elif args.command == "table2":
        print(render_table2(run_table2(n_jobs=args.n_jobs)))
    elif args.command == "table3":
        config = _table3_config(args)
        telemetry = Telemetry() if args.trace else None
        started = time.perf_counter()
        rows = run_table3(
            args.corpus, config=config, n_jobs=args.n_jobs, telemetry=telemetry
        )
        print(render_table3(args.corpus, rows))
        if telemetry is not None:
            _write_manifest(args, config, telemetry, time.perf_counter() - started)
    elif args.command == "scores":
        config = _table3_config(args)
        telemetry = Telemetry() if args.trace else None
        started = time.perf_counter()
        rows = run_score_ablation(
            args.corpus, config=config, n_jobs=args.n_jobs, telemetry=telemetry
        )
        print(render_score_ablation(args.corpus, rows))
        if telemetry is not None:
            _write_manifest(args, config, telemetry, time.perf_counter() - started)
    elif args.command == "figure1":
        impact = run_figure1(n_steps=args.steps, seed=args.seed)
        print(render_figure1(impact))
    elif args.command == "serve":
        return _run_serve(args)
    elif args.command == "report":
        from repro.experiments.report import write_report

        config = _table3_config(args)
        telemetry = Telemetry() if args.trace else None
        started = time.perf_counter()
        out = write_report(
            args.out, config=config, n_jobs=args.n_jobs, telemetry=telemetry
        )
        print(f"report written to {out}")
        if telemetry is not None:
            _write_manifest(args, config, telemetry, time.perf_counter() - started)
    return 0


if __name__ == "__main__":
    sys.exit(main())
