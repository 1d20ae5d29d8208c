"""Perf trajectory benchmark: sequential vs. parallel vs. vectorized paths.

Times three configurations of the scaled-down Table III PCB-iForest block
(the streaming cells whose hot path the node arena vectorized):

- **legacy sequential** — the per-tree recursive node walk kept as a test
  oracle (``tests/_oracles.py``, ``walk_recursively``), one cell at a
  time: the pre-arena baseline;
- **sequential** — the vectorized node-arena hot path, one cell at a time;
- **parallel** — the vectorized hot path fanned over a
  :class:`~repro.streaming.parallel.ParallelCorpusRunner` process pool.

plus a pure model microbenchmark: recursive vs. vectorized per-tree path
lengths for a 1k-point batch.  Results land in ``BENCH_parallel.json`` at
the repo root.

Reading the numbers: ``hotpath_speedup`` (legacy vs. vectorized, both
sequential) is hardware-independent; ``pool_speedup`` (sequential vs.
parallel, same code) needs physical cores — on a 1-CPU container it sits
at ~1.0, on an n-core host it approaches min(n_jobs, n_cells).  The
headline ``speedup`` is the end-to-end product: legacy sequential
baseline vs. the parallel vectorized engine.

Run as a script (``python benchmarks/bench_parallel_speedup.py [--fast]``)
or through pytest (``pytest benchmarks/bench_parallel_speedup.py -s``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.config import DetectorConfig
from repro.core.registry import AlgorithmSpec
from repro.datasets.corpora import make_corpus
from repro.models.isolation import ExtendedIsolationForest
from repro.streaming.parallel import ParallelCorpusRunner, build_cells
from repro.streaming.runner import run_stream

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
import _oracles  # noqa: E402  (the recursive node walk)

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_parallel.json"


def _grid_cells(fast: bool):
    """The PCB-iForest block of Table III at benchmark scale."""
    n_series = 1 if fast else 2
    n_steps = 700 if fast else 1200
    corpus = make_corpus(
        "daphnet",
        n_series=n_series,
        n_steps=n_steps,
        clean_prefix=280,
        seed=7,
    )
    config = DetectorConfig(
        window=16,
        train_capacity=64,
        initial_train_size=260,
        fit_epochs=1,
        kswin_check_every=8,
        scorer_k=48,
        scorer_k_short=6,
    )
    specs = [
        AlgorithmSpec("pcb_iforest", "sw", "kswin"),
        AlgorithmSpec("pcb_iforest", "ares", "kswin"),
    ]
    scorers = ("avg",) if fast else ("avg", "al")
    return build_cells(specs, corpus, config, scorers=scorers), n_steps


def _time_legacy_sequential(cells) -> float:
    """The pre-arena baseline: recursive tree traversal, cell after cell."""
    started = time.perf_counter()
    for cell in cells:
        detector = cell.build()
        _oracles.walk_recursively(detector.model.forest)
        run_stream(detector, cell.series)
    return time.perf_counter() - started


def _time_engine(cells, n_jobs: int):
    started = time.perf_counter()
    grid = ParallelCorpusRunner(n_jobs=n_jobs).run(cells)
    elapsed = time.perf_counter() - started
    if grid.failures:
        raise RuntimeError(f"benchmark cell failed: {grid.failures[0]}")
    return elapsed, grid


def bench_grid(fast: bool, n_jobs: int) -> dict:
    """Time the three grid configurations; verify determinism bitwise."""
    cells, n_steps = _grid_cells(fast)
    legacy_s = _time_legacy_sequential(cells)
    sequential_s, sequential_grid = _time_engine(cells, n_jobs=1)
    parallel_s, parallel_grid = _time_engine(cells, n_jobs=n_jobs)
    identical = all(
        np.array_equal(seq.scores, par.scores)
        and np.array_equal(seq.nonconformities, par.nonconformities)
        for seq, par in zip(sequential_grid.results, parallel_grid.results)
    )
    return {
        "n_cells": len(cells),
        "n_steps": n_steps,
        "n_jobs": n_jobs,
        "legacy_sequential_s": round(legacy_s, 4),
        "sequential_s": round(sequential_s, 4),
        "parallel_s": round(parallel_s, 4),
        "hotpath_speedup": round(legacy_s / sequential_s, 2),
        "pool_speedup": round(sequential_s / parallel_s, 2),
        "speedup": round(legacy_s / parallel_s, 2),
        "bitwise_identical": identical,
    }


def bench_iforest_batch(fast: bool) -> dict:
    """Recursive vs. vectorized per-tree depths for a 1k-point batch."""
    rng = np.random.default_rng(0)
    n_points = 200 if fast else 1000
    data = rng.normal(size=(512, 8))
    forest = ExtendedIsolationForest(n_trees=50, subsample=128, seed=1).fit(data)
    points = rng.normal(size=(n_points, 8))

    started = time.perf_counter()
    recursive = _oracles.forest_depths_batch(forest, points)
    recursive_s = time.perf_counter() - started

    started = time.perf_counter()
    vectorized = forest.depths_batch(points)
    vectorized_s = time.perf_counter() - started

    if not np.array_equal(recursive, vectorized):
        raise RuntimeError("vectorized depths diverged from recursive depths")
    return {
        "n_points": n_points,
        "n_trees": forest.n_trees,
        "recursive_s": round(recursive_s, 4),
        "vectorized_s": round(vectorized_s, 5),
        "speedup": round(recursive_s / vectorized_s, 1),
    }


def run_benchmarks(fast: bool = False, n_jobs: int = 4) -> dict:
    grid = bench_grid(fast, n_jobs)
    iforest = bench_iforest_batch(fast)
    return {
        "generated_by": "benchmarks/bench_parallel_speedup.py",
        "mode": "fast" if fast else "full",
        "cpu_count": os.cpu_count(),
        "grid": grid,
        "iforest_batch": iforest,
        "determinism": {
            "bitwise_identical": grid.pop("bitwise_identical"),
            "n_cells_compared": grid["n_cells"],
        },
        "speedup": grid["speedup"],
    }


def write_results(payload: dict, out: Path = DEFAULT_OUT) -> Path:
    out.write_text(json.dumps(payload, indent=2) + "\n")
    return out


def bench_parallel_speedup(benchmark):
    """pytest-benchmark entry point: full run, thresholds asserted."""
    payload = benchmark.pedantic(run_benchmarks, rounds=1, iterations=1)
    out = write_results(payload)
    print()
    print(json.dumps(payload, indent=2))
    print(f"\nresults written to {out}")
    assert payload["determinism"]["bitwise_identical"]
    assert payload["iforest_batch"]["speedup"] >= 5.0
    assert payload["grid"]["hotpath_speedup"] >= 2.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--fast",
        action="store_true",
        help="smoke-test scale (used by the test-suite invocation)",
    )
    parser.add_argument("--n-jobs", type=int, default=4, dest="n_jobs")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)
    payload = run_benchmarks(fast=args.fast, n_jobs=args.n_jobs)
    out = write_results(payload, args.out)
    print(json.dumps(payload, indent=2))
    print(f"results written to {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
