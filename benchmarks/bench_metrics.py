"""Perf benchmark for the all-threshold evaluation core (metrics sweep).

Times the threshold-swept metrics on a 10k-step synthetic series with
both implementations:

- **reference** — the per-threshold Python loops kept as test oracles in
  ``tests/_oracles.py`` (one confusion re-derivation, window extraction,
  or NAB scoring pass per operating point);
- **sweep** — the shared sorted-scores core in ``repro.metrics.sweep``
  (one O(n log n) sort answers every threshold).

plus KSWIN's two checks: batch (a detector never fed ``observe``
re-sorts the pooled training set at every check, as Table II drives it)
vs. incremental (rank counters over the sorted reference snapshot, moved
by the update stream).

Outputs are asserted equal — ``allclose`` at ``rtol=1e-9`` for the float
curves and volumes, exactly for integer confusion counts and drift
decisions — so the speedups are apples-to-apples.  Results land in
``BENCH_metrics.json`` at the repo root; the headline ``speedup`` is the
combined VUS + range-PR-AUC wall-clock ratio.

Run as a script (``python benchmarks/bench_metrics.py [--fast]``) or
through pytest (``pytest benchmarks/bench_metrics.py -s``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from repro.experiments.evaluation import best_f1_threshold
from repro.learning import KSWIN, SlidingWindow
from repro.learning.base import NO_TRAIN_SET
from repro.metrics import (
    candidate_thresholds,
    nab_sweep,
    range_pr_auc,
    range_pr_curve,
    vus,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
import _oracles  # noqa: E402  (the reference loops)

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_metrics.json"


def make_series(n_steps: int, seed: int = 7) -> tuple[np.ndarray, np.ndarray]:
    """A labelled score stream: ~1 true window per 1250 steps, scores that
    track the labels plus noise (so every threshold is informative)."""
    rng = np.random.default_rng(seed)
    labels = np.zeros(n_steps, dtype=int)
    n_windows = max(n_steps // 1250, 1)
    for start in np.linspace(n_steps * 0.05, n_steps * 0.9, n_windows):
        start = int(start)
        labels[start : start + int(rng.integers(8, 40))] = 1
    scores = labels * 0.8 + rng.normal(scale=0.55, size=n_steps)
    return scores, labels


def _time(fn, repeats: int):
    """Best-of-``repeats`` wall-clock and the last return value."""
    best = float("inf")
    value = None
    for _ in range(repeats):
        started = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - started)
    return best, value


def bench_vus(scores, labels, repeats: int) -> dict:
    reference_s, ref = _time(lambda: _oracles.vus(scores, labels), repeats)
    sweep_s, new = _time(lambda: vus(scores, labels), repeats)
    if not (
        np.allclose(ref.pr_aucs, new.pr_aucs, rtol=1e-9)
        and np.allclose(ref.roc_aucs, new.roc_aucs, rtol=1e-9)
    ):
        raise RuntimeError("sweep VUS diverged from the reference")
    return {
        "n_buffers": len(ref.buffers),
        "reference_s": round(reference_s, 4),
        "sweep_s": round(sweep_s, 5),
        "speedup": round(reference_s / sweep_s, 1),
        "vus_pr": ref.vus_pr,
        "allclose_rtol": 1e-9,
    }


def bench_range_pr(scores, labels, repeats: int) -> dict:
    reference_s, ref = _time(lambda: _oracles.range_pr_curve(scores, labels), repeats)
    sweep_s, new = _time(lambda: range_pr_curve(scores, labels), repeats)
    if not all(np.allclose(a, b, rtol=1e-9) for a, b in zip(ref, new)):
        raise RuntimeError("sweep range-PR curve diverged from the reference")
    auc_ref = _oracles.range_pr_auc(scores, labels)
    auc_new = range_pr_auc(scores, labels)
    if not np.isclose(auc_ref, auc_new, rtol=1e-9):
        raise RuntimeError("sweep range-PR AUC diverged from the reference")
    best_ref = _oracles.best_f1_threshold(scores, labels)
    best_new = best_f1_threshold(scores, labels)
    if best_ref != best_new:
        raise RuntimeError("sweep best-F1 threshold diverged from the reference")
    return {
        "reference_s": round(reference_s, 4),
        "sweep_s": round(sweep_s, 5),
        "speedup": round(reference_s / sweep_s, 1),
        "auc": auc_new,
        "allclose_rtol": 1e-9,
    }


def bench_nab(scores, labels, repeats: int) -> dict:
    thresholds = candidate_thresholds(scores, 50)
    reference_s, ref = _time(
        lambda: _oracles.nab_sweep(scores, labels, thresholds), repeats
    )
    sweep_s, new = _time(lambda: nab_sweep(scores, labels, thresholds), repeats)
    equal = (
        np.array_equal(ref.n_detected, new.n_detected)
        and np.array_equal(ref.n_missed, new.n_missed)
        and np.array_equal(ref.n_false_positive_steps, new.n_false_positive_steps)
        and np.allclose(ref.rewards, new.rewards, rtol=1e-9, atol=1e-12)
        and np.allclose(ref.scores, new.scores, rtol=1e-9, atol=1e-12)
    )
    if not equal:
        raise RuntimeError("NAB sweep diverged from the per-threshold reference")
    return {
        "n_thresholds": int(thresholds.size),
        "reference_s": round(reference_s, 4),
        "sweep_s": round(sweep_s, 5),
        "speedup": round(reference_s / sweep_s, 1),
        "allclose_rtol": 1e-9,
    }


def bench_kswin(n_steps: int, seed: int = 3) -> dict:
    """Batch vs. incremental KSWIN over one simulated update stream.

    Both detectors see the same training sets; only the incremental one
    is fed the Task-1 updates through ``observe``, so the other answers
    every check in batch.  Decisions must match step-for-step (the
    counters yield the batch path's statistic bit for bit).  Each loop
    feeds its detector the way the streaming engine does: the training
    set is stacked only while the detector reports ``needs_train_set``
    (always, on the batch path) or when a fine-tune fires.  Timing covers
    the whole loop including the counter upkeep in ``observe``.
    """
    rng = np.random.default_rng(seed)
    shape = (100, 3)  # (w, N) feature windows at the paper's w=100
    stream = [
        rng.normal(size=shape) + (2.5 if t > n_steps * 0.4 else 0.0)
        for t in range(n_steps)
    ]

    def run(incremental: bool):
        strategy = SlidingWindow(capacity=400)  # paper-scale m: 40k pooled
        detector = KSWIN(check_every=1)
        decisions = []
        started = time.perf_counter()
        for t, x in enumerate(stream):
            update = strategy.update(x)
            if incremental:
                detector.observe(update, t)
            if detector.needs_train_set:
                train_set = strategy.training_set()
            else:
                train_set = NO_TRAIN_SET
            fired = detector.should_finetune(t, train_set)
            decisions.append(fired)
            if fired:
                if train_set is NO_TRAIN_SET:
                    train_set = strategy.training_set()
                detector.notify_finetuned(t, train_set)
        return time.perf_counter() - started, decisions

    batch_s, batch_decisions = run(incremental=False)
    incremental_s, incremental_decisions = run(incremental=True)
    if batch_decisions != incremental_decisions:
        raise RuntimeError("incremental KSWIN decisions diverged from batch")
    return {
        "n_steps": n_steps,
        "n_fires": int(sum(batch_decisions)),
        "batch_s": round(batch_s, 4),
        "incremental_s": round(incremental_s, 4),
        "speedup": round(batch_s / incremental_s, 2),
        "decisions_identical": True,
    }


def run_benchmarks(fast: bool = False) -> dict:
    n_steps = 2_000 if fast else 10_000
    repeats = 1 if fast else 3
    scores, labels = make_series(n_steps)
    vus_result = bench_vus(scores, labels, repeats)
    range_result = bench_range_pr(scores, labels, repeats)
    nab_result = bench_nab(scores, labels, repeats)
    kswin_result = bench_kswin(120 if fast else 400)
    combined_reference = vus_result["reference_s"] + range_result["reference_s"]
    combined_sweep = vus_result["sweep_s"] + range_result["sweep_s"]
    return {
        "generated_by": "benchmarks/bench_metrics.py",
        "mode": "fast" if fast else "full",
        "cpu_count": os.cpu_count(),
        "n_steps": n_steps,
        "vus": vus_result,
        "range_pr": range_result,
        "nab": nab_result,
        "kswin": kswin_result,
        "speedup": round(combined_reference / combined_sweep, 1),
    }


def write_results(payload: dict, out: Path = DEFAULT_OUT) -> Path:
    out.write_text(json.dumps(payload, indent=2) + "\n")
    return out


def bench_metrics_sweep(benchmark):
    """pytest-benchmark entry point: full run, thresholds asserted."""
    payload = benchmark.pedantic(run_benchmarks, rounds=1, iterations=1)
    out = write_results(payload)
    print()
    print(json.dumps(payload, indent=2))
    print(f"\nresults written to {out}")
    assert payload["speedup"] >= 10.0
    assert payload["kswin"]["decisions_identical"]
    assert payload["kswin"]["speedup"] > 1.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--fast",
        action="store_true",
        help="smoke-test scale (used by the test-suite invocation)",
    )
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)
    payload = run_benchmarks(fast=args.fast)
    out = write_results(payload, args.out)
    print(json.dumps(payload, indent=2))
    print(f"results written to {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
