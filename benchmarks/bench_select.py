"""Online algorithm selection: shadow-lane overhead and selection regret.

Two questions an operator asks before arming ``repro.select``:

1. **What does racing cost?**  The ``overhead`` section measures the
   served ingest-to-score rate (points/s) of one session at 0, 1 and 3
   challenger shadow lanes, with promotion structurally disabled
   (``min_dwell`` beyond the stream) so the numbers isolate pure shadow
   cost — each challenger re-scores every point through its own chunked
   engine, so the expected tax is roughly one detector's worth of work
   per lane.  Each row sets the lanes' cost per served point next to
   the sum of the challengers' *solo* costs (each spec served alone, the
   ``solo`` section), so a slow lane is never blamed on the lane
   mechanism when the challenger spec itself is slow.

2. **What does selection buy?**  The ``regret`` section streams a
   drifting series into a session whose champion is deliberately wrong
   for the post-drift regime (``ae+sw+never`` — it never fine-tunes)
   with an adaptive challenger (``ae+sw+kswin``) racing it, and compares
   the session's mean nonconformity against every *fixed* spec run
   offline over the same series.  The policy must beat the worst fixed
   spec (it escaped the bad champion) and track the best within a
   bounded factor (the gap is the exploration cost: the points scored by
   the champion before the win was durable enough to promote).  A
   downsampled cumulative-mean trace of each arm is recorded so the
   crossover is visible in the JSON.

Before any number is written, equivalence is asserted: a session with
selection *disabled* — and one with a race armed but promotion
structurally off — must serve scores bitwise identical to the offline
``run_stream(batch_size=1)`` reference.  Overhead figures for a
subsystem that changed the scores would be meaningless.

Results land in ``BENCH_select.json`` at the repo root.  Run as a
script (``python benchmarks/bench_select.py [--fast] [--out PATH]``).
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from repro.core.config import DetectorConfig
from repro.core.registry import AlgorithmSpec, build_detector
from repro.core.types import TimeSeries
from repro.serve import DetectionService, ServeClient, ServeConfig
from repro.streaming.runner import run_stream

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_select.json"

N_CHANNELS = 2
CHAMPION = "ae+sw+never"  # never fine-tunes: wrong after the drift
CHALLENGER = "ae+sw+kswin"
#: extra lanes for the 3-challenger overhead row (cheap, mixed families).
EXTRA_LANES = ["var+sw+kswin", "online_arima+sw+musigma"]
CONFIG = dict(
    window=6,
    train_capacity=24,
    fit_epochs=3,
    initial_train_size=40,
    kswin_check_every=1,
)
SELECT = dict(
    challengers=[CHALLENGER],
    policy="ewma",
    warmup=40,
    margin=0.02,
    dwell=16,
    min_dwell=64,
    fire_weight=0.0,
    demote=False,
)


def make_values(n, seed=0):
    """White noise with a variance/level shift at ``n // 2`` — the
    regime change the adaptive challenger handles and the frozen
    champion cannot."""
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(n, N_CHANNELS))
    values[n // 2 :] = values[n // 2 :] * 2.5 + 1.0
    return values


def offline(spec_label, values):
    detector = build_detector(
        AlgorithmSpec(*spec_label.split("+")),
        n_channels=N_CHANNELS,
        config=DetectorConfig(**CONFIG),
    )
    series = TimeSeries(
        values=values, labels=np.zeros(len(values), dtype=int)
    )
    return run_stream(detector, series, batch_size=1)


def _service():
    return DetectionService(
        ServeConfig(
            max_batch=16,
            max_delay_ms=0.0,
            queue_limit=4096,
            result_limit=8192,
            per_session_telemetry=False,
            detector=DetectorConfig(**CONFIG),
        ),
        autostart=False,
    )


def serve_run(values, select, chunk=64, spec=CHAMPION):
    """Drive one session to completion; return results, stats, rate."""
    service = _service()
    client = ServeClient(service)
    reply = client.create(
        "bench", spec=spec, n_channels=N_CHANNELS, select=select
    )
    assert reply["ok"], reply
    by_seq = {}
    started = time.perf_counter()
    sent = 0
    while sent < len(values):
        reply = client.ingest("bench", values[sent : sent + chunk], expect=sent)
        assert reply["ok"], reply
        sent += reply["accepted"]
        for result in client.score("bench")["results"]:
            by_seq[result["seq"]] = result
    elapsed = time.perf_counter() - started
    describe = client.describe("bench")
    service.shutdown()
    assert sorted(by_seq) == list(range(len(values)))
    return {
        "scores": np.array([by_seq[i]["score"] for i in range(len(values))]),
        "nonconformities": np.array(
            [by_seq[i]["nonconformity"] for i in range(len(values))]
        ),
        "points_per_second": len(values) / elapsed,
        "selection": describe.get("selection"),
    }


def assert_equivalence(values):
    """Selection-off (and promotion-off shadow racing) must serve the
    offline reference bitwise."""
    reference = offline(CHAMPION, values)
    plain = serve_run(values, None)
    assert np.array_equal(plain["scores"], reference.scores), (
        "served scores (selection disabled) diverged from run_stream"
    )
    shadow = serve_run(values, dict(SELECT, min_dwell=10**9))
    assert np.array_equal(shadow["scores"], reference.scores), (
        "shadow racing perturbed the champion's served scores"
    )
    assert shadow["selection"]["promotions"] == 0
    return {
        "bitwise_identical": True,
        "shadow_neutral": True,
        "reference": "run_stream(batch_size=1)",
    }


def solo_section(values):
    """Serving rate of each challenger spec alone, no selection."""
    rows = []
    for spec in (CHALLENGER, *EXTRA_LANES):
        rate = serve_run(values, None, spec=spec)["points_per_second"]
        rows.append(
            {"spec": spec, "points_per_second": rate, "us_per_pt": 1e6 / rate}
        )
    return rows


def overhead_section(values, solo):
    """Serving rate at 0 / 1 / 3 challenger lanes, promotion disabled.

    ``lane_us_per_pt`` is what the lanes add per served point over the
    champion alone; ``challengers_solo_us_per_pt`` is the sum of the
    challengers' costs served alone, from ``solo``.
    """
    solo_us = {row["spec"]: row["us_per_pt"] for row in solo}
    rows = []
    baseline = None
    for lanes in ([], [CHALLENGER], [CHALLENGER, *EXTRA_LANES]):
        select = (
            dict(SELECT, challengers=lanes, min_dwell=10**9) if lanes else None
        )
        rate = serve_run(values, select)["points_per_second"]
        if baseline is None:
            baseline = rate
        rows.append(
            {
                "n_challengers": len(lanes),
                "challengers": lanes,
                "points_per_second": rate,
                "relative_rate": rate / baseline,
                "lane_us_per_pt": 1e6 / rate - 1e6 / baseline,
                "challengers_solo_us_per_pt": sum(solo_us[s] for s in lanes),
            }
        )
    return rows


def print_lane_costs(payload: dict) -> None:
    """One line per overhead row: lane cost next to the solo cost."""
    print(f"{'challengers':<52} {'lane us/pt':>11} {'solo us/pt':>11}")
    for row in payload["overhead"][1:]:
        print(
            f"{', '.join(row['challengers']):<52} "
            f"{row['lane_us_per_pt']:>11.1f} "
            f"{row['challengers_solo_us_per_pt']:>11.1f}"
        )
    for row in payload["solo"]:
        print(f"  solo {row['spec']:<46} {row['points_per_second']:>11.0f} pts/s")


def _cumulative_trace(nonconformities, n_samples=50):
    """Downsampled running-mean nonconformity (the regret trace)."""
    cumulative = np.cumsum(nonconformities) / np.arange(
        1, len(nonconformities) + 1
    )
    idx = np.linspace(0, len(cumulative) - 1, n_samples).astype(int)
    return {
        "t": idx.tolist(),
        "mean_nonconformity": cumulative[idx].tolist(),
    }


def regret_section(values, tracking_bound):
    """Policy-selected session vs every fixed spec on the same stream.

    Mean nonconformity over the post-drift region is the figure of
    merit: the drift is where the arms separate, and nonconformity is
    the label-free loss the selection signal itself is built on.
    """
    drift_at = len(values) // 2
    fixed = {}
    for label in (CHAMPION, CHALLENGER):
        result = offline(label, values)
        fixed[label] = {
            "mean_nonconformity": float(
                np.mean(result.nonconformities[drift_at:])
            ),
            "trace": _cumulative_trace(result.nonconformities),
        }
    policy = serve_run(values, dict(SELECT))
    policy_mean = float(np.mean(policy["nonconformities"][drift_at:]))
    events = policy["selection"]["events"]
    assert policy["selection"]["promotions"] >= 1, (
        "the policy never escaped the deliberately bad champion"
    )
    worst = max(entry["mean_nonconformity"] for entry in fixed.values())
    best = min(entry["mean_nonconformity"] for entry in fixed.values())
    assert policy_mean < worst, (
        f"policy regret {policy_mean:.4f} does not beat the worst fixed "
        f"spec ({worst:.4f})"
    )
    assert policy_mean <= best * tracking_bound, (
        f"policy regret {policy_mean:.4f} exceeds {tracking_bound}x the "
        f"best fixed spec ({best:.4f})"
    )
    return {
        "post_drift_from": drift_at,
        "fixed": fixed,
        "policy": {
            "champion": CHAMPION,
            "select": SELECT,
            "mean_nonconformity": policy_mean,
            "promotions": policy["selection"]["promotions"],
            "events": events,
            "trace": _cumulative_trace(policy["nonconformities"]),
        },
        "tracking_bound_vs_best": tracking_bound,
        "ratio_vs_best": policy_mean / best if best > 0 else None,
    }


def run_benchmarks(fast: bool) -> dict:
    n = 400 if fast else 1600
    values = make_values(n)
    # Overhead rows use a shorter slice in fast mode; the regret stream
    # needs the full drift arc either way.
    equivalence = assert_equivalence(values)
    solo = solo_section(values)
    return {
        "generated_by": "benchmarks/bench_select.py",
        "mode": "fast" if fast else "full",
        "champion": CHAMPION,
        "n_points": n,
        "config": CONFIG,
        "equivalence": equivalence,
        "solo": solo,
        "overhead": overhead_section(values, solo),
        # The bound is generous in fast mode: with only ~200 post-drift
        # points, most of them are spent proving the win is durable.
        "regret": regret_section(values, tracking_bound=8.0 if fast else 3.0),
    }


def write_results(payload: dict, out: Path = DEFAULT_OUT) -> Path:
    out.write_text(json.dumps(payload, indent=2) + "\n")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Online algorithm selection benchmark"
    )
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
    print_lane_costs(payload)
    print(f"results written to {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
