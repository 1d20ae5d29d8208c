"""Smoke test for the speedup benchmark: regenerates BENCH_parallel.json.

Runs ``benchmarks/bench_parallel_speedup.py --fast`` as a subprocess (the
benchmarks directory is not a package) and checks the emitted JSON has
the expected shape.  Speedup thresholds are asserted only loosely here —
the fast mode exists to prove the pipeline works, not to measure; the
full run (``python benchmarks/bench_parallel_speedup.py``) produces the
committed numbers.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_SCRIPT = REPO_ROOT / "benchmarks" / "bench_parallel_speedup.py"
METRICS_BENCH_SCRIPT = REPO_ROOT / "benchmarks" / "bench_metrics.py"
STREAM_BENCH_SCRIPT = REPO_ROOT / "benchmarks" / "bench_runtime_models.py"
SERVE_BENCH_SCRIPT = REPO_ROOT / "benchmarks" / "bench_serve.py"
FLEET_BENCH_SCRIPT = REPO_ROOT / "benchmarks" / "bench_fleet.py"


def test_bench_parallel_smoke(tmp_path):
    out = tmp_path / "BENCH_parallel.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    completed = subprocess.run(
        [
            sys.executable,
            str(BENCH_SCRIPT),
            "--fast",
            "--n-jobs",
            "2",
            "--out",
            str(out),
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert completed.returncode == 0, completed.stderr

    payload = json.loads(out.read_text())
    assert payload["mode"] == "fast"
    for key in ("generated_by", "cpu_count", "grid", "iforest_batch", "determinism"):
        assert key in payload
    grid = payload["grid"]
    for key in (
        "n_cells",
        "legacy_sequential_s",
        "sequential_s",
        "parallel_s",
        "hotpath_speedup",
        "pool_speedup",
        "speedup",
    ):
        assert key in grid
    # Correctness claims hold even at smoke scale; timing claims do not.
    assert payload["determinism"]["bitwise_identical"] is True
    assert payload["iforest_batch"]["speedup"] > 1.0


def test_bench_metrics_smoke(tmp_path):
    out = tmp_path / "BENCH_metrics.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    completed = subprocess.run(
        [sys.executable, str(METRICS_BENCH_SCRIPT), "--fast", "--out", str(out)],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert completed.returncode == 0, completed.stderr

    payload = json.loads(out.read_text())
    assert payload["mode"] == "fast"
    for key in ("generated_by", "cpu_count", "n_steps", "vus", "range_pr",
                "nab", "kswin", "speedup"):
        assert key in payload
    for section in ("vus", "range_pr", "nab"):
        for key in ("reference_s", "sweep_s", "speedup", "allclose_rtol"):
            assert key in payload[section]
        assert payload[section]["allclose_rtol"] == 1e-9
    # Correctness claims hold even at smoke scale (the benchmark raises on
    # any reference divergence before writing results); timing claims do not.
    assert payload["kswin"]["decisions_identical"] is True
    assert payload["speedup"] > 1.0


def test_bench_stream_smoke(tmp_path):
    out = tmp_path / "BENCH_stream.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    completed = subprocess.run(
        [sys.executable, str(STREAM_BENCH_SCRIPT), "--fast", "--out", str(out)],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert completed.returncode == 0, completed.stderr

    payload = json.loads(out.read_text())
    assert payload["mode"] == "fast"
    for key in ("generated_by", "cpu_count", "chunk_size", "combos", "determinism"):
        assert key in payload
    assert len(payload["combos"]) == 5
    for combo in payload["combos"]:
        for key in (
            "algorithm",
            "n_steps",
            "steps_per_second",
            "speedup_vs_chunk1",
        ):
            assert key in combo
        # Correctness claim (identity with the chunk=1 reference) holds
        # even at smoke scale; the benchmark asserts it before writing.
        assert combo["bitwise_identical"] is True
    assert payload["determinism"]["bitwise_identical"] is True

    telemetry = payload["telemetry"]
    for key in (
        "disabled_seconds",
        "disabled_spread",
        "traced_seconds",
        "traced_overhead",
        "scores_identical",
    ):
        assert key in telemetry
    # Disabled telemetry must not change a single bit of the scores; the
    # runtime claim ("within noise") is judged from the recorded
    # disabled_spread at full scale, not asserted at smoke scale.
    assert telemetry["scores_identical"] is True
    assert len(telemetry["disabled_seconds"]) == 3


def test_bench_serve_smoke(tmp_path):
    out = tmp_path / "BENCH_serve.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    completed = subprocess.run(
        [sys.executable, str(SERVE_BENCH_SCRIPT), "--fast", "--out", str(out)],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert completed.returncode == 0, completed.stderr

    payload = json.loads(out.read_text())
    assert payload["mode"] == "fast"
    for key in (
        "generated_by",
        "cpu_count",
        "spec",
        "n_points_per_session",
        "offline_ceiling_points_per_second",
        "matrix",
        "wire",
        "equivalence",
    ):
        assert key in payload
    assert len(payload["matrix"]) == 4  # 2 session counts x 2 batch sizes
    for row in payload["matrix"]:
        for key in ("sessions", "max_batch", "points_per_second",
                    "efficiency_vs_ceiling"):
            assert key in row
        assert row["points_per_second"] > 0
    # Correctness claim (served == offline run_stream, bitwise) holds even
    # at smoke scale; the benchmark asserts it before writing any number.
    assert payload["equivalence"]["bitwise_identical"] is True
    assert payload["wire"]["points_per_second"] > 0


def test_bench_fleet_smoke(tmp_path):
    out = tmp_path / "BENCH_fleet.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    completed = subprocess.run(
        [sys.executable, str(FLEET_BENCH_SCRIPT), "--fast", "--out", str(out)],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert completed.returncode == 0, completed.stderr

    payload = json.loads(out.read_text())
    assert payload["mode"] == "fast"
    for key in (
        "generated_by",
        "cpu_count",
        "spec",
        "max_batch",
        "n_points_per_session",
        "fleet",
        "fleet_drift",
        "serve",
        "equivalence",
    ):
        assert key in payload
    assert len(payload["fleet"]) == 2  # fast mode: K in {1, 4}
    assert len(payload["fleet_drift"]) == 2  # fast: one interval x K in {1, 4}
    for row in payload["fleet"] + payload["fleet_drift"]:
        for key in (
            "sessions",
            "per_session_points_per_second",
            "fused_points_per_second",
            "speedup_fused_vs_per_session",
            "fused_fraction",
            "bypassed",
            "finetunes_fused",
        ):
            assert key in row
        # Correctness claim (fused == per-session step_chunk, bitwise)
        # holds even at smoke scale; the throughput claims are asserted
        # only by the full run that writes the committed numbers.
        assert row["equivalence_bitwise"] is True
        if row["sessions"] == 1:
            # Below min_fleet the engine bypasses: all-stock, by design.
            assert row["bypassed"] is True and row["fused_fraction"] == 0
        else:
            assert row["fused_fraction"] > 0
    for row in payload["fleet_drift"]:
        assert row["drift_interval"] == 32  # fast-mode default axis
        if row["sessions"] > 1:
            # Drift-heavy fleets must fine-tune *fused*, keeping the
            # whole drain on the fused path.
            assert row["finetunes_fused"] > 0
            assert row["fused_fraction"] == 1.0
    assert payload["equivalence"]["bitwise_identical"] is True
    for key in ("fused_points_per_second", "per_session_points_per_second"):
        assert payload["serve"][key] > 0


def test_bench_select_smoke(tmp_path):
    out = tmp_path / "BENCH_select.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    completed = subprocess.run(
        [
            sys.executable,
            str(REPO_ROOT / "benchmarks" / "bench_select.py"),
            "--fast",
            "--out",
            str(out),
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert completed.returncode == 0, completed.stderr

    payload = json.loads(out.read_text())
    assert payload["mode"] == "fast"
    for key in ("generated_by", "champion", "equivalence", "overhead", "regret"):
        assert key in payload
    # Correctness claims hold even at smoke scale; the benchmark asserts
    # them before writing any number.
    assert payload["equivalence"]["bitwise_identical"] is True
    assert payload["equivalence"]["shadow_neutral"] is True
    rows = {row["n_challengers"]: row for row in payload["overhead"]}
    assert set(rows) == {0, 1, 3}
    for row in rows.values():
        assert row["points_per_second"] > 0
    # Every challenger's solo rate is reported next to its lane cost.
    solo = {row["spec"]: row for row in payload["solo"]}
    assert set(solo) == set(rows[3]["challengers"])
    assert all(row["points_per_second"] > 0 for row in solo.values())
    for row in rows.values():
        assert row["challengers_solo_us_per_pt"] == sum(
            solo[spec]["us_per_pt"] for spec in row["challengers"]
        )
        assert "lane_us_per_pt" in row
    # Shadow lanes cost throughput, never correctness: the baseline is
    # the fastest row and more lanes are monotonically slower.
    assert rows[0]["relative_rate"] == 1.0
    assert rows[1]["points_per_second"] > rows[3]["points_per_second"]
    regret = payload["regret"]
    assert regret["policy"]["promotions"] >= 1
    worst = max(
        entry["mean_nonconformity"] for entry in regret["fixed"].values()
    )
    assert regret["policy"]["mean_nonconformity"] < worst
    assert regret["ratio_vs_best"] <= regret["tracking_bound_vs_best"]
