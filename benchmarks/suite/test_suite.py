"""Smoke checks of the benchmark itself, at ``--smoke`` scale.

    PYTHONPATH=src python -m pytest -q benchmarks/suite

Not part of the tier-1 tests: every workload runs three times in a
process of its own (two untraced runs and one traced run).
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
OUT = SUITE / "out" / "test"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
SERVE_LAYERS = {
    "protocol", "server", "session", "scheduler", "fleet", "detector",
    "representation", "models", "nonconformity", "scoring", "learning",
}
EXPECTED_LAYERS = {
    "fleet-steady": SERVE_LAYERS,
    "kswin-paper": SERVE_LAYERS,
    # Round-robin flushes one session at a time: no fleet engine call.
    "durable-churn": SERVE_LAYERS - {"fleet"} | {"wal", "state"},
    "offline-table1": {
        "detector", "representation", "models", "nonconformity", "scoring",
        "learning", "metrics",
    },
}


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"suite_{name}", SUITE / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(workload: str, trace: int, out: Path) -> dict:
    proc = subprocess.run(
        [
            sys.executable, str(SUITE / "run.py"), "--workload", workload,
            "--smoke", "--trace", str(trace), "--out", str(out),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def runs() -> dict:
    OUT.mkdir(parents=True, exist_ok=True)
    files = {name: OUT / f"{name}.jsonl" for name in ("a", "b", "traced")}
    for path in files.values():
        path.unlink(missing_ok=True)
    printed = {}
    for workload in WORKLOADS:
        printed[workload] = {
            "a": _run(workload, 0, files["a"]),
            "b": _run(workload, 0, files["b"]),
            "traced": _run(workload, 1, files["traced"]),
        }
    return {"printed": printed, "files": files}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(runs, workload):
    printed = runs["printed"][workload]
    for key, section in (("a", "end_to_end"), ("traced", "per_layer")):
        result = printed[key]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in printed["a"]["metrics"].values())


def test_outputs_pass_the_gate_and_repeat_exactly(runs):
    records = {}
    for name in ("a", "b", "traced"):
        for line in runs["files"][name].read_text().splitlines():
            record = json.loads(line)
            records.setdefault(record["workload"], set()).add(record["fingerprint"])
    assert set(records) == set(WORKLOADS)
    # One fingerprint per workload: both untraced runs and the traced run
    # scored every point identically.
    assert all(len(prints) == 1 for prints in records.values())


def test_traced_run_emits_spans_for_every_layer(runs):
    seen = set()
    for line in runs["files"]["traced"].read_text().splitlines():
        record = json.loads(line)
        assert EXPECTED_LAYERS[record["workload"]] <= set(record["layers_seen"])
        seen |= set(record["layers_seen"])
    assert seen == set(_load("trace").LAYERS)


def test_compare_reports_no_regression_between_two_runs(runs):
    compare = _load("compare")
    result = compare.compare(
        compare.load([runs["files"]["a"]]), compare.load([runs["files"]["b"]]), BENCHMARK
    )
    assert len(result["metrics"]) == len(WORKLOADS) * len(BENCHMARK["end_to_end"])
    assert not [row for row in result["metrics"] if row["verdict"] == "regressed"]
    assert all(row["fingerprints"] == "equal" for row in result["workloads"])
    assert all(row["failed_frac"] == [0.0, 0.0] for row in result["workloads"])
    base, head = str(runs["files"]["a"]), runs["files"]["b"]
    assert compare.main(["--base", base, "--head", str(head)]) == 0
    # A head that fails an operation, or scores differently, is refused
    # however fast it is.
    for field, value in (("failed", 1), ("fingerprint", "0" * 32)):
        records = [json.loads(line) for line in head.read_text().splitlines()]
        records[0][field] = value
        bad = OUT / f"bad-{field}.jsonl"
        bad.write_text("".join(json.dumps(r) + "\n" for r in records))
        assert compare.main(["--base", base, "--head", str(bad)]) == 1


def test_a_missing_layer_callable_fails_by_name():
    trace = _load("trace")
    table = trace.WRAP_TABLE + (("session", "", "repro.serve.session", "DetectorSession.no_such"),)
    with pytest.raises(trace.TraceTableError, match="DetectorSession.no_such"):
        trace.resolve_table(table)
