"""Compare two sets of benchmark results, one row per (metric, workload).

    python3 benchmarks/suite/compare.py --base A.jsonl [...] --head B.jsonl [...]

Each file holds the records ``run.py --out`` appends (untraced runs are
compared; traced ones are skipped).  Runs are paired in file order, so
alternate which side runs first when collecting them.  Per side: median
and quartiles.  The verdict follows the repository's rule for claims
and regressions:

- ``improved``: at least ten pairs, the head wins nine tenths of them
  (ties count for neither), and the medians differ by more than the
  base's quartile distance;
- ``regressed``: at least three runs a side and the head's median is
  worse than the base's by more than the metric's bound in
  ``BENCHMARK.json`` — unless the spread (quartile distance over
  median, either side) is wider than the bound, in which case only a
  head that is worse in every run against every base run counts;
- ``unresolved``: worse by more than the bound without meeting the
  above, or a spread wider than the bound unless every head run is
  better than every base run;
- ``unchanged``: otherwise.

Each workload also gets one row with the failed fraction of each side
(``failed / attempted``) and whether the score fingerprints of the
seeds both sides ran are equal.  Exits 1 when a metric regressed, when
the head's failed fraction is higher than the base's, or when the
fingerprints differ: a speed-up that fails more operations or changes
the scores is not a gain.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load(paths: list[Path]) -> dict[str, list[dict]]:
    """Untraced records by workload, in file order."""
    out: dict[str, list[dict]] = {}
    for path in paths:
        for line in path.read_text(encoding="utf-8").splitlines():
            if line.strip():
                record = json.loads(line)
                if not record.get("trace"):
                    out.setdefault(record["workload"], []).append(record)
    return out


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base: list[float], head: list[float], better: str, bound: float) -> dict:
    sign = 1.0 if better == "higher" else -1.0
    b1, bm, b3 = _quartiles(base)
    h1, hm, h3 = _quartiles(head)
    worse = -sign * (hm - bm) / abs(bm) if bm else 0.0
    spread = max((b3 - b1) / abs(bm) if bm else 0.0, (h3 - h1) / abs(hm) if hm else 0.0)
    pairs = list(zip(base, head))
    wins = sum(1 for b, h in pairs if sign * (h - b) > 0)
    every_run_worse = max(sign * h for h in head) < min(sign * b for b in base)
    every_run_better = min(sign * h for h in head) > max(sign * b for b in base)
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and sign * (hm - bm) > b3 - b1:
        result = "improved"
    elif worse > bound and min(len(base), len(head)) >= 3 and (
        spread <= bound or every_run_worse
    ):
        result = "regressed"
    elif worse > bound or (spread > bound and not every_run_better):
        result = "unresolved"
    else:
        result = "unchanged"
    return {
        "base": [b1, bm, b3],
        "head": [h1, hm, h3],
        "worse_by": worse,
        "spread": spread,
        "bound": bound,
        "verdict": result,
    }


def _fingerprints(records: list[dict]) -> dict[int, set[str]]:
    out: dict[int, set[str]] = {}
    for record in records:
        out.setdefault(record["seed"], set()).add(record["fingerprint"])
    return out


def compare(base: dict[str, list[dict]], head: dict[str, list[dict]], benchmark: dict) -> dict:
    metric_rows, workload_rows = [], []
    for workload in [w["name"] for w in benchmark["workloads"]]:
        if workload not in base or workload not in head:
            continue
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            row = verdict(
                [r["metrics"][name]["value"] for r in base[workload]],
                [r["metrics"][name]["value"] for r in head[workload]],
                metric["better"],
                metric["bound"],
            )
            metric_rows.append({"workload": workload, "metric": name, **row})
        prints_b, prints_h = _fingerprints(base[workload]), _fingerprints(head[workload])
        common = sorted(set(prints_b) & set(prints_h))
        workload_rows.append(
            {
                "workload": workload,
                "failed_frac": [
                    sum(r["failed"] for r in side[workload])
                    / sum(r["attempted"] for r in side[workload])
                    for side in (base, head)
                ],
                "fingerprints": (
                    "n/a"
                    if not common
                    else "equal"
                    if all(len(prints_b[s] | prints_h[s]) == 1 for s in common)
                    else "differ"
                ),
            }
        )
    return {"metrics": metric_rows, "workloads": workload_rows}


def rejected(result: dict) -> bool:
    """Whether the head regressed, failed more, or scored differently."""
    return any(row["verdict"] == "regressed" for row in result["metrics"]) or any(
        row["failed_frac"][1] > row["failed_frac"][0] or row["fingerprints"] == "differ"
        for row in result["workloads"]
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, nargs="+", required=True)
    parser.add_argument("--head", type=Path, nargs="+", required=True)
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    result = compare(load(args.base), load(args.head), benchmark)
    print(f"{'workload':16} {'metric':18} {'base q1/med/q3':>30} {'head q1/med/q3':>30} {'worse':>7} {'spread':>7} {'bound':>6}  verdict")
    for row in result["metrics"]:
        base_q = "/".join(f"{v:.4g}" for v in row["base"])
        head_q = "/".join(f"{v:.4g}" for v in row["head"])
        print(
            f"{row['workload']:16} {row['metric']:18} {base_q:>30} {head_q:>30} "
            f"{row['worse_by']:>+7.1%} {row['spread']:>7.1%} {row['bound']:>6.0%}  {row['verdict']}"
        )
    for row in result["workloads"]:
        base_f, head_f = row["failed_frac"]
        print(
            f"{row['workload']:16} failed_frac {base_f:.4f} -> {head_f:.4f}, "
            f"fingerprints {row['fingerprints']}"
        )
    return 1 if rejected(result) else 0


if __name__ == "__main__":
    sys.exit(main())
