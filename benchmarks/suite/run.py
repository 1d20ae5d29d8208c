"""Run the repository benchmark: every metric by name, with its unit.

    python3 benchmarks/suite/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace [0|1]] [--smoke] [--out FILE]

With ``--workload`` the workload runs in this process and the last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics of ``BENCHMARK.json``,
or its per-layer metrics with ``--trace``).  Without it, every workload
runs in a fresh process of its own, one after another.  ``--out``
appends each workload's full record (fingerprint and detail included)
as one JSON line, the input of ``compare.py``.

Outputs are checked before any number is printed; a wrong output exits
with status 1 and no metrics.  Run from the repository root; the
program under test is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import ctypes
import ctypes.util
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
OUT = SUITE / "out"
#: glibc ``mallopt`` parameters (``malloc.h``).
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def parse_args(argv, benchmark: dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", choices=[w["name"] for w in benchmark["workloads"]]
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="report the per-layer metrics of a traced run",
    )
    parser.add_argument(
        "--smoke", action="store_true", help="tiny inputs: checks plumbing, not speed"
    )
    parser.add_argument("--out", type=Path, help="append each result record here")
    args = parser.parse_args(argv)
    if args.smoke:
        args.seconds = 1.0
    return args


def run_all(args: argparse.Namespace, benchmark: dict) -> int:
    status = 0
    for workload in benchmark["workloads"]:
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", workload["name"],
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        if args.smoke:
            command.append("--smoke")
        if args.out is not None:
            command += ["--out", str(args.out)]
        print(f"== {workload['name']}", flush=True)
        status = max(status, subprocess.run(command, check=False).returncode)
    return status


def pin_allocator() -> None:
    """Serve large numpy temporaries from the heap and keep freed memory.

    With glibc's sliding defaults, whether a pass maps, faults in and
    unmaps its temporaries depends on the heap's history: the same 2 s
    fine-tune pass took 0 or 300k page faults (up to 0.6 s of kernel
    time) from one repetition to the next.
    """
    libc = ctypes.CDLL(ctypes.util.find_library("c"))
    if not (
        libc.mallopt(M_MMAP_THRESHOLD, 32 << 20) and libc.mallopt(M_TRIM_THRESHOLD, 1 << 30)
    ):
        raise OSError("mallopt refused the allocator settings")


def run_one(args: argparse.Namespace, benchmark: dict) -> int:
    # One process, at most two threads (generator + drain): keep BLAS
    # single-threaded.  Must happen before numpy is imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    pin_allocator()
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"no program to benchmark: {src / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    workdir = OUT / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(workdir)  # keep every temporary file in the tree

    import workloads
    from trace import TraceTableError, resolve_table

    try:
        resolve_table()
        record = workloads.run(
            args.workload, args.seed, args.seconds, bool(args.trace), args.smoke,
            workdir, OUT / f"trace-{args.workload}.jsonl",
        )
    except (TraceTableError, workloads.BenchmarkError) as error:
        print(f"{args.workload}: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    key, values = ("per_layer", record["layers"]) if args.trace else ("end_to_end", record["metrics"])
    metrics = {}
    for metric in benchmark[key]:
        if metric["name"] not in values:
            print(f"{args.workload} did not measure {metric['name']}", file=sys.stderr)
            return 1
        metrics[metric["name"]] = {"value": values[metric["name"]], "unit": metric["unit"]}
    result = {
        "correct": True,
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": metrics,
    }
    print(f"{args.workload} fingerprint {record['fingerprint']}")
    for name, entry in record.get("detail", {}).items():
        print(f"{args.workload} {name} {entry}")
    if args.out is not None:
        full = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "smoke": args.smoke,
            "fingerprint": record["fingerprint"],
            "detail": record.get("detail", {}),
            "layers_seen": record.get("layers_seen", []),
            **result,
        }
        args.out.parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(full) + "\n")
    print(json.dumps(result), flush=True)
    return 0


def main(argv=None) -> int:
    benchmark = load_benchmark()
    args = parse_args(argv, benchmark)
    if args.workload is None:
        return run_all(args, benchmark)
    return run_one(args, benchmark)


if __name__ == "__main__":
    sys.exit(main())
