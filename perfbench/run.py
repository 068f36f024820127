#!/usr/bin/env python3
"""psp-centrality benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload psp-random --seed 2023 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all

Prints every metric as "workload metric = value unit", then one JSON line
{"correct", "attempted", "failed", "metrics"}; the full record (with
provenance, sweep accuracy and failure messages) goes to
.bench_out/result-<workload>-seed<seed>-trace<t>.json. --trace 1 prints the
per-layer metrics instead of the end-to-end ones and writes the spans to
.bench_out/trace-<workload>-seed<seed>.tsv.gz. See perfbench/README.md.

Exits 2 without a result when the library sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys

# One BLAS thread per process: the fork pools use up to two workers on a
# two-CPU machine. Must be set before numpy is imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("psp-random", "psp-grid", "sweep-cell")
_CHILD_TIMEOUT_S = 900


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=2023)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    return parser.parse_args(argv)


def _print_record(record) -> None:
    for name, metric in {**record["metrics"], **record["extra_metrics"]}.items():
        print(f"{record['workload']} {name} = {metric['value']!r} {metric['unit']}")
    if not record["trace"]:
        frac = record["failed"] / record["attempted"]
        print(f"{record['workload']} failed_frac = {frac!r} fraction "
              f"({record['failed']} of {record['attempted']} checked calls failed; "
              f"{record['exact']} identical to the reference or to pass 0, "
              f"{record['close']} within tolerance, "
              f"{record['invariants_only']} checked on invariants only)")
    for message in record["messages"]:
        print(f"{record['workload']} check: {message}")
    print(f"{record['workload']} provenance = {json.dumps(record['provenance'], sort_keys=True)}")


def _result_line(record) -> str:
    return json.dumps(
        {key: record[key] for key in ("correct", "attempted", "failed", "metrics")}
    )


def run_one(args) -> int:
    sys.path.insert(0, SRC)
    import measure  # imports numpy and the library, after the thread pins

    record = measure.run(args.workload, args.seed, args.seconds, args.trace, args.scale, ROOT)
    out_dir = os.path.join(ROOT, ".bench_out")
    path = os.path.join(out_dir, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    _print_record(record)
    print(_result_line(record), flush=True)
    return 0


def run_all(args) -> int:
    """Run each workload in its own process and print a combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [
            sys.executable, os.path.abspath(__file__), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--scale", args.scale,
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=_CHILD_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {workload} exited with {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined), flush=True)
    return 0


def _exit_on_sigterm(signum, _frame):
    # Unwinds through every with-block, so child processes are stopped and waited for.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "psp_centrality", "__init__.py")):
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
