#!/usr/bin/env python3
"""The repo benchmark: one command, three workloads (see README.md).

    python3 perfbench/run.py --workload tpch_power_serial --seed 1
        --seconds 20 --trace 0

Run from the root of a checkout. It builds the benchmark binary
(perfbench_tpch) and the engine from source into $CARGO_TARGET_DIR
(default .bench_build), runs the workload, checks every result against a serial
reference, and prints a report whose last line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones; with --trace 1 they are the per-layer ones of a
traced run, whose spans are kept in the build directory. Exits non-zero
when any result is wrong or any query fails.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402

WORKLOADS = ("tpch_power_staged", "tpch_power_serial", "tpch_serve_mixed")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configures and builds the benchmark binary; returns its path."""
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        raise RuntimeError(f"{root} holds no engine sources to build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    out = build_dir / "perfbench"
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench_tpch",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    return out / "perfbench_tpch"


def report(raw, metric_values, units, details):
    meta = raw["meta"]
    unfit = meta["nproc"] <= 1
    log_lines = [
        f"workload {meta['workload']}  seed {meta['seed']}  "
        f"SF {meta['scale_factor']}  nproc {meta['nproc']}  "
        f"pool threads {meta['pool_threads']}  "
        f"clients {meta.get('clients', 1)}  simd {meta['simd']}",
    ]
    if unfit:
        log_lines.append("WARNING: 1-core host; unfit for comparison")
    for key, value in details.items():
        log_lines.append(f"  {key} = {value}")
    for name, value in metric_values.items():
        log_lines.append(f"{name:34s} {value:14.6g} {units[name]}")
    print("\n".join(log_lines))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    root = HERE.parent
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        binary = build(root, build_dir)
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        log(f"build failed: {e}")
        return 2

    tag = f"{args.workload}.seed{args.seed}.trace{args.trace}"
    raw_path = build_dir / f"raw.{tag}.json"
    spans_path = build_dir / f"spans.{tag}.jsonl"
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(raw_path),
           "--spans", str(spans_path)]
    try:
        subprocess.run(cmd, check=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        log(f"benchmark run failed: {e}")
        return 2

    raw = metrics.load_raw(json.loads(raw_path.read_text()))
    attempted, failed = metrics.counts(raw)
    correct = failed == 0 and raw["mismatches"] == 0
    if args.trace:
        spans = [json.loads(line)
                 for line in spans_path.read_text().splitlines()]
        values, details = metrics.per_layer(raw, spans)
        units = metrics.per_layer_units()
        details = {"spans": len(spans), "spans_file": spans_path.name,
                   **details}
    else:
        values, details = metrics.end_to_end(raw)
        units = metrics.END_TO_END_UNITS
    details["failed_frac"] = metrics.failed_frac(attempted, failed)
    details["mismatches"] = raw["mismatches"]
    report(raw, values, units, details)

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value if math.isfinite(value) else None,
                   "unit": units[name]}
            for name, value in values.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
