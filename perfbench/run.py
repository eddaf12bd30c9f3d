#!/usr/bin/env python3
"""Builds and runs the repository benchmark for one workload.

Run from the repository root:

    python3 perfbench/run.py --workload sweep_large --seed 1 --seconds 20 --trace 0

The first run configures and builds perfbench/ (which pulls in the
repository's own CMake project for the `lumi` library) in Release mode under
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable is
unset; later runs only rebuild what changed.  The benchmark binary's output
is relayed; its last line is one JSON object with the keys correct,
attempted, failed and metrics.  This script checks that line against
BENCHMARK.json (metric names and units) and the binary's matrix line against
perfbench/workloads.json, and passes that file's pinned exact values to the
binary, which fails on any mismatch.  On any failure it exits non-zero
without printing a result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message: str) -> None:
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir: Path) -> Path:
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no lumi source tree (CMakeLists.txt, src/) at {ROOT}")
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the benchmark's lines.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return build_dir / "perfbench"


def check_result(line: str, bench: dict, trace: bool) -> None:
    try:
        result = json.loads(line)
    except ValueError:
        fail("the benchmark's last line is not JSON")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")
    listed = bench["per_layer"] if trace else bench["end_to_end"]
    want = {m["name"]: m["unit"] for m in listed}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        fail(f"reported metrics {got} differ from BENCHMARK.json {want}")
    if result["attempted"] < 1:
        fail("no job was attempted")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench_file = ROOT / "BENCHMARK.json"
    workloads_file = HERE / "workloads.json"
    if not bench_file.is_file() or not workloads_file.is_file():
        fail("BENCHMARK.json or perfbench/workloads.json is missing")
    bench = json.loads(bench_file.read_text(encoding="utf-8"))
    workloads = json.loads(workloads_file.read_text(encoding="utf-8"))
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; known: {', '.join(sorted(workloads))}")
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be non-negative and --seconds positive")
    spec = workloads[args.workload]

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    binary = build(target / "perfbench")

    scratch = target / f"perfbench-run-{os.getpid()}"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", str(scratch)]
    for key, value in spec["expect"].items():
        cmd += [f"--expect-{key.replace('_', '-')}", str(value)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"the benchmark did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = done.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    sys.stdout.flush()
    if done.returncode != 0:
        fail(f"the benchmark exited with code {done.returncode}")
    if f"matrix: {spec['matrix']}" not in lines:
        fail(f"the binary's matrix differs from workloads.json: {spec['matrix']!r}")
    check_result(lines[-1], bench, bool(args.trace))
    print(lines[-1])


if __name__ == "__main__":
    main()
