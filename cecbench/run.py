#!/usr/bin/env python3
"""End-to-end CEC benchmark for SimGen.

Builds the benchmark package (cecbench/, which compiles ../src) in
Release mode, runs one workload and prints one JSON result line last:

    python3 cecbench/run.py --workload cec_guided --seed 0 --seconds 15 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
runs the workload once untraced and once traced and reports the
per-layer metrics, writing the spans to <build>/traces/. The build goes
to $CARGO_TARGET_DIR/cecbench if that is set, else .bench_build/cecbench,
both relative to the repository root. Host facts (CPU model, CPU count,
simulation kernel, build type) are printed with every run: never compare
runs from different hosts or kernels.
"""
import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cec_guided", "cec_sat", "table2_flow")
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "cecbench")


def build(directory):
    """Configures (once) and builds; returns False on any failure."""
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(directory, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", directory, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", directory, "-j", jobs])
    for step in steps:
        result = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if result.returncode != 0:
            log(result.stdout[-4000:])
            log("cecbench: build step failed: " + " ".join(step))
            return False
    return True


def cpu_model():
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def expected_metrics(trace):
    """{name: unit} that BENCHMARK.json promises for this mode, or None."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as spec:
            bench = json.load(spec)
    except (OSError, ValueError):
        return None
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    directory = build_dir()
    if not build(directory):
        return 1
    binary = os.path.join(directory, "cecbench")
    print(f"host: cpu_model={cpu_model()!r} nproc={len(os.sched_getaffinity(0))}", flush=True)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(directory, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    start = time.monotonic()
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"cecbench: no result within {RUN_TIMEOUT_S} s")
        return 1
    lines = result.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if result.returncode != 0 or not lines:
        # A wrong answer still ends with its (correct: false) result line.
        if lines and lines[-1].startswith("{"):
            print(lines[-1], flush=True)
        log(f"cecbench: exited with code {result.returncode} after {time.monotonic() - start:.1f} s")
        return result.returncode or 1

    report = json.loads(lines[-1])
    expected = expected_metrics(args.trace)
    reported = {name: metric["unit"] for name, metric in report["metrics"].items()}
    if expected is not None and reported != expected:
        log(f"cecbench: metrics differ from BENCHMARK.json: {sorted(reported.items())}")
        return 1
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
