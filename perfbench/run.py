#!/usr/bin/env python3
"""Build and run the ForestView end-to-end benchmark.

    python3 perfbench/run.py --workload serve_mixed --seed 1 --seconds 20 --trace 0

Builds perfbench/ with CMake (Release) into $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench, then runs one workload. Standard output is
the benchmark's human-readable report; its last line is one JSON object
with the keys correct, attempted, failed and metrics. Metric names and
units are checked against BENCHMARK.json before that line is printed, and
per-layer metrics of layers the workload does not touch are reported as 0.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures once, then builds incrementally; tool output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--parallel", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr.fileno()).returncode != 0:
            fail("build failed: " + " ".join(step))


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def checked_result(line, expected, layers):
    """Validates the program's result line against BENCHMARK.json."""
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")
    metrics = result["metrics"]
    for name, metric in metrics.items():
        if name not in expected:
            fail(f"metric {name} is not in BENCHMARK.json")
        if metric["unit"] != expected[name]:
            fail(f"metric {name} has unit {metric['unit']}, "
                 f"BENCHMARK.json says {expected[name]}")
    for name, unit in expected.items():
        if name not in metrics:
            if not layers:
                fail(f"end-to-end metric {name} was not measured")
            metrics[name] = {"value": 0, "unit": unit}
    result["metrics"] = {name: metrics[name] for name in expected}
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args()

    bench = spec()
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        fail(f"unknown workload {args.workload}")
    layers = args.trace == "1"
    expected = {m["name"]: m["unit"]
                for m in bench["per_layer" if layers else "end_to_end"]}

    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                              ".bench_build")
    build_dir = os.path.join(build_root, "perfbench")
    build(build_dir)

    command = [os.path.join(build_dir, "fv_perfbench"),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", repr(args.seconds),
               "--trace", args.trace,
               "--work-dir", os.path.join(build_root, "perfbench-work",
                                          f"{args.workload}-{os.getpid()}"),
               "--trace-dir", os.path.join(build_root, "perfbench-trace")]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stdout)
        fail(f"{args.workload} exited with code {proc.returncode}")
    result = checked_result(lines[-1], expected, layers)
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
