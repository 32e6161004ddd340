#!/usr/bin/env python3
"""PR-over-PR benchmark comparison for BENCH_<name>.json snapshots.

Compares two directories of Google Benchmark JSON files (as written by
bench/run_benches.sh) benchmark-by-benchmark and prints a delta table.
Exits nonzero when any matched benchmark regressed by more than the
threshold (default 10%), so CI can gate on the perf trajectory.

Counters are compared too. The ones in GATED_COUNTERS are deterministic
work counts (wire bytes, pruned tiles, recall), gated in their declared
direction: each fails beyond DETERMINISTIC_THRESHOLD_PCT. Every other
counter, timed ones such as bench_serve's p99_ms included, is reported
only.

Usage:
    bench/compare_benchmarks.py BASELINE_DIR CURRENT_DIR [--threshold PCT]
                                [--metric real_time|cpu_time]

Benchmarks and counters present on only one side are listed as new or
removed and never fail the comparison (new benchmarks appear, retired
ones disappear).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path


# Google Benchmark reports times in the benchmark's own Unit(); normalize to
# nanoseconds so snapshots taken before/after a ->Unit() change still compare.
TIME_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

# Counters gated in the direction that is better: name -> "lower" or
# "higher". Each is a seeded work count that moves only when the code does,
# so it gets a tight threshold. Timed counters (bench_serve's p99_ms) stay
# reported only until their run-to-run spread is measured.
GATED_COUNTERS = {
    # bench_fig3: payload MB shipped to the wall nodes per frame.
    "MB_shipped": "lower",
    # bench_fig3: commands executed, summed over tiles, per command
    # recorded; a looser cull raises it.
    "cull_ratio": "lower",
    # bench_lsh_topk: share of pairs scored exactly, and recall vs exact.
    "exact_dot_fraction": "lower",
    "recall": "higher",
    # bench_knn_topk: tiles skipped by the prune bound.
    "tiles_pruned": "higher",
    # bench_hclust: distance matrix size.
    "matrix_MiB": "lower",
}

# Percent a gated counter may move in its worse direction.
DETERMINISTIC_THRESHOLD_PCT = 1.0

# Fields of a Google Benchmark run that are not user counters.
STANDARD_FIELDS = {
    "name", "family_index", "per_family_instance_index", "run_name",
    "run_type", "repetitions", "repetition_index", "threads", "iterations",
    "real_time", "cpu_time", "time_unit", "label", "error_occurred",
    "error_message", "aggregate_name", "aggregate_unit", "big_o", "rms",
}


def load_snapshot_dir(directory: Path,
                      metric: str) -> tuple[dict[str, dict], dict[str, float]]:
    """Maps '<file-stem>/<benchmark name>' -> {'value': ns, 'unit': str},
    and '<file-stem>/<benchmark name>:<counter>' -> the counter's value."""
    results: dict[str, dict] = {}
    counters: dict[str, float] = {}
    for path in sorted(directory.glob("BENCH_*.json")):
        try:
            with path.open() as handle:
                document = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            print(f"warning: skipping unreadable {path}: {error}",
                  file=sys.stderr)
            continue
        stem = path.stem.removeprefix("BENCH_")
        for bench in document.get("benchmarks", []):
            # Aggregate rows (mean/median/stddev of repetitions) would double
            # count; plain runs have run_type == 'iteration'.
            if bench.get("run_type", "iteration") != "iteration":
                continue
            name = bench.get("name")
            if name is None or metric not in bench:
                continue
            unit = bench.get("time_unit", "ns")
            if unit not in TIME_UNIT_NS:
                print(f"warning: {path}: unknown time_unit '{unit}' for "
                      f"{name}; skipping", file=sys.stderr)
                continue
            results[f"{stem}/{name}"] = {
                "value": float(bench[metric]) * TIME_UNIT_NS[unit],
                "unit": unit,
            }
            for key, value in bench.items():
                if (key not in STANDARD_FIELDS and
                        isinstance(value, (int, float)) and
                        not isinstance(value, bool)):
                    counters[f"{stem}/{name}:{key}"] = float(value)
    return results, counters


def worsening(base: float, cur: float, better: str) -> float:
    """Percent change of a counter in its worse direction (negative when it
    improved); a move away from a zero baseline is infinite."""
    change = cur - base if better == "lower" else base - cur
    if base == 0.0:
        return 0.0 if change == 0.0 else math.copysign(math.inf, change)
    return 100.0 * change / abs(base)


def compare_counters(baseline: dict[str, float],
                     current: dict[str, float]) -> list[tuple[str, float]]:
    """Prints the counter table; returns the gated counters that regressed
    with how far, in percent."""
    shared = sorted(set(baseline) & set(current))
    only_baseline = sorted(set(baseline) - set(current))
    only_current = sorted(set(current) - set(baseline))
    if not (shared or only_baseline or only_current):
        return []
    regressions: list[tuple[str, float]] = []
    width = max(len(key) for key in [*shared, *only_baseline, *only_current])
    header = (f"{'counter':<{width}}  {'baseline':>14}  {'current':>14}  "
              f"{'worse by':>9}  gate")
    print()
    print(header)
    print("-" * len(header))
    for key in shared:
        base, cur = baseline[key], current[key]
        counter = key.rsplit(":", 1)[1]
        better = GATED_COUNTERS.get(counter)
        if better is None:
            print(f"{key:<{width}}  {base:>14.6g}  {cur:>14.6g}  "
                  f"{'':>9}  reported")
            continue
        threshold = DETERMINISTIC_THRESHOLD_PCT
        worse = worsening(base, cur, better)
        marker = ""
        if worse > threshold:
            marker = "  << REGRESSION"
            regressions.append((key, worse))
        elif worse < -threshold:
            marker = "  improved"
        print(f"{key:<{width}}  {base:>14.6g}  {cur:>14.6g}  "
              f"{worse:>+8.1f}%  {better} within {threshold:g}%{marker}")
    for key in only_current:
        print(f"{key:<{width}}  {'(new)':>14}  {current[key]:>14.6g}")
    for key in only_baseline:
        print(f"{key:<{width}}  {baseline[key]:>14.6g}  {'(removed)':>14}")
    return regressions


def format_value(value_ns: float, unit: str) -> str:
    """Renders a normalized-ns value back in the benchmark's own unit."""
    return f"{value_ns / TIME_UNIT_NS[unit]:,.2f} {unit}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", type=Path,
                        help="directory of baseline BENCH_*.json files")
    parser.add_argument("current", type=Path,
                        help="directory of current BENCH_*.json files")
    parser.add_argument("--threshold", type=float, default=10.0,
                        help="regression threshold in percent (default 10)")
    parser.add_argument("--metric", default="real_time",
                        choices=["real_time", "cpu_time"],
                        help="which benchmark time to compare")
    args = parser.parse_args()

    for directory in (args.baseline, args.current):
        if not directory.is_dir():
            print(f"error: {directory} is not a directory", file=sys.stderr)
            return 2

    baseline, baseline_counters = load_snapshot_dir(args.baseline,
                                                    args.metric)
    current, current_counters = load_snapshot_dir(args.current, args.metric)
    if not baseline:
        print(f"error: no BENCH_*.json results under {args.baseline}",
              file=sys.stderr)
        return 2
    if not current:
        print(f"error: no BENCH_*.json results under {args.current}",
              file=sys.stderr)
        return 2

    shared = sorted(set(baseline) & set(current))
    only_baseline = sorted(set(baseline) - set(current))
    only_current = sorted(set(current) - set(baseline))

    regressions: list[tuple[str, float]] = []
    width = max((len(name) for name in shared), default=20)
    header = (f"{'benchmark':<{width}}  {'baseline':>16}  {'current':>16}  "
              f"{'delta':>8}")
    print(header)
    print("-" * len(header))
    for name in shared:
        base = baseline[name]
        cur = current[name]
        if base["value"] <= 0.0:
            delta_text = "n/a"
            delta = 0.0
        else:
            delta = 100.0 * (cur["value"] - base["value"]) / base["value"]
            delta_text = f"{delta:+7.1f}%"
        marker = ""
        if delta > args.threshold:
            marker = "  << REGRESSION"
            regressions.append((name, delta))
        elif delta < -args.threshold:
            marker = "  improved"
        print(f"{name:<{width}}  {format_value(base['value'], base['unit']):>16}"
              f"  {format_value(cur['value'], cur['unit']):>16}"
              f"  {delta_text:>8}{marker}")

    for name in only_current:
        print(f"{name:<{width}}  {'(new)':>16}  "
              f"{format_value(current[name]['value'], current[name]['unit']):>16}")
    for name in only_baseline:
        print(f"{name:<{width}}  "
              f"{format_value(baseline[name]['value'], baseline[name]['unit']):>16}"
              f"  {'(removed)':>16}")

    counter_regressions = compare_counters(baseline_counters,
                                           current_counters)

    print(f"\n{len(shared)} compared, {len(only_current)} new, "
          f"{len(only_baseline)} removed, {len(regressions)} regressed "
          f"beyond {args.threshold:.0f}%, {len(counter_regressions)} gated "
          f"counters regressed")
    regressions += counter_regressions
    if regressions:
        worst = max(regressions, key=lambda item: item[1])
        print(f"worst regression: {worst[0]} ({worst[1]:+.1f}%)",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
