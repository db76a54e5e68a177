#!/usr/bin/env python3
"""Compare a runtime_micro run against the committed baseline trajectory.

Fails (exit 1) when any BM_* benchmark's median real_time regressed by more
than the threshold versus the baseline entry. Baseline benchmarks missing
from the current run (deleted or renamed) are listed as "(gone)" without
failing, so none drops out of the gate unnoticed. Used by the CI bench job:

  python3 bench/check_regression.py \
      --baseline BENCH_runtime_micro.json --baseline-label optimized \
      --current runtime_micro_ci.json [--threshold 25]

Input formats: --baseline accepts either a raw google-benchmark JSON dump
or the trajectory file record_bench.sh maintains ({label: run, ...});
--current is a raw dump. When a run contains repetitions, the median
aggregate ("_median" entries google-benchmark emits) is used; otherwise
the per-benchmark real_time is the (trivial) median.

CI machines differ from the machine the baseline was recorded on, so this
gate is deliberately coarse (default 25%): it catches the "accidentally
made a hot primitive 2x slower" class of regression, not single-digit
drift. Tighten the threshold only for same-machine comparisons.
"""

import argparse
import json
import sys


def load_run(path, label=None):
    """Returns the google-benchmark run dict from \p path."""
    with open(path) as f:
        data = json.load(f)
    if "benchmarks" in data:
        return data
    # Trajectory file: {label: run, ...}.
    if label is None:
        raise SystemExit(f"error: {path} is a trajectory file; pass --baseline-label")
    if label not in data:
        raise SystemExit(
            f"error: label '{label}' not in {path} (has: {', '.join(sorted(data))})"
        )
    return data[label]


def median_times(run):
    """Maps benchmark name -> median real_time (ns) for BM_* entries."""
    raw = {}
    medians = {}
    for bench in run.get("benchmarks", []):
        name = bench.get("name", "")
        if not name.startswith("BM_"):
            continue
        # Aggregated runs: prefer the explicit median aggregate.
        if bench.get("run_type") == "aggregate":
            if bench.get("aggregate_name") == "median":
                medians[name.rsplit("_median", 1)[0]] = float(bench["real_time"])
            continue
        raw.setdefault(name, []).append(float(bench["real_time"]))
    for name, times in raw.items():
        if name not in medians:
            times.sort()
            mid = len(times) // 2
            medians[name] = (
                times[mid]
                if len(times) % 2
                else (times[mid - 1] + times[mid]) / 2.0
            )
    return medians


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--baseline-label", default=None)
    parser.add_argument("--current", required=True)
    parser.add_argument(
        "--threshold",
        type=float,
        default=25.0,
        help="max tolerated median real_time regression, percent (default 25)",
    )
    args = parser.parse_args()

    baseline = median_times(load_run(args.baseline, args.baseline_label))
    current = median_times(load_run(args.current))

    regressions = []
    improvements = []
    print(f"{'benchmark':<44} {'baseline':>12} {'current':>12} {'delta':>8}")
    for name in sorted(current):
        if name not in baseline:
            print(f"{name:<44} {'(new)':>12} {current[name]:>12.1f} {'':>8}")
            continue
        delta_pct = (current[name] / baseline[name] - 1.0) * 100.0
        flag = " <-- REGRESSION" if delta_pct > args.threshold else ""
        print(
            f"{name:<44} {baseline[name]:>12.1f} {current[name]:>12.1f} "
            f"{delta_pct:>+7.1f}%{flag}"
        )
        if delta_pct > args.threshold:
            regressions.append((name, delta_pct))
        elif delta_pct < 0:
            improvements.append((name, baseline[name] / current[name]))
    for name in sorted(set(baseline) - set(current)):
        print(f"{name:<44} {baseline[name]:>12.1f} {'(gone)':>12} {'':>8}")

    # Improvements are reported (never gated): a speedup PR's CI log is
    # its own before/after record.
    if improvements:
        improvements.sort(key=lambda entry: -entry[1])
        print(f"\nmedian improvements ({len(improvements)} benchmark(s)):")
        for name, speedup in improvements:
            print(f"  {name}: {speedup:.2f}x faster")

    if regressions:
        print(
            f"\nerror: {len(regressions)} benchmark(s) regressed more than "
            f"{args.threshold:.0f}%:",
            file=sys.stderr,
        )
        for name, delta_pct in regressions:
            print(f"  {name}: +{delta_pct:.1f}%", file=sys.stderr)
        return 1
    print(f"\nok: no benchmark regressed more than {args.threshold:.0f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
