#!/usr/bin/env python3
"""Perf smoke gate: diff a fresh BENCH_sweep.json against the committed
BENCH_baseline.json.

The benchmark harness (`cargo bench -p bevra-bench --bench engine`) writes
`BENCH_sweep.json` at the repo root in the `bevra-bench-v1` schema (see
EXPERIMENTS.md § "Benchmark artifact schema"). This script fails if any
benchmark shared by both files regressed by more than THRESHOLD× in median
ns — a deliberately loose gate: CI runners differ from the machine that
recorded the baseline, so the gate only catches order-of-magnitude
regressions (a kernel silently falling off its vectorized path, the
persistent cache no longer hitting), not percent-level noise.

`--require NAME` (repeatable) replaces the default required-row set, so a
job that only ran one bench target (e.g. the sim-scale job running
`--bench sim`) can gate on its own rows without demanding the kernel
rows. `--min-speedup FAST:SLOW:RATIO` (repeatable) additionally asserts
an *absolute* architecture claim within the fresh run: bench FAST must be
at least RATIO× faster (by median ns) than bench SLOW — used by the
kernel job to hold the fused B+R pass to its ≥1.5× claim over the
unfused composition.

Rows may carry an optional `joules_per_sweep` field (null when the RAPL
probe was unavailable). It is printed when present and never gated —
energy varies across machines far more than wall time does.

Usage: perf_smoke.py [fresh] [baseline] [--threshold X]
                     [--require NAME ...] [--min-speedup FAST:SLOW:RATIO ...]
Defaults: BENCH_sweep.json BENCH_baseline.json --threshold 3.0
"""

import argparse
import json
import sys

# The four canonical kernel rows; their absence means the bench harness is
# broken (or the bench was renamed without updating the baseline), which
# must fail the gate rather than silently shrink its coverage.
REQUIRED = (
    "kernel_sweep_serial",
    "kernel_sweep_batched",
    "kernel_sweep_parallel",
    "kernel_sweep_warm_cache",
)


def load(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != "bevra-bench-v1":
        sys.exit(f"{path}: unexpected schema {doc.get('schema')!r}")
    rows = {r["name"]: r for r in doc["results"]}
    if not rows:
        sys.exit(f"{path}: no results")
    return rows


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("fresh", nargs="?", default="BENCH_sweep.json")
    ap.add_argument("baseline", nargs="?", default="BENCH_baseline.json")
    ap.add_argument("--threshold", type=float, default=3.0)
    ap.add_argument("--require", action="append", default=None, metavar="NAME")
    ap.add_argument(
        "--min-speedup", action="append", default=[], metavar="FAST:SLOW:RATIO"
    )
    args = ap.parse_args()

    fresh = load(args.fresh)
    base = load(args.baseline)

    required = tuple(args.require) if args.require else REQUIRED
    missing = [name for name in required if name not in fresh]
    if missing:
        sys.exit(f"{args.fresh}: missing required benches: {', '.join(missing)}")

    for spec in args.min_speedup:
        try:
            fast_name, slow_name, ratio_s = spec.split(":")
            want = float(ratio_s)
        except ValueError:
            sys.exit(f"bad --min-speedup spec {spec!r}, expected FAST:SLOW:RATIO")
        for name in (fast_name, slow_name):
            if name not in fresh:
                sys.exit(f"--min-speedup: {name} not in {args.fresh}")
        got = fresh[slow_name]["median_ns"] / max(fresh[fast_name]["median_ns"], 1e-9)
        status = "ok" if got >= want else "FAILED"
        print(f"speedup {fast_name} vs {slow_name}: {got:.1f}x (need {want:.1f}x) {status}")
        if got < want:
            sys.exit(
                f"perf smoke FAILED: {fast_name} is only {got:.1f}x faster than "
                f"{slow_name}, need {want:.1f}x"
            )

    shared = sorted(set(fresh) & set(base))
    if not shared:
        sys.exit("no benchmarks shared between fresh run and baseline")

    failures = []
    print(f"{'benchmark':40} {'baseline':>12} {'fresh':>12} {'ratio':>7}")
    for name in shared:
        b = base[name]["median_ns"]
        f = fresh[name]["median_ns"]
        ratio = f / b if b > 0 else float("inf")
        flag = "  REGRESSED" if ratio > args.threshold else ""
        print(f"{name:40} {b / 1e6:10.2f}ms {f / 1e6:10.2f}ms {ratio:6.2f}x{flag}")
        if ratio > args.threshold:
            failures.append((name, ratio))

    energy = [
        (name, row["joules_per_sweep"])
        for name, row in sorted(fresh.items())
        if row.get("joules_per_sweep") is not None
    ]
    if energy:
        print("energy (informational, never gated):")
        for name, joules in energy:
            print(f"  {name:38} {joules:.4f} J/sweep")

    if failures:
        worst = ", ".join(f"{n} ({r:.1f}x)" for n, r in failures)
        sys.exit(f"perf smoke FAILED (>{args.threshold}x median regression): {worst}")
    print(f"perf smoke ok: {len(shared)} benches within {args.threshold}x of baseline")


if __name__ == "__main__":
    main()
