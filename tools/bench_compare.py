#!/usr/bin/env python3
"""Compares fresh bench reports against their committed baselines.

Usage: bench_compare.py BASELINE FRESH [BASELINE FRESH ...]

Each pair must match exactly once the VOLATILE fields are stripped at
every depth, and must keep the throughput floors its report carries:
packet hot path aggregate events/sec >= 0.8x; per scale topology,
serial precompute <= 3x and packet-sim events/sec >= 0.5x. Appends the
packet trend table to $GITHUB_STEP_SUMMARY when set. Exits 1 on any
drift or floor breach, 2 on bad usage.
"""

import json
import os
import sys

# Wall-clock and derived-throughput fields vary run to run; bench_scale
# additionally reports build/freeze/precompute timings, the parallel
# speedup, and peak RSS -- all hardware-dependent.
VOLATILE = {"wall_seconds", "events_per_sec", "threads",
            "build_seconds", "freeze_seconds", "serial_seconds",
            "parallel_seconds", "speedup_parallel", "peak_rss_mb",
            "events_per_wall_sec"}


def strip(o):
    if isinstance(o, dict):
        return {k: strip(v) for k, v in o.items() if k not in VOLATILE}
    if isinstance(o, list):
        return [strip(x) for x in o]
    return o


def first_diff(a, b, path="$"):
    """Path of the first field where `a` and `b` differ, or None."""
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return f"{path} keys {sorted(a.keys() ^ b.keys())}"
        pairs = [(f"{path}.{k}", a[k], b[k]) for k in a]
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return f"{path} length {len(a)} -> {len(b)}"
        pairs = [(f"{path}[{i}]", x, y) for i, (x, y) in enumerate(zip(a, b))]
    else:
        return None if a == b else f"{path}: {a!r} -> {b!r}"
    return next(filter(None, (first_diff(x, y, p) for p, x, y in pairs)), None)


def packet_floor(base, fresh):
    b_eps = base["aggregate"]["events_per_sec"]
    f_eps = fresh["aggregate"]["events_per_sec"]
    ratio = f_eps / b_eps
    print(f"baseline {b_eps:.0f} ev/s, fresh {f_eps:.0f} ev/s "
          f"({ratio:.2%} of baseline)")
    lines = [
        "## Packet hot-path perf gate",
        "",
        f"Aggregate: **{f_eps:,.0f} events/sec** "
        f"({ratio:.1%} of committed baseline {b_eps:,.0f}).",
        "",
        "| variant | seed | baseline ev/s | fresh ev/s | "
        "baseline success | fresh success |",
        "|---|---|---|---|---|---|",
    ]
    for b, f in zip(base["trials"], fresh["trials"]):
        b_sr = b["metrics"]["succeeded"] / max(1, b["metrics"]["attempted"])
        f_sr = f["metrics"]["succeeded"] / max(1, f["metrics"]["attempted"])
        lines.append(
            f"| {b['variant']} | {b['seed'] % 100000} "
            f"| {b['events_per_sec']:,.0f} | {f['events_per_sec']:,.0f} "
            f"| {b_sr:.3f} | {f_sr:.3f} |")
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a") as fh:
            fh.write("\n".join(lines) + "\n")
    if ratio < 0.8:
        return [f"events/sec regressed >20%: {f_eps:.0f} vs {b_eps:.0f}"]
    return []


def scale_floors(base, fresh):
    errors = []
    for b, f in zip(base["topologies"], fresh["topologies"]):
        topo = b["topology"]
        b_pc = b["precompute"]["serial_seconds"]
        f_pc = f["precompute"]["serial_seconds"]
        b_eps = b["packet_sim"]["events_per_sec"]
        f_eps = f["packet_sim"]["events_per_sec"]
        print(f"{topo}: precompute {f_pc:.2f}s (baseline {b_pc:.2f}s), "
              f"{f_eps:,.0f} ev/s (baseline {b_eps:,.0f})")
        if f_pc > 3.0 * b_pc:
            errors.append(f"{topo}: serial precompute regressed: "
                          f"{f_pc:.2f}s vs {b_pc:.2f}s")
        if f_eps < 0.5 * b_eps:
            errors.append(f"{topo}: events/sec regressed >50%: "
                          f"{f_eps:.0f} vs {b_eps:.0f}")
    return errors


def compare(baseline_path, fresh_path):
    base = json.load(open(baseline_path))
    fresh = json.load(open(fresh_path))
    drift = first_diff(strip(base), strip(fresh))
    errors = [f"deterministic field drifted at {drift}"] if drift else []
    if "aggregate" in base:
        errors += packet_floor(base, fresh)
    if "topologies" in base:
        errors += scale_floors(base, fresh)
    return errors


def main(argv):
    if not argv or len(argv) % 2:
        print(__doc__, file=sys.stderr)
        return 2
    failed = False
    for baseline_path, fresh_path in zip(argv[::2], argv[1::2]):
        errors = compare(baseline_path, fresh_path)
        for e in errors:
            print(f"FAIL {fresh_path} vs {baseline_path}: {e}")
        if not errors:
            print(f"OK: {fresh_path} matches {baseline_path}")
        failed = failed or bool(errors)
    if failed:
        print("if a drift is intentional, regenerate the baseline(s) per "
              "EXPERIMENTS.md and commit them with the code change")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
