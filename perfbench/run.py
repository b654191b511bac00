#!/usr/bin/env python3
"""Builds and runs the spider end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S
    python3 perfbench/run.py --smoke

The first form builds perfbench/ (and the spider libraries under src/)
into .bench_build/ when needed, runs one workload in its own process and
prints its output; the last line is the result JSON. The second prints
every workload's metrics, each workload in its own process. The third is
the benchmark's own smoke test: every workload at a tiny size, twice in
each mode, checking that every metric named in BENCHMARK.json is emitted
with its unit and that the exact counts repeat.

Run from anywhere; all paths are relative to the repository root.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "cmake")
OUT = os.path.join(ROOT, ".bench_build", "out")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then lets the build tool decide what is stale."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j",
                  jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, check=False)
        if done.returncode != 0:
            log("perfbench: build failed: " + " ".join(cmd))
            sys.exit(1)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def run_workload(workload, seed, seconds, trace, size="full"):
    """Runs one workload in a fresh process.

    Returns its stdout lines, the result object and the info object.
    """
    os.makedirs(OUT, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--size", size, "--out", OUT]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} did not finish in {RUN_TIMEOUT_S} s")
        sys.exit(1)
    if done.returncode != 0:
        log(f"perfbench: {workload} exited with {done.returncode}")
        sys.exit(1)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    info = next((json.loads(l[5:]) for l in lines if l.startswith("info ")),
                {})
    if set(result) != RESULT_KEYS or not result["correct"]:
        log(f"perfbench: {workload} printed no valid result")
        sys.exit(1)
    return lines, result, info


def check_names(result, defs, label):
    """Every metric BENCHMARK.json names is emitted, with its unit."""
    ok = True
    for d in defs:
        got = result["metrics"].get(d["name"])
        if got is None or got.get("unit") != d["unit"]:
            log(f"perfbench: {label}: metric {d['name']} missing or not in "
                f"{d['unit']}: {got}")
            ok = False
    return ok


def smoke():
    spec = load_spec()
    ok = True
    for w in spec["workloads"]:
        for trace, defs in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            label = f"{w['name']} trace={trace}"
            runs = [run_workload(w["name"], 7, 1, trace, "tiny")
                    for _ in range(2)]
            ok &= check_names(runs[0][1], defs, label)
            for name in runs[0][2].get("exact", []):
                a = runs[0][1]["metrics"][name]["value"]
                b = runs[1][1]["metrics"][name]["value"]
                if a != b:
                    log(f"perfbench: {label}: exact count {name} did not "
                        f"repeat: {a} vs {b}")
                    ok = False
            log(f"smoke: {label}: {len(runs[0][1]['metrics'])} metrics, "
                f"{len(runs[0][2].get('exact', []))} exact counts checked")
    log("smoke: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args()

    build()
    if args.smoke:
        return smoke()
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        log(f"perfbench: unknown workload {args.workload}; one of "
            f"{names + ['all']}")
        return 2
    defs = spec["per_layer"] if args.trace else spec["end_to_end"]
    # "all" runs every workload in turn, each in its own process; only a
    # single workload's output ends in the result line.
    for name in names if args.workload == "all" else [args.workload]:
        lines, result, _ = run_workload(name, args.seed, args.seconds,
                                        args.trace)
        if not check_names(result, defs, name):
            return 1
        if args.workload == "all":
            print(f"== {name}")
            lines = lines[:-1]
        print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
