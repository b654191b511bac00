#!/usr/bin/env python3
"""Self-test for bench_compare.py on a tiny packet-bench-shaped fixture:
volatile-only drift must pass; deterministic drift and a throughput-floor
breach must fail. Run: python3 tools/bench_compare_test.py
"""

import copy
import json
import os
import subprocess
import sys
import tempfile

COMPARE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "bench_compare.py")
BASELINE = {
    "threads": 4,
    "aggregate": {"events": 1000, "events_per_sec": 5e4, "wall_seconds": 0.02},
    "trials": [{"variant": "widest", "seed": 7, "events": 1000,
                "events_per_sec": 5e4, "wall_seconds": 0.02,
                "metrics": {"attempted": 10, "succeeded": 8}}],
}


def exit_code(edit):
    fresh = copy.deepcopy(BASELINE)
    edit(fresh)
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, n) for n in ("base.json", "fresh.json")]
        for path, report in zip(paths, (BASELINE, fresh)):
            with open(path, "w") as fh:
                json.dump(report, fh)
        return subprocess.run([sys.executable, COMPARE, *paths],
                              capture_output=True).returncode


def volatile_only(r):
    r["threads"] = 1
    r["aggregate"].update(events_per_sec=4.5e4, wall_seconds=0.5)
    r["trials"][0]["wall_seconds"] = 0.5


CASES = [
    ("volatile-only drift", volatile_only, 0),
    ("deterministic drift",
     lambda r: r["trials"][0]["metrics"].update(succeeded=9), 1),
    ("throughput below floor",
     lambda r: r["aggregate"].update(events_per_sec=3e4), 1),
]

failed = 0
for name, edit, want in CASES:
    got = exit_code(edit)
    failed += got != want
    print(f"{'ok' if got == want else 'FAIL'}: {name}: exit {got}, want {want}")
sys.exit(1 if failed else 0)
