#!/usr/bin/env python3
"""Smoke test of the benchmark itself: runs every workload at the smoke size,
untraced and traced, and checks that each result line is well formed, that
no operation failed, and that each run prints exactly the metrics
BENCHMARK.json declares for it (every end-to-end metric untraced, every
per-layer metric traced), each in its declared unit.

Run from the root of a checkout:  python3 elsibench/smoke_test.py
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, trace):
    cmd = [sys.executable, os.path.join(ROOT, "elsibench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--size", "smoke"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=900)
    if out.returncode != 0:
        sys.exit("FAIL %s trace=%d: exit %d\n%s\n%s" %
                 (workload, trace, out.returncode, out.stderr[-3000:],
                  out.stdout[-1000:]))
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
                "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            result = run(workload, trace)
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append("%s: keys %s" % (workload, sorted(result)))
            if not result["correct"] or result["failed"] != 0 or \
                    result["attempted"] < 1:
                problems.append("%s trace=%d: correct=%s failed=%d/%d" % (
                    workload, trace, result["correct"], result["failed"],
                    result["attempted"]))
            for name, metric in result["metrics"].items():
                unit = declared[kind].get(name)
                if unit is None:
                    problems.append("%s: undeclared %s metric %s" %
                                    (workload, kind, name))
                elif unit != metric["unit"]:
                    problems.append("%s: %s unit %s, declared %s" %
                                    (workload, name, metric["unit"], unit))
            for name in sorted(set(declared[kind]) - set(result["metrics"])):
                problems.append("%s trace=%d: %s metric %s not printed" %
                                (workload, trace, kind, name))
            print("ok %s trace=%d: %d metrics, %d operations" %
                  (workload, trace, len(result["metrics"]),
                   result["attempted"]))
    if problems:
        sys.exit("FAIL\n" + "\n".join(problems))
    print("PASS")


if __name__ == "__main__":
    main()
