#!/usr/bin/env python3
"""Self-test of the pipeline benchmark.

    python3 perfbench/selftest.py

Runs a tiny variant of every workload in BENCHMARK.json, untraced and
traced, and checks that each prints exactly the metrics BENCHMARK.json
names, each with its unit and a finite value, and that every output
passed its check. Then checks that the correctness gate trips on a known
bad input: a minhop table on a torus is not deadlock-free, so that run
must report a failure and exit non-zero. Exits 0 when all checks pass.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(args):
    r = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"),
                        "--seed", "1", "--seconds", "1", "--tiny", *args],
                       cwd=ROOT, capture_output=True, text=True)
    lines = r.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return r.returncode, result, r.stdout + r.stderr


def check_result(label, rc, result, output, wanted, problems):
    if result is None:
        problems.append(f"{label}: no JSON result line\n{output}")
        return
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{label}: result keys {sorted(result)}")
    if rc != 0 or result.get("correct") is not True or result.get("failed"):
        problems.append(f"{label}: exit {rc}, correct={result.get('correct')}"
                        f", failed={result.get('failed')}\n{output}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"{label}: attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            problems.append(f"{label}: metric {m['name']} missing")
        elif got.get("unit") != m["unit"]:
            problems.append(f"{label}: {m['name']} has unit {got.get('unit')}"
                            f", BENCHMARK.json says {m['unit']}")
        elif not isinstance(got.get("value"), (int, float)) or \
                not math.isfinite(got["value"]):
            problems.append(f"{label}: {m['name']} value {got.get('value')}")
    extra = set(metrics) - {m["name"] for m in wanted}
    if extra:
        problems.append(f"{label}: metrics not in BENCHMARK.json: "
                        f"{sorted(extra)}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    problems = []
    for w in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{w['name']} --trace {trace}"
            before = len(problems)
            rc, result, output = run(["--workload", w["name"],
                                      "--trace", str(trace)])
            check_result(label, rc, result, output, bench[key], problems)
            print(f"selftest: {label}: "
                  f"{'ok' if len(problems) == before else 'FAIL'}",
                  flush=True)

    # The gate must trip: minhop routes a torus with cyclic dependencies.
    rc, result, output = run(["--workload", "route-torus8", "--trace", "0",
                              "--engine", "minhop"])
    if result is None or rc == 0 or result.get("correct") is not False \
            or not result.get("failed"):
        problems.append("gate did not trip on a minhop table on a torus: "
                        f"exit {rc}, result {result}\n{output}")
    else:
        print(f"selftest: minhop on a torus fails the gate "
              f"({result['failed']} of {result['attempted']} failed)")

    for p in problems:
        print("selftest: FAIL:", p)
    print("selftest:", "FAILED" if problems else "all checks passed")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
