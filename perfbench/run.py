#!/usr/bin/env python3
"""Build the pipeline benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The last line of standard output is
one JSON object {"correct", "attempted", "failed", "metrics"}; the lines
before it (starting with "#") record the environment and any failure.
The exit code is 0 only if every output passed its check. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import os
import subprocess
import sys

WORKLOADS = ["route-torus8", "sim-a2a", "sim-lowload", "churn-torus4"]
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
SPANS_DIR = os.path.join("perfbench", "out")


def source_id():
    """The git commit if there is one, else a digest of the sources."""
    if os.path.isdir(".git"):
        r = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha1()
    for top in ("lib", "perfbench"):
        for d, dirs, files in sorted(os.walk(top)):
            dirs.sort()
            for f in sorted(files):
                if f.endswith((".ml", ".mli")) or f == "dune":
                    p = os.path.join(d, f)
                    h.update(p.encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return "src-" + h.hexdigest()[:12]


def build():
    """Build bench.exe with dune; exit non-zero if that is impossible."""
    for needed in ("dune-project", "lib"):
        if not os.path.exists(needed):
            print(f"run.py: {needed} is missing; run from the root of a "
                  "checkout of the repository", file=sys.stderr)
            sys.exit(2)
    # No shared dune cache: the build stays inside the checkout.
    r = subprocess.run(["dune", "build", "--cache=disabled", "--root", ".",
                        "./perfbench/bench.exe"],
                       stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        sys.exit(r.returncode)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--engine", default="nue",
                    help="routing engine (the self-test uses minhop)")
    ap.add_argument("--tiny", action="store_true",
                    help="small fabrics, for the self-test")
    args = ap.parse_args()

    os.chdir(ROOT)
    build()
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--nproc", str(len(os.sched_getaffinity(0))),
           "--commit", source_id(), "--engine", args.engine]
    if args.tiny:
        cmd.append("--tiny")
    if args.trace == 1:
        os.makedirs(SPANS_DIR, exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            SPANS_DIR, f"spans-{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
