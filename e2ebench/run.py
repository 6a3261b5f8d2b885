#!/usr/bin/env python3
"""Builds and runs the pascalr end-to-end benchmark (see README.md).

    python3 e2ebench/run.py --workload olap_n10k --seed 1 --seconds 20 --trace 0

Builds the library from ../src and the e2ebench program in this directory
with CMake (Release) under $CARGO_TARGET_DIR, or .bench_build when that is
unset, then runs one workload. The last line of standard output is the
result JSON; build output goes to standard error. Traced runs (--trace 1)
also write their spans as Chrome trace-event JSON under
<build dir>/traces/.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("olap_n10k", "adhoc_n100", "serving_n1k")
RUN_TIMEOUT_S = 170


def git_commit():
    """The checkout's commit, read from .git without leaving the checkout."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as f:
            for line in f:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def build(build_dir):
    """Configures and builds (both no-ops when up to date); returns the
    program's path, or None when either step fails."""
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", build_dir, "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    return os.path.join(build_dir, "e2ebench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "e2ebench-release")
    binary = build(build_dir)
    if binary is None:
        print("e2ebench: build failed", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--commit", git_commit()]
    if args.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        print("e2ebench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
