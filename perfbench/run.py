#!/usr/bin/env python3
"""Build the geometa server and the benchmark harness, then run one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload lookup|montage \
        --seed N --seconds S --trace 0|1

Builds `geometa-server` from the repository's workspace and the harness
package in `perfbench/harness` into `$CARGO_TARGET_DIR` (default
`.bench_build` in the checkout), runs the harness, and passes its standard
output through: the last line is the JSON result. Spans, result records
and the ladder's scratch WALs go to `.bench_out` in the checkout. Exits non-zero,
printing no result, when the build or the run fails.

The harness and the server it starts are pinned to one CPU, the last one
this process may use. Every RPC then hands off between threads on the
same CPU. Across CPUs, each hand-off waits for the hypervisor to wake an
idle virtual CPU, and how long that takes depends on the host's other
guests, not on the program.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["lookup", "montage"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    root = os.getcwd()
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join(root, "Cargo.toml"),
         "-p", "geometa-net", "--bin", "geometa-server"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join(HERE, "harness", "Cargo.toml")],
    ]
    for cmd in builds:
        # Build output goes to stderr so the result stays the last stdout line.
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1

    cpus = sorted(os.sched_getaffinity(0))
    cpu = cpus[-1]
    cmd = [
        os.path.join(target, "release", "geometa-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", args.trace,
        "--server", os.path.join(target, "release", "geometa-server"),
        "--out-dir", os.path.join(root, ".bench_out"),
        "--cpu", str(cpu),
        "--nproc", str(len(cpus)),
    ]
    # The pin is inherited by the harness and by the server it spawns.
    os.sched_setaffinity(0, {cpu})
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
