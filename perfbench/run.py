#!/usr/bin/env python3
"""Build cosched and its benchmark from source, run one workload, and
pass its output through.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree.  The program is built with dune in
release mode into .bench_build; traces and the serve workload's private
directories go under .bench_out.  The last line of standard output is
the result object {correct, attempted, failed, metrics}, holding every
metric BENCHMARK.json names for the mode, with its unit.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys

BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
BENCH_EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
DAEMON_EXE = os.path.join(BUILD_DIR, "default", "bin", "cosched.exe")


def die(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    dune = shutil.which("dune")
    if dune is None:
        die("dune is not on PATH")
    cmd = [dune, "build", "--root", ".", "--build-dir", BUILD_DIR, "--profile", "release",
           "./perfbench/bench.exe", "./bin/cosched.exe"]
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        die(f"build failed (exit {done.returncode})")


def version():
    """The git commit when there is one, else a digest of the sources."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath("."):
            return lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    h = hashlib.sha256()
    for top in ("lib", "bin", "perfbench"):
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(root, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "source-sha256:" + h.hexdigest()[:16]


def result_line(line, trace):
    """The result object from the benchmark's last line: the metrics
    BENCHMARK.json names for this mode, with its units.  A per-layer
    metric the workload does not measure reads 0; a missing end-to-end
    metric, a value that is not a number, or a measured name that
    BENCHMARK.json does not know fails the run."""
    spec = json.load(open("BENCHMARK.json"))
    known = {m["name"] for m in spec["per_layer"] + spec["end_to_end"]}
    wanted = spec["per_layer" if trace else "end_to_end"]
    try:
        out = json.loads(line)
    except ValueError:
        die("the last line of output is not a result object")
    if set(out) != {"correct", "attempted", "failed", "measured"}:
        die("the benchmark's last line has the wrong keys")
    measured = out["measured"]
    unknown = sorted(set(measured) - known)
    if unknown:
        die(f"metrics not named in BENCHMARK.json: {unknown}")
    metrics = {}
    for m in wanted:
        value = measured.get(m["name"], None if not trace else 0.0)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            die(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return json.dumps({"correct": out["correct"], "attempted": out["attempted"],
                       "failed": out["failed"], "metrics": metrics})


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.exists("BENCHMARK.json"):
        die("run from the root of the source tree (no BENCHMARK.json here)")
    build()
    if args.workload == "serve-journal":
        # One CPU for the benchmark and the daemon it starts: the closed
        # loop's round trips then wake no other CPU, and how long that
        # takes on a shared VM follows the host rather than the program
        # (unpinned, the ack median moved between 116 and 160 us from run
        # to run).  The other workloads are one process each.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    cmd = [BENCH_EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--daemon", DAEMON_EXE, "--out", OUT_DIR,
           "--os", platform.platform(), "--commit", version()]
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)

    def forward(signum, _frame):
        child.send_signal(signum)

    for s in (signal.SIGINT, signal.SIGTERM):
        signal.signal(s, forward)
    out, _ = child.communicate()
    if child.returncode != 0:
        sys.stderr.write(out)
        die(f"benchmark exited with {child.returncode}")
    lines = out.rstrip("\n").split("\n")
    try:
        result = result_line(lines[-1], args.trace)
    except SystemExit:
        sys.stderr.write(out)
        raise
    sys.stdout.write("\n".join(lines[:-1] + [result]) + "\n")


if __name__ == "__main__":
    main()
