#!/usr/bin/env python3
"""Builds and runs the PARDIS end-to-end benchmark (see README.md).

    python3 spmdbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 spmdbench/run.py --self-test

The first call configures and builds the library and the benchmark binary
under .bench_build/spmdbench (later calls only check that the build is
current); build output goes to stderr.  A run then starts the binary
PROCESSES times, one workload per process, and prints the combined result,
one JSON object, as the last line of stdout.  Traced runs (--trace 1) also
write their spans to .bench_build/traces/.  Any failure -- build, a
correctness check, a timeout -- exits nonzero without printing a result.

--self-test shows that the reply checks work: every workload must pass a
short clean run and must fail a run in which one received element or byte
is flipped.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "spmdbench")
TRACES = os.path.join(ROOT, ".bench_build", "traces")
BINARY = os.path.join(BUILD, "spmdbench")
WORKLOADS = ["bulk_multiport", "bulk_centralized", "rpc_sync", "rpc_pipelined"]
# Each run is this many processes: how fast a process runs depends on where
# its threads land, so one process per run would make the run-to-run spread
# mostly that luck.
PROCESSES = 8
# A run must end within 180 s; the first run's build comes on top.
RUN_BUDGET_S = 170


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], check=True,
                   stdout=sys.stderr)


def program_env():
    """The program runs in its default configuration: no PARDIS_* knob
    (its own tracing, metric dumps, transport or pool settings) leaks in
    from the caller's environment."""
    return {k: v for k, v in os.environ.items() if not k.startswith("PARDIS_")}


def run_process(workload, seed, seconds, trace, index, corrupt=False,
                timeout=RUN_BUDGET_S):
    """Runs the binary once; returns its result (a dict) and, untraced, the
    p95 of each of its tail windows, or None."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "1" if trace else "0"]
    if trace:
        os.makedirs(TRACES, exist_ok=True)
        cmd += ["--trace-file", os.path.join(
            TRACES, "%s-%d.jsonl" % (workload, index))]
    if corrupt:
        cmd.append("--corrupt")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=program_env(), timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.stderr.write("spmdbench: %s timed out\n" % workload)
        return None
    lines = proc.stdout.strip().splitlines()
    windows = [] if trace else tail_windows(lines[-2:-1])
    if (proc.returncode != 0 or not lines or not valid_result(lines[-1]) or
            windows is None):
        sys.stderr.write("spmdbench: %s exited %d\n" % (workload,
                                                        proc.returncode))
        return None
    return json.loads(lines[-1]), windows


def run(workload, seed, seconds, trace, corrupt=False):
    """One benchmark run: PROCESSES fresh processes, each measuring an equal
    share of `seconds`.  Each metric is the median over the processes; every
    process is fresh, so each setup_s is a cold set-up.  The gated p95 is
    the median over the tail windows of all the processes, pooled.  Returns
    the combined result, or None when any process failed."""
    deadline = time.monotonic() + RUN_BUDGET_S
    results = []
    windows = []
    for index in range(PROCESSES):
        outcome = run_process(workload, seed, seconds / PROCESSES, trace,
                              index, corrupt,
                              max(1.0, deadline - time.monotonic()))
        if outcome is None:
            return None
        results.append(outcome[0])
        windows += outcome[1]
    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        metrics[name] = {"value": statistics.median(values),
                         "unit": first["unit"]}
    if windows:
        p95_us = statistics.median(windows)
        metrics["invoke_ms_p95"]["value"] = p95_us / 1e3
        metrics["rpc_us_p95"]["value"] = p95_us
    return {"correct": True,
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}


def tail_windows(lines):
    """The window p95s a process prints before its result line, or None."""
    try:
        windows = json.loads(lines[0])["tail_windows_us"]
    except (IndexError, ValueError, KeyError, TypeError):
        return None
    return windows if isinstance(windows, list) else None


def valid_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (isinstance(result, dict) and
            sorted(result) == ["attempted", "correct", "failed", "metrics"] and
            result["correct"] is True and result["attempted"] >= 1)


def self_test():
    ok = True
    for workload in WORKLOADS:
        clean = run_process(workload, 1, 1.0, False, 0) is not None
        caught = run_process(workload, 1, 1.0, False, 0, corrupt=True) is None
        sys.stderr.write("%-17s clean run %s, corrupted reply %s\n" % (
            workload, "passes" if clean else "FAILS",
            "rejected" if caught else "NOT REJECTED"))
        ok = ok and clean and caught
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and (args.workload is None or args.seed is None or
                               args.seconds is None):
        parser.error("--workload, --seed and --seconds are required")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.stderr.write("spmdbench: build failed: %s\n" % e)
        return 3

    if args.self_test:
        return self_test()
    result = run(args.workload, args.seed, args.seconds, args.trace == 1)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
