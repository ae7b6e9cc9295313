#!/usr/bin/env python3
"""Serving ledger: build the benchmark from source, run one workload, print
its metrics, and append the run to perfbench/history.jsonl.

    python3 perfbench/run.py --workload engine-full --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run it from the repository root. The build lands in .bench_build/. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; it is printed only when the run succeeded.
"""
import argparse
import datetime
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
HISTORY = os.path.join(HERE, "history.jsonl")
WORKLOADS = ("engine-full", "engine-dropout", "routed-2shard")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(message):
    print(message, file=sys.stderr, flush=True)


def clean_env():
    """The paper-size defaults: no EIGENMAPS_* override reaches the run."""
    return {k: v for k, v in os.environ.items() if not k.startswith("EIGENMAPS_")}


def run_checked(cmd, timeout):
    """Runs a build step with its output on stderr; raises on failure."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                            start_new_session=True)
    try:
        rc = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError("timed out: " + " ".join(cmd))
    if rc != 0:
        raise RuntimeError("failed (%d): %s" % (rc, " ".join(cmd)))


def build(targets):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise RuntimeError("no eigenmaps source tree at " + ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_checked(["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    run_checked(["cmake", "--build", BUILD, "-j", "4", "--target"] + targets,
                BUILD_TIMEOUT_S)


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def serve(args):
    build(["perfbench_serve", "eigenmaps_shard_worker"])
    cmd = [os.path.join(BUILD, "perfbench_serve"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--worker", os.path.join(BUILD, "eigenmaps", "eigenmaps_shard_worker")]
    # Own session, so a timeout takes the shard workers down with it.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=clean_env(),
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError("benchmark run timed out")
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write("".join(l + "\n" for l in lines if not l.startswith("{")))
        raise RuntimeError("benchmark run failed (exit %d)" % proc.returncode)
    result = json.loads(lines[-1])
    context = {}
    for line in lines:
        if line.startswith("# context "):
            context = json.loads(line[len("# context "):])
    record = {
        "time": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "commit": git_commit(),
        "context": context,
        "result": result,
    }
    with open(HISTORY, "a") as history:
        history.write(json.dumps(record, sort_keys=True) + "\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result), flush=True)


def self_test():
    build(["perfbench_selftest"])
    return subprocess.run([os.path.join(BUILD, "perfbench_selftest")],
                          cwd=ROOT).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the ledger's own tests")
    args = parser.parse_args()
    try:
        if args.self_test:
            return self_test()
        if args.workload is None:
            parser.error("--workload is required")
        serve(args)
        return 0
    except (RuntimeError, OSError, ValueError) as e:
        log("perfbench: %s" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
