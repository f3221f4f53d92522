#!/usr/bin/env python3
"""Builds and runs the hourly-control-loop benchmark (see README.md here).

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --self-test

Run from the repository root or anywhere else: paths are resolved from this
file. The benchmark is compiled from the repository's sources into
.bench_build/ at the repository root. The last line of standard output is
the result JSON; the line before it holds the run metadata (host cores,
CPU model, build type, compiler, commit). Build logs and failed output
checks go to standard error.

Exit codes: 0 outputs correct, 1 build failure or wrong outputs, 2 usage.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ["open_stringent", "coupled_month", "durable_month", "serve_durable"]
DEFAULT_SEED = 2012
HELD_OUT_SEED = 7
# A run must end within 180 s; the first one also builds (up to 900 s).
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


class UsageError(Exception):
    pass


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run_group(cmd, timeout, stdout):
    """Runs cmd in its own process group and waits for it; on timeout kills
    the whole group (compilers under the build tool included) and returns
    None."""
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None
    return proc.returncode, out


def parse_args(argv):
    opts = {"workload": None, "seed": DEFAULT_SEED, "seconds": 10, "trace": 0,
            "self_test": False}
    valid = "--workload --seed --seconds --trace --self-test"
    i = 0
    while i < len(argv):
        flag = argv[i]
        if flag == "--self-test":
            opts["self_test"] = True
            i += 1
            continue
        if flag not in ("--workload", "--seed", "--seconds", "--trace"):
            raise UsageError(f"unknown flag '{flag}'; valid flags: {valid}; "
                             "valid workloads: " + ", ".join(WORKLOADS))
        if i + 1 >= len(argv):
            raise UsageError(f"{flag}: missing value")
        value = argv[i + 1]
        i += 2
        if flag == "--workload":
            if value not in WORKLOADS:
                raise UsageError(f"unknown workload '{value}'; valid workloads: "
                                 + ", ".join(WORKLOADS))
            opts["workload"] = value
        elif flag == "--trace":
            if value not in ("0", "1"):
                raise UsageError("--trace: expected 0 or 1")
            opts["trace"] = int(value)
        else:
            if not value.isdigit():
                raise UsageError(f"{flag}: expected a non-negative integer")
            opts[flag[2:]] = int(value)
    if opts["self_test"] and opts["workload"]:
        raise UsageError("--self-test runs every workload; drop --workload")
    if not opts["self_test"] and not opts["workload"]:
        raise UsageError("--workload is required; valid workloads: "
                         + ", ".join(WORKLOADS))
    if not 1 <= opts["seconds"] <= 3600:
        raise UsageError("--seconds: expected 1..3600")
    return opts


def build():
    """Configures (once) and builds the benchmark; returns False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no billcap sources under {ROOT}/src; nothing to benchmark")
        return False
    if shutil.which("cmake") is None:
        log("cmake not found")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        done = run_group(cmd, max(1, deadline - time.monotonic()), sys.stderr)
        if done is None:
            log("build timed out")
            return False
        if done[0] != 0:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def commit_id():
    """The checked-out commit when the tree is a git checkout, else unknown.

    Reads .git directly so nothing outside the tree is consulted."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.isfile(ref_file):
            with open(ref_file) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def run_binary(workload, seed, seconds, trace, smoke=False):
    """Runs one workload; returns (exit code, stdout lines)."""
    tag = f"{workload}-{seed}-{trace}-{os.getpid()}"
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace),
           "--work-dir", os.path.join(ROOT, ".bench_build", "work", tag),
           "--spans-out",
           os.path.join(ROOT, ".bench_build", f"spans-{workload}.jsonl"),
           "--commit", commit_id()]
    if smoke:
        cmd.append("--smoke")
    done = run_group(cmd, RUN_TIMEOUT_S, subprocess.PIPE)
    if done is None:
        log(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1, []
    return done[0], done[1].strip().splitlines()


def self_test():
    ok = True
    test_bin = os.path.join(BUILD, "perfbench_selftest")
    if not os.path.isfile(test_bin):
        log("perfbench_selftest was not built (GoogleTest missing)")
        ok = False
    elif run_group([test_bin], RUN_TIMEOUT_S, sys.stderr) != (0, None):
        ok = False
    for workload in WORKLOADS:
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            for trace in (0, 1):
                t0 = time.monotonic()
                code, _ = run_binary(workload, seed, 1, trace, smoke=True)
                log(f"smoke {workload} seed {seed} trace {trace}: "
                    f"{'ok' if code == 0 else 'FAILED'} "
                    f"({time.monotonic() - t0:.1f} s)")
                ok = ok and code == 0
    return 0 if ok else 1


def main(argv):
    try:
        opts = parse_args(argv)
    except UsageError as e:
        log(str(e))
        return 2
    if not build():
        return 1
    if opts["self_test"]:
        return self_test()

    code, lines = run_binary(opts["workload"], opts["seed"], opts["seconds"],
                             opts["trace"])
    if code not in (0, 1) or not lines:
        log(f"benchmark exited with {code} and no result")
        return 1
    try:
        result = json.loads(lines[-1])
        names = {k: v["unit"] for k, v in result["metrics"].items()}
    except (ValueError, KeyError, TypeError):
        log("benchmark printed no result line")
        return 1
    if names != expected_metrics(opts["trace"]):
        log("metrics differ from BENCHMARK.json: "
            + ", ".join(sorted(set(names) ^ set(expected_metrics(opts["trace"])))))
        return 1
    results = os.path.join(ROOT, ".bench_build", "results.jsonl")
    with open(results, "a") as f:
        f.write("\n".join(lines[-2:]) + "\n")
    print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
