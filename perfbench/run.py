#!/usr/bin/env python3
"""The repository's benchmark: build the program from source, run one
workload, check the result against BENCHMARK.json, print it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--canary <name>]

Run from the root of a checkout. The first run configures and builds
perfbench/ (the program's sources plus the benchmark program in perfbench/src)
into .bench_build/perfbench; later runs only re-check the build. The
last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it is the
run header (provenance, sample counts, exact work counts, output
digest). With --trace 1 the spans are written under .bench_build/traces.
The exit status is nonzero when the build fails, a correctness check
fails, or the result does not match BENCHMARK.json.
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
BINARY = os.path.join(BUILD_DIR, "perfbench")
# BENCHMARK.json lists mc_reduced and mission. mc_exhaustive and scale run
# and are gated the same way, but are left out of the timed set so that its
# runs can be long enough to be steady on a shared host (README.md, "Sizing
# and steadiness").
WORKLOADS = ("mc_exhaustive", "mc_reduced", "mission", "scale")
# Gate canaries (each run must fail), plus "dynamic-only": the mission
# workload on the dynamic variant alone (README.md, "Known defect").
CANARIES = ("fixed-expectation", "out-of-spec-mission", "tight-detection",
            "dynamic-only")
# A run must end within 180 s; the build before it is not counted.
RUN_TIMEOUT_S = 170


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    jobs = str(min(os.cpu_count() or 1, 4))
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    generated = [os.path.join(BUILD_DIR, name) for name in ("build.ninja", "Makefile")]
    if not any(os.path.exists(path) for path in generated):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, env=env).returncode != 0:
            return False
    step = ["cmake", "--build", BUILD_DIR, "-j", jobs]
    return subprocess.run(step, stdout=sys.stderr, env=env).returncode == 0


def git_sha():
    """HEAD of the checkout, or "none" when it is not a git work tree."""
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True)
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != \
                os.path.realpath(ROOT):
            return "none"
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        return head.stdout.strip() or "none"
    except OSError:
        return "none"


def check_result(result, trace):
    """Problems with `result` against the contract in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys %s" % sorted(result))
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        problems.append("failed must be a whole number >= 0")
    metrics = result["metrics"]
    for name in sorted(set(wanted) ^ set(metrics)):
        problems.append("metric %s %s" % (
            name, "missing" if name in wanted else "not in BENCHMARK.json"))
    for name, unit in wanted.items():
        entry = metrics.get(name)
        if entry is None:
            continue
        if entry.get("unit") != unit:
            problems.append("metric %s has unit %r, want %r"
                            % (name, entry.get("unit"), unit))
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("metric %s is not a finite number" % name)
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--canary", choices=CANARIES,
                        help="run a gate canary; the run must then fail")
    args = parser.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not build():
        log("build failed")
        return 1

    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--git-sha", git_sha()]
    if args.trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        command += ["--trace-out", os.path.join(
            TRACE_DIR, "%s-seed%d.json" % (args.workload, args.seed))]
    if args.canary:
        command += ["--canary", args.canary]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    lines = run.stdout.strip().splitlines()
    if len(lines) < 2:
        log("no result (exit status %d)" % run.returncode)
        return 1
    try:
        result = json.loads(lines[-1])
        json.loads(lines[-2])
    except ValueError as error:
        log("unreadable output: %s" % error)
        return 1
    problems = check_result(result, args.trace == 1)
    for problem in problems:
        log(problem)
    if problems:
        return 1
    print(lines[-2])
    print(lines[-1], flush=True)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
