#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/selftest.py

Run from the root of a checkout; every check goes through
perfbench/run.py, so the first check also builds. Checks:

  1. On a seed the benchmark was not tuned on (SEED = 7), every
     workload passes its correctness gate with the timed and with the
     traced run, and both runs give the same output digest and the same
     work counts.
  2. At the default seed 1 the mission gate accepts the pinned
     fingerprints.
  3. Each gate canary is counted as failed: an out-of-spec mission, an
     unfixed Table-1 cell checked against the fixed row, and a scale run
     whose detection bound is tightened below the analytic one.
  4. The known defect (README.md, "Known defect") still reproduces: the
     dynamic variant alone passes at seed 1 and fails at seed 4. When it
     stops failing, the defect is fixed and the dynamic variant belongs
     back in the mission workload.

Takes about three minutes on a 4-vCPU x86 VM; prints one line per check
and exits nonzero if any check failed.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("mc_reduced", "mission", "scale", "mc_exhaustive")
SEED = 7
# Short runs: the checks are about gates and determinism, not timing.
SECONDS = "3"


def bench(workload, seed, trace=0, canary=None):
    """Runs one workload; returns (exit status, header, result)."""
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", SECONDS, "--trace", str(trace)]
    if canary:
        command += ["--canary", canary]
    run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True)
    lines = run.stdout.strip().splitlines()
    if len(lines) < 2:
        return run.returncode, None, None
    return run.returncode, json.loads(lines[-2])["header"], json.loads(lines[-1])


class Checks:
    def __init__(self):
        self.failed = 0

    def expect(self, ok, what):
        print("%s  %s" % ("ok  " if ok else "FAIL", what), flush=True)
        if not ok:
            self.failed += 1


def passes(status, result):
    return status == 0 and result is not None and result["correct"] \
        and result["failed"] == 0


def fails_gate(status, result):
    return status != 0 and result is not None and not result["correct"] \
        and result["failed"] >= 1


def main():
    checks = Checks()

    for workload in WORKLOADS:
        status0, header0, result0 = bench(workload, SEED, trace=0)
        status1, header1, result1 = bench(workload, SEED, trace=1)
        checks.expect(passes(status0, result0),
                      "%s seed %d: timed run passes its gate"
                      % (workload, SEED))
        checks.expect(passes(status1, result1),
                      "%s seed %d: traced run passes its gate"
                      % (workload, SEED))
        same = header0 is not None and header1 is not None and \
            header0["digest"] == header1["digest"] and \
            header0["counts"] == header1["counts"]
        checks.expect(same, "%s seed %d: timed and traced runs give the same "
                      "digest and counts" % (workload, SEED))

    status, _, result = bench("mission", 1)
    checks.expect(passes(status, result),
                  "mission seed 1: pinned fingerprints reproduce")

    for workload, canary in (("mission", "out-of-spec-mission"),
                             ("mc_reduced", "fixed-expectation"),
                             ("scale", "tight-detection")):
        status, _, result = bench(workload, SEED, canary=canary)
        checks.expect(fails_gate(status, result),
                      "canary %s: counted as failed" % canary)

    status, _, result = bench("mission", 1, canary="dynamic-only")
    checks.expect(passes(status, result),
                  "dynamic variant seed 1: clean, pinned fingerprint")
    status, _, result = bench("mission", 4, canary="dynamic-only")
    checks.expect(fails_gate(status, result),
                  "dynamic variant seed 4: known R2 defect still reproduces "
                  "(if fixed, restore the variant to the mission workload)")

    print("%d check(s) failed" % checks.failed)
    return 1 if checks.failed else 0


if __name__ == "__main__":
    sys.exit(main())
