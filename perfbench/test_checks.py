#!/usr/bin/env python3
"""Self-test of the benchmark's own output checks.

    python3 perfbench/test_checks.py

Runs short (one-pass) benchmark runs from the repository root and asserts
that:
  * the correctness checks pass on seed 42 and on a second seed (7), whose
    expected values are derived, not pinned, and in a traced run;
  * an expected value that is wrong by the smallest step (one comparison,
    or 1e-6 of F1) makes the run report "correct": false and exit non-zero.
"""

import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def run(workload, seed, expect=(), trace=0):
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    for item in expect:
        command += ["--expect", item]
    done = subprocess.run(command, cwd=REPO, capture_output=True, text=True,
                          timeout=900)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    return done.returncode, result, done.stderr


def main():
    cases = [
        # (workload, seed, --expect overrides, trace, should pass)
        ("batch_e1", 42, [], 0, True),
        ("batch_e1", 7, [], 0, True),
        ("ingest_durable", 42, [], 0, True),
        ("ingest_durable", 7, [], 0, True),
        # The traced run also runs every probe, the serve probe's
        # final-state checks included.
        ("batch_e1", 7, [], 1, True),
        ("batch_e1", 42, ["batch_e1.comparisons=681377"], 0, False),
        ("batch_e1", 42, ["batch_e1.f1=0.807019"], 0, False),
        ("ingest_durable", 42, ["ingest_durable.comparisons=3915036"], 0,
         False),
    ]
    failures = 0
    for workload, seed, expect, trace, should_pass in cases:
        code, result, stderr = run(workload, seed, expect, trace)
        passed = code == 0 and result.get("correct") is True
        ok = passed == should_pass
        if not should_pass:
            # A failing check must still be reported, not crash the run.
            ok = ok and code == 1 and result.get("correct") is False
        failures += 0 if ok else 1
        print(f"{'ok  ' if ok else 'FAIL'} {workload} seed={seed} "
              f"trace={trace} expect={expect} exit={code} "
              f"correct={result.get('correct')}")
        if not ok:
            print(stderr[-2000:], file=sys.stderr)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
