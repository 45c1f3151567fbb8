#!/usr/bin/env python3
"""Builds and runs the weber benchmark.

    python3 perfbench/run.py --workload batch_e1 --seed 42 --seconds 50 --trace 0

Run from the repository root. The first run configures and builds the
weber library from src/ plus the perfbench driver in Release mode under
$CARGO_TARGET_DIR (default .bench_build); later runs only re-check the
build. Every pass works in a fresh directory under a per-run scratch root
in .bench_tmp/, which is removed when the run ends, also on failure. The
traced run (--trace 1) writes its spans to .bench_out/.

The last line of standard output is the JSON result. The exit
code is non-zero when the build fails, the sources are missing, or any
output check fails.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("batch_e1", "ingest_durable")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
# Executor workers. The untraced runs time one worker, so every bounded
# metric is single-threaded work; the traced run uses four, so the
# per-layer speed-up probes can compare 1 and 4 threads.
EXECUTOR_WORKERS = {0: "1", 1: "4"}

# The child process group running now, and the scratch root to remove;
# both are cleaned up on every exit path, signals included.
current = {"child": None, "tmp_root": None}


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    cleanup()
    sys.exit(code)


def cleanup():
    child = current["child"]
    if child is not None and child.poll() is None:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
    current["child"] = None
    if current["tmp_root"] is not None:
        shutil.rmtree(current["tmp_root"], ignore_errors=True)
        try:
            current["tmp_root"].parent.rmdir()  # Only if no other run uses it.
        except OSError:
            pass


def run_child(command, timeout, env=None, stdout=None):
    """Runs a command in its own process group; returns its exit code, or
    None when it had to be killed at the timeout."""
    child = subprocess.Popen(command, env=env, stdout=stdout,
                             start_new_session=True)
    current["child"] = child
    try:
        return child.wait(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        cleanup()
        return None
    finally:
        current["child"] = None


def build(repo, build_dir):
    if not (repo / "src" / "CMakeLists.txt").is_file():
        fail("the weber sources (src/) are missing; nothing to build")
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(repo / "perfbench"), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(build_dir), "-j", "4"])
    for step in steps:
        code = run_child(step, deadline - time.monotonic(), stdout=sys.stderr)
        if code != 0:
            fail(f"build step failed ({code}): {' '.join(step)}")
    binary = build_dir / "perfbench"
    if not binary.is_file():
        fail(f"build produced no {binary}")
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--expect", action="append", default=[],
                        help="key=value: replace a derived expected value")
    args = parser.parse_args()

    def on_signal(signum, _frame):
        cleanup()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)

    repo = Path(__file__).resolve().parent.parent
    os.chdir(repo)
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")) / "perfbench"
    binary = build(repo, build_dir)

    # Relative to the repository root, so the Unix socket path stays short.
    tmp_root = Path(".bench_tmp") / f"run-{os.getpid()}-{time.time_ns()}"
    current["tmp_root"] = tmp_root
    command = [str(binary.resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--tmp", str(tmp_root)]
    if args.trace:
        command += ["--trace-out",
                    f".bench_out/trace-{args.workload}-seed{args.seed}.json"]
    for expect in args.expect:
        command += ["--expect", expect]
    env = dict(os.environ, WEBER_NUM_THREADS=EXECUTOR_WORKERS[args.trace])
    code = run_child(command, RUN_TIMEOUT_S, env=env)
    cleanup()
    if code is None:
        fail("run timed out", code=3)
    sys.exit(code)


if __name__ == "__main__":
    main()
