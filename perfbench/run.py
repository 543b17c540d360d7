#!/usr/bin/env python3
"""Serving benchmark entry point.

Builds the benchmark package (perfbench/CMakeLists.txt, which compiles the
repository's libraries from source) and runs one workload:

    python3 perfbench/run.py --workload editor_sessions --seed 1 \
        --seconds 45 --trace 0

The last line of standard output is the result: one JSON object with the
keys correct, attempted, failed and metrics. Build output and diagnostics go
to standard error. The full result, with the run stamp, is also written to
<build dir>/results/. `--selftest` builds and runs the benchmark's own
self-tests instead.

Run it from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under perfbench/.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHECKPOINT = os.path.join("perfbench", "model", "wisdom-ansible-multi-350m.ckpt")
# A run must end within 180 s; the build before it is not counted here.
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(targets):
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, cwd=ROOT, stdout=sys.stderr).returncode:
            shutil.rmtree(out, ignore_errors=True)
            return None
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", out, "-j", jobs, "--target"] + targets
    if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode:
        return None
    return out


def run(binary, args):
    """Runs a benchmark binary; returns (exit code, stdout)."""
    try:
        done = subprocess.run([binary] + args, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("benchmark run exceeded %d s" % RUN_TIMEOUT_S)
        return 1, ""
    return done.returncode, done.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    target = "perfbench_selftest" if args.selftest else "perfbench"
    out = build([target])
    if out is None:
        log("build failed")
        return 1
    binary = os.path.join(out, target)
    if args.selftest:
        code, stdout = run(binary, ["--checkpoint", CHECKPOINT])
        sys.stdout.write(stdout)
        return code

    code, stdout = run(binary, [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--checkpoint", CHECKPOINT,
        "--out-dir", os.path.join(out, "results")])
    lines = stdout.strip().splitlines()
    if code != 0 or not lines:
        log("benchmark exited with code %d" % code)
        return code or 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("benchmark printed no result line")
        return 1
    if set(result) != RESULT_KEYS:
        log("result line has keys %s" % sorted(result))
        return 1
    for line in lines[:-1]:
        log(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
