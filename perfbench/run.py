#!/usr/bin/env python3
"""Builds the darbench binary from this checkout and runs one workload.

    python3 perfbench/run.py --workload mine_sec72 --seed 7 --seconds 20 --trace 0

Run it from the root of a checkout. The first run configures and builds
the library and darbench (Release) into .bench_build/ (or
$CARGO_TARGET_DIR when set); later runs only rebuild what changed.
darbench prints the run's JSON result as its last stdout line; build
output goes to stderr. Exits non-zero, without a result line, when the
checkout holds no library sources or the build fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("mine_sec72", "stream_drift", "serve_hotswap")
RUN_TIMEOUT_S = 175


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build(out):
    """Configures (once) and builds darbench; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("run.py: no library sources under %s/src\n" % ROOT)
        return None
    env = dict(os.environ)
    # Keep compiler temporaries inside the checkout.
    env["TMPDIR"] = os.path.join(out, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr, env=env) != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.call(["cmake", "--build", out, "-j", jobs,
                        "--target", "darbench"],
                       stdout=sys.stderr, env=env) != 0:
        return None
    return os.path.join(out, "darbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--smoke", action="store_true",
                        help="self-test sizes: every workload in seconds")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="self-test: perturb the reference so the run "
                             "must fail its output checks")
    args = parser.parse_args()

    out = build_dir()
    binary = build(out)
    if binary is None:
        return 2
    work = os.path.join(out, "work")
    os.makedirs(work, exist_ok=True)
    spans = os.path.join(work, "spans.jsonl")
    if os.path.exists(spans):
        os.remove(spans)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", work]
    if args.smoke:
        cmd.append("--smoke")
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write("run.py: %s timed out\n" % args.workload)
        return 3


if __name__ == "__main__":
    sys.exit(main())
