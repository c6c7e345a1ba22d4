#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 agentbench/run.py --workload speculate|explore_paged|serve \
        --seed N --seconds S --trace 0|1 [--tiny] [--perturb-reference]

Run from the repository root. Builds the `afbench` driver from source first
(an optimized CMake build under $CARGO_TARGET_DIR, default .bench_build; a
no-op once built), runs the workload in its own process in a fresh scratch
directory under the build directory, and passes its output through: one
metric per line with its unit, then the result as the last line of stdout,
a JSON object with the keys correct, attempted, failed and metrics. A traced
run's span log is kept as <build dir>/traces/<workload>-seed<N>.jsonl.

Exits 0 when the run measured and every checked answer was correct, 1 on a
wrong answer or a failed recovery check, and 2 or 3 when the build or the
run could not happen (for example without the system's sources beside this
directory), in which case no result is printed.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("speculate", "explore_paged", "serve")
RUN_TIMEOUT_S = 170


def log(msg):
    print("agentbench: " + msg, file=sys.stderr, flush=True)


def source_identity():
    """The commit when the checkout is a git repository, else a digest of the
    sources the benchmark builds."""
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "tools", os.path.basename(HERE)):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("the system's sources (src/) are not beside " + HERE)
        return None
    cmake = shutil.which("cmake")
    if cmake is None:
        log("cmake not found")
        return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = [cmake, "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("configure failed")
            return None
    cmd = [cmake, "--build", build_dir, "--target", "afbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        log("build failed")
        return None
    return os.path.join(build_dir, "afbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the benchmark's own tests")
    parser.add_argument("--perturb-reference", action="store_true",
                        help="corrupt one reference answer; the gate must trip")
    args = parser.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(os.path.join(target, "agentbench"))
    if binary is None:
        return 2

    work_dir = os.path.join(target, "runs", "%s-%d-%d-%d" % (
        args.workload, args.seed, args.trace, os.getpid()))
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, "--commit", source_identity()]
    if args.tiny:
        cmd.append("--tiny")
    if args.perturb_reference:
        cmd.append("--perturb-reference")
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        log("run exceeded %d s" % RUN_TIMEOUT_S)
        code = 3
    finally:
        spans = os.path.join(work_dir, "spans.jsonl")
        if os.path.isfile(spans):
            keep = os.path.join(target, "traces")
            os.makedirs(keep, exist_ok=True)
            os.replace(spans, os.path.join(keep, "%s-seed%d.jsonl" % (args.workload, args.seed)))
        shutil.rmtree(work_dir, ignore_errors=True)
    if code < 0:
        log("afbench died with signal %d" % -code)
        code = 3
    return code


if __name__ == "__main__":
    sys.exit(main())
