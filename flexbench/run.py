#!/usr/bin/env python3
"""Builds the flexcs benchmark from source and runs one workload.

    python3 flexbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
library and the flexbench binary into .bench_build/flexbench (Release);
later calls rebuild only what changed. The binary's output is passed
through, preceded by a provenance line (git sha or source digest, nproc,
compiler, build type, date, workload and seed); the last line of standard
output is the run's JSON result. The exit code is non-zero
when the build fails, an output check fails or the run does not finish.
"""
import argparse
import datetime
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "flexbench")
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"flexbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no flexcs sources next to the benchmark (src/ is missing)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def cache_value(key):
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def source_digest():
    h = hashlib.sha256()
    for top in ("src", "flexbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def provenance(args):
    sha = None
    try:
        # Only a repository rooted here counts, not one that happens to
        # enclose the checkout.
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10).stdout.split()
        if len(out) == 2 and os.path.realpath(out[0]) == os.path.realpath(ROOT):
            sha = out[1]
    except (OSError, subprocess.SubprocessError):
        pass
    compiler = cache_value("CMAKE_CXX_COMPILER")
    version = None
    if compiler:
        out = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True).stdout
        version = out.splitlines()[0] if out else None
    return {
        "git_sha": sha,
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "compiler": version or compiler,
        "build_type": cache_value("CMAKE_BUILD_TYPE"),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    cmd = [os.path.join(BUILD, "flexbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    # Own process group, so a timeout also stops any worker process the
    # benchmark forked.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"run did not finish within {RUN_TIMEOUT_S} s")
    lines = out.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(out)
        fail(f"flexbench exited with code {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    print("provenance: " + json.dumps(provenance(args)))
    print(lines[-1])
    sys.stdout.flush()


if __name__ == "__main__":
    main()
