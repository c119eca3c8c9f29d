#!/usr/bin/env python3
"""Benchmark entry point: builds the explorer from source and runs one workload.

    python3 perfbench/run.py --workload suite|raster-33k|serve-mix \
        --seed N --seconds S --trace 0|1 [--wire binary|json]

Run it from the root of a source checkout.  The first run configures and
builds perfbench/CMakeLists.txt (the addm library, addm_serve, addm_explore
and perfbench_driver, Release) into .bench_build/perfbench; later runs only
check that the build is current.  Build output goes to stderr; stdout carries
the driver's metadata line and, last, its result object.  Traced runs leave
their spans in .bench_build/perfbench/traces/.  See perfbench/README.md.
"""

import argparse
import fcntl
import hashlib
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("suite", "raster-33k", "serve-mix")
TARGETS = ("perfbench_driver", "addm_serve", "addm_explore")
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_digest(root):
    """sha256 over the program sources: a revision stand-in for checkouts
    that are not git repositories."""
    h = hashlib.sha256()
    files = [root / "CMakeLists.txt"]
    for sub in ("src", "tools"):
        files += sorted(p for p in (root / sub).rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(root)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_revision(root):
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(bench_dir, build_dir):
    build_dir.mkdir(parents=True, exist_ok=True)
    with open(build_dir / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (build_dir / "CMakeCache.txt").exists():
            cmd = ["cmake", "-S", str(bench_dir), "-B", str(build_dir),
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                shutil.rmtree(build_dir / "CMakeFiles", ignore_errors=True)
                (build_dir / "CMakeCache.txt").unlink(missing_ok=True)
                fail("cmake configure failed")
        cmd = ["cmake", "--build", str(build_dir), "-j", str(os.cpu_count() or 1),
               "--target", *TARGETS]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--wire", choices=("binary", "json"), default="binary",
                    help="serve-mix wire encoding (binary framing by default)")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    bench_dir = Path(__file__).resolve().parent
    root = bench_dir.parent
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        fail(f"no addm source tree at {root} (run from a full checkout)")
    os.chdir(root)

    out_dir = Path(".bench_build") / "perfbench"
    build(bench_dir, out_dir)

    work_dir = out_dir / "work" / f"{args.workload}-{os.getpid()}"
    trace_out = out_dir / "traces" / f"{args.workload}-seed{args.seed}.json"
    trace_out.parent.mkdir(parents=True, exist_ok=True)
    cmd = [str(out_dir / "perfbench_driver"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--wire", args.wire, "--bin-dir", str(out_dir / "addm"),
           "--work-dir", str(work_dir), "--trace-out", str(trace_out),
           "--rev", git_revision(root), "--src-digest", source_digest(root)]
    # The driver and the addm_serve daemons it starts share one process
    # group, so a timed-out run takes all of them down.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        code = 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
