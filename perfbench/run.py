#!/usr/bin/env python3
"""Builds the benchmark program from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload tree_pase --seed 1 --seconds 25 --trace 0

The program (perfbench/pase_perfbench.cc) and the simulator libraries it links
are built with CMake into $CARGO_TARGET_DIR, or .bench_build when that is
unset, both relative to the repository root. Build output goes to stderr, so
the last stdout line is the program's JSON result. The exit code is non-zero,
and no result is printed, when the build or the run fails.
"""

import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out):
    cmds = [["cmake", "--build", out, "-j", "4"]]
    # Configure once; later builds re-run CMake themselves when a list file
    # changes.
    if not any(os.path.exists(os.path.join(out, f))
               for f in ("build.ninja", "Makefile")):
        cmds.insert(0, ["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"] +
                    (["-G", "Ninja"] if shutil.which("ninja") else []))
    for cmd in cmds:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main(argv):
    out = build_dir()
    if not build(out):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(out, "pase_perfbench")
    # Own session, so a timeout can stop the program and its forked children.
    proc = subprocess.Popen([exe] + argv, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print("perfbench: pase_perfbench exited with %d" % proc.returncode,
              file=sys.stderr)
        return 1
    sys.stdout.write(stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
