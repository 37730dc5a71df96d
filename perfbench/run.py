#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/perfbench.exe with dune (shared cache off, so the build
reads and writes only inside the checkout), then runs it with the same
arguments. Its last stdout line is the JSON result. Exits non-zero,
without a result, when the sources or the toolchain are missing or the
build fails.
"""

import os
import shutil
import subprocess
import sys
import time

DEADLINE_S = 175.0  # a run must end within 180 s
BUILD_DEADLINE_S = 890.0  # the first run in a checkout builds


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def find_dune():
    dune = shutil.which("dune")
    if dune:
        return dune
    prefix = os.environ.get("OPAM_SWITCH_PREFIX")
    if prefix and os.access(os.path.join(prefix, "bin", "dune"), os.X_OK):
        return os.path.join(prefix, "bin", "dune")
    fail("dune not found on PATH")


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for needed in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(root, needed)):
            fail("%s is missing: run from the root of a full checkout" % needed)
    started = time.monotonic()
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            [find_dune(), "build", "--root", root, "./perfbench/perfbench.exe"],
            cwd=root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            timeout=BUILD_DEADLINE_S,
        )
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if build.returncode != 0:
        sys.stderr.write(build.stdout)
        fail("build failed")
    exe = os.path.join(root, "_build", "default", "perfbench", "perfbench.exe")
    built_s = time.monotonic() - started
    # A run that had to build may take up to 900 s in all.
    limit = BUILD_DEADLINE_S if built_s > 5.0 else DEADLINE_S
    budget = min(DEADLINE_S, limit - built_s)
    try:
        run = subprocess.run([exe] + sys.argv[1:], cwd=root, timeout=budget)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
