#!/usr/bin/env python3
"""Build and run the wall-clock EZK benchmark.

Usage, from the root of a checkout of the repository:

    python3 perfbench/run.py --workload kv_write|ezk_counter|kv_read \
        --seed N --seconds S --trace 0|1 [--plant counter|kv_write|kv_read|decode]

Builds perfbench/ezk_bench.exe with dune (build output goes to stderr),
then runs it with the same arguments.  The benchmark prints a readable
report and, as its last stdout line, one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is the
benchmark's: non-zero when a correctness check fails or the build does.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "ezk_bench.exe")


def main():
    for need in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, need)):
            print(
                f"perfbench: {need} not found beside perfbench/; "
                "run this from a checkout of the repository",
                file=sys.stderr,
            )
            return 2
    # keep every build artefact inside the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ROOT, "./perfbench/ezk_bench.exe"],
            cwd=ROOT,
            stdout=sys.stderr,
            stderr=sys.stderr,
            env=env,
            timeout=880,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        return build.returncode
    try:
        run = subprocess.run([EXE] + sys.argv[1:], cwd=ROOT, timeout=170)
    except subprocess.TimeoutExpired:
        print("perfbench: benchmark did not finish within 170 s", file=sys.stderr)
        return 2
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
