#!/usr/bin/env python3
"""Build and run the kfuse benchmark (perfbench/kbench.ml).

    python3 perfbench/run.py --workload scale-les|homme|serve-stream \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It builds the benchmark and the
libraries it links from source with dune (build output goes to stderr),
then runs one workload; the last line of standard output is the result
object.  The exit code is the benchmark's: non-zero when an output is
incorrect, or when the checkout holds no kfuse sources to build.
"""

import os
import signal
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "kbench.exe")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run(cmd, timeout, **kw):
    """Run cmd in its own process group; on timeout kill the whole group
    and wait for it, so no process outlives this script."""
    p = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        return p.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        print(f"run.py: {cmd[0]} timed out after {timeout} s", file=sys.stderr)
        return 124


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("run.py: no kfuse sources here (dune-project and lib/ missing); "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    # The shared dune cache lives outside the checkout; keep all build
    # state in _build.
    env = dict(os.environ, DUNE_CACHE="disabled")
    rc = run(["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/kbench.exe"],
             BUILD_TIMEOUT_S, env=env, stdout=sys.stderr)
    if rc != 0:
        print(f"run.py: build failed ({rc})", file=sys.stderr)
        return rc if rc > 0 else 2
    return run([EXE] + sys.argv[1:], RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
