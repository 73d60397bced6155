#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload whatif-107 --seed 42 --seconds 20 --trace 0

The Go program in this directory is built from the checkout's sources
into .bench_build/ (the build cache lives there too, so nothing is
written outside the checkout), then run from the repository root with
the same arguments. Its exit status is passed through; a failed build
exits 1 without printing a result.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    build = os.path.join(ROOT, ".bench_build")
    exe = os.path.join(build, "perfbench")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=os.path.join(build, "tmp"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOFLAGS="",
        GOENV="off",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    built = subprocess.run(
        ["go", "build", "-buildvcs=false", "-o", exe, "."],
        cwd=HERE, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
    )
    if built.returncode != 0:
        sys.stderr.write(built.stdout.decode(errors="replace"))
        sys.stderr.write("perfbench: build failed\n")
        return 1
    sys.stdout.flush()
    child = subprocess.Popen([exe] + sys.argv[1:], cwd=ROOT)

    def forward(signum, _frame):
        child.send_signal(signum)

    # Pass termination on to the benchmark and still wait for it, so no
    # process outlives this one.
    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, forward)
    return child.wait()


if __name__ == "__main__":
    sys.exit(main())
