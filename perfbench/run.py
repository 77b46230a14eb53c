#!/usr/bin/env python3
"""Build the perfbench benchmark from source and run it.

Run from the root of the repository:

    python3 perfbench/run.py --workload backlog --seed 1 --seconds 25 --trace 0

The Go build keeps its caches under .bench_build/ in the current directory,
so nothing outside the checkout is written. The benchmark's own arguments
are passed through unchanged; its last line of standard output is the JSON
result. If the build fails, nothing is printed on standard output and the
exit code is that of the build.
"""

import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench-bin")


def go_env():
    env = dict(os.environ)
    tmp = os.path.join(BUILD, "tmp")
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOENV="off",
        GOWORK="off",
        GOFLAGS="-mod=readonly",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        CGO_ENABLED="0",
    )
    os.makedirs(tmp, exist_ok=True)
    return env


def main():
    env = go_env()
    build = subprocess.run(
        ["go", "build", "-o", BINARY, "."],
        cwd=HERE,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        return build.returncode
    return subprocess.run([BINARY] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
