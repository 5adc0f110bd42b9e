#!/usr/bin/env python3
"""Build the perfbench binary from this checkout's sources and run it.

Usage (from the repository root):

    python3 perfbench/run.py --workload fig8-matrix --seed 1 --seconds 20 --trace 0

The Go build cache, temporary files and every file the benchmark writes
stay under .bench_build/ in the checkout. The script exits non-zero
without printing a result when the sources do not build.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOTMPDIR", "tmp"), ("GOPATH", "gopath"),
                     ("XDG_CONFIG_HOME", "config"), ("PPROF_TMPDIR", "pprof")):
        path = os.path.join(BUILD, sub)
        os.makedirs(path, exist_ok=True)
        env[key] = path
    env.update(GOFLAGS="", GOWORK="off", GOPROXY="off", GOTOOLCHAIN="local", GOENV="off")
    return env


def main():
    go = shutil.which("go")
    if go is None:
        print("perfbench: no go toolchain on PATH", file=sys.stderr)
        return 1
    env = go_env()
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run([go, "build", "-buildvcs=false", "-o", binary, "."],
                           cwd=HERE, env=env, stdout=sys.stderr, timeout=850)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    args = [binary, "-go", go, "-workdir", os.path.join(BUILD, "work")] + sys.argv[1:]
    return subprocess.run(args, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
