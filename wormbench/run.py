#!/usr/bin/env python3
"""Build and run the wormsim benchmark from the root of a checkout.

    python3 wormbench/run.py --workload saturation --seed 1 --seconds 20 --trace 0

Builds this directory's Go module (which imports the repository's
packages through a replace directive) into .bench_build/wormbench/, with
the Go build cache and temporary files kept there too, then runs the
binary with the given arguments. Everything the benchmark writes stays
under .bench_build/ in the current directory.
"""

import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def main():
    root = os.getcwd()
    build = os.path.join(root, ".bench_build")
    out = os.path.join(build, "wormbench")
    tmp = os.path.join(build, "tmp")
    for d in (out, tmp):
        os.makedirs(d, exist_ok=True)
    go = shutil.which("go")
    if go is None:
        sys.exit("wormbench: no go command on PATH")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomodcache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "GOFLAGS": "-buildvcs=false",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOWORK": "off",
    })
    binary = os.path.join(out, "wormbench")
    built = subprocess.run([go, "build", "-o", binary, "."], cwd=BENCH_DIR, env=env)
    if built.returncode != 0:
        sys.exit("wormbench: build failed")
    args = [binary,
            "-data", os.path.join(BENCH_DIR, "digests"),
            "-out", out,
            "-go", go] + sys.argv[1:]
    # The benchmark runs on one P: every workload does one thing at a
    # time, and a second P only adds wake-ups and garbage collection on
    # a second vCPU that the host schedules as it likes. Freed heap
    # pages go back to the kernel with MADV_FREE instead of
    # MADV_DONTNEED, so the runtime re-uses them without a page fault;
    # on a VM each such fault costs a trip to the host.
    run_env = dict(env, GOMAXPROCS="1", GODEBUG="madvdontneed=0")
    sys.exit(subprocess.run(args, env=run_env).returncode)


if __name__ == "__main__":
    main()
