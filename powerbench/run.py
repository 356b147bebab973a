#!/usr/bin/env python3
"""Build and run the PowerPlay benchmark.

    python3 powerbench/run.py --workload browse --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The first run configures and builds
powerbench/ (which compiles ../src) under .bench_build/ in the
checkout, or under $CARGO_TARGET_DIR when that names a directory; later
runs rebuild only what changed.  Build output goes to stderr; the last
line of stdout is the benchmark's JSON result.  The run's scratch store
lives under the build directory and is removed afterwards; the latest
traced run's spans are kept in <build>/spans/<workload>.jsonl.
"""
import os
import re
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 170


def fail(why, code=2):
    print("powerbench/run.py: " + why, file=sys.stderr)
    sys.exit(code)


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "src", "web", "app.hpp")):
        fail("no PowerPlay sources next to powerbench/ (src/web/app.hpp missing)")

    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    base = os.path.abspath(os.path.join(root, base))
    build = os.path.join(base, "powerbench")

    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", here, "-B", build, "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("cmake configure failed", 1)
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", build, "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed", 1)

    args = sys.argv[1:]

    def arg(flag):
        i = args.index(flag) + 1 if flag in args else len(args)
        return re.sub(r"[^A-Za-z0-9_.-]", "_", args[i]) if i < len(args) else "none"

    data = os.path.join(build, "run-%d" % os.getpid())
    # One file per workload, overwritten by its next traced run.
    spans = os.path.join(build, "spans", "%s.jsonl" % arg("--workload"))
    command = [os.path.join(build, "powerbench")] + args + ["--data", data, "--spans", spans]
    proc = subprocess.Popen(command, cwd=root)
    code = None
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        pass
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(data, ignore_errors=True)
    if code is None:
        fail("benchmark did not finish within %d s" % RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
