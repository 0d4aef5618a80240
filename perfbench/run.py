#!/usr/bin/env python3
"""Build vgrid's end-to-end benchmark and run it (see README.md here).

From the root of a vgrid checkout:

    python3 perfbench/run.py --workload figures|fleet|grid|mc \\
        --seed N --seconds S --trace 0|1

The first run configures and builds into .bench_build/perfbench; later
runs only rebuild what changed. The last line of standard output is the
JSON result. Exits non-zero, printing no result, when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt"))):
        sys.exit("perfbench: no vgrid sources beside perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", "4"])
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log,
                              stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                with open(log_path) as failed:
                    sys.stderr.write("".join(failed.readlines()[-40:]))
                sys.exit("perfbench: build failed; see " + log_path)
    return os.path.join(BUILD, "perfbench")


def main():
    binary = build()
    args = [binary, "--ref-dir", os.path.join(HERE, "ref"),
            "--out-dir", os.path.join(BUILD_ROOT, "spans")] + sys.argv[1:]
    sys.stdout.flush()
    # exec, so the measured process is the benchmark alone.
    os.execv(binary, args)


if __name__ == "__main__":
    main()
