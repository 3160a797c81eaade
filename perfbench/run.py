#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload protect|run|attack|serve \
        --seed N --seconds S --trace 0|1 [--inject-delay LAYER:MS]

Run it from the root of a checkout.  The build goes to _build/ through
dune; its output goes to stderr, so the last line of stdout stays the
benchmark's JSON result.
"""
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isfile(os.path.join("perfbench", "dune"))):
        print("perfbench: not at the root of a source checkout "
              "(dune-project, lib/ and perfbench/dune are needed)",
              file=sys.stderr)
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe"],
        stdout=sys.stderr)
    if build.returncode != 0 or not os.path.isfile(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    return subprocess.run([EXE] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
