#!/usr/bin/env python3
"""Build the benchmark from source and run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of the repository.  The benchmark links the
repository's libraries, so it refuses to run anywhere else.  Build
output goes to stderr; standard output belongs to the benchmark, whose
last line is the result object.
"""

import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of the repository (no dune-project and lib/ here)")
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")
    # Keep every build artefact inside the checkout: no shared dune cache.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        [dune, "build", "--root", ".", "./perfbench/main.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        fail("build failed (dune exit %d)" % build.returncode)
    sys.stdout.flush()
    os.execv(EXE, [EXE] + sys.argv[1:])


if __name__ == "__main__":
    main()
