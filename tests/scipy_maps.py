"""Which scipy files a run maps: solve, check, sweep, scan and limits map
none, and spectrum maps only SuperLU's _superlu and the libraries it links
from scipy.libs/.  No subcommand imports a scipy module.

Runs the six subcommands in this process, writing into the current
directory, and reads /proc/self/maps (Linux only):

    python tests/scipy_maps.py

Exit 0 when all of it holds, 1 with a message when not, and 3 when numpy
bundles no ILP64 OpenBLAS, so that scipy's _flapack is mapped by design.
`tests/test_kernels.py` runs it in a fresh process.
"""

import os
import sys

import sngs.cli
from sngs import kernels

SUPERLU = "scipy/sparse/linalg/_dsolve/_superlu"


def scipy_files():
    """The mapped files under a scipy/ or scipy.libs/ directory, from that
    directory on."""
    files = set()
    with open("/proc/self/maps") as maps:
        for line in maps:
            path = line.split(maxsplit=5)[5:]
            parts = path[0].strip().split(os.sep) if path else []
            for i, part in enumerate(parts):
                if part in ("scipy", "scipy.libs"):
                    files.add("/".join(parts[i:]))
    return sorted(files)


def run(*argv):
    code = sngs.cli.main(["sngs", *argv])
    if code != 0:
        sys.exit(f"{argv[0]} exited {code}")


def main():
    if not isinstance(kernels._routines, kernels._ILP64Lapack):
        print("numpy bundles no ILP64 OpenBLAS: scipy's _flapack is mapped")
        return 3
    run("solve", "--q", "4", "--lambda", "0.1", "--n", "512", "--out", "g")
    run("check", "--out", "g")
    run("sweep", "--q", "4", "--lambdas", "0.1,0.05", "--n", "1024",
        "--out", "sw")
    run("scan", "--q", "4", "--lambda", "0.1", "--starts", "2", "--n", "1024",
        "--out", "sc")
    run("limits", "--q", "4", "--side", "zero", "--lambdas", "0.1",
        "--n", "512", "--out", "lim")
    before = scipy_files()
    if before:
        sys.exit(f"scipy files mapped before spectrum: {before}")
    run("spectrum", "--q", "4", "--lambda", "0.01", "--n", "1024",
        "--out", "gs")
    after = scipy_files()
    if (not any(f.startswith(SUPERLU) for f in after)
            or not all(f.startswith((SUPERLU, "scipy.libs/")) for f in after)):
        sys.exit(f"spectrum maps {after}")
    modules = sorted(m for m in sys.modules
                     if m == "scipy" or m.startswith("scipy."))
    if modules:
        sys.exit(f"scipy modules imported: {modules}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
