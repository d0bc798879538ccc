"""One CLI job in a fresh interpreter, run the way the `sngs` console script runs.

    python3 bench/job.py SIDECAR [--trace SPANS] [-- SNGS_ARGS...]

Writes the time `import sngs.cli` took, and where sngs was imported from, to
the SIDECAR JSON file, then runs `sngs.cli.main` on SNGS_ARGS.  With no
SNGS_ARGS it only imports (a set-up probe) and also records the interpreter,
numpy and scipy versions.  With --trace it records spans into SPANS.
"""

import os
import sys
import time

_t0 = time.perf_counter()
_BENCH = os.path.dirname(os.path.abspath(__file__))
# keep the benchmark's own modules out of the program's imports
sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != _BENCH]
import sngs.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _t0

import json  # noqa: E402


def main(argv):
    sidecar, rest = argv[0], argv[1:]
    trace = None
    if rest[:1] == ["--trace"]:
        trace, rest = rest[1], rest[2:]
    cli_args = rest[1:] if rest[:1] == ["--"] else rest
    info = {"import_s": IMPORT_S, "sngs_file": os.path.abspath(sngs.__file__)}
    if not cli_args:
        import platform

        import numpy
        import scipy
        info.update(python=platform.python_version(), numpy=numpy.__version__,
                    scipy=scipy.__version__)
    with open(sidecar, "w") as fh:
        json.dump(info, fh)
    if not cli_args:
        return 0
    if trace is None:
        return sngs.cli.main(["sngs", *cli_args])
    sys.path.insert(0, _BENCH)
    from tracer import Recorder, install

    recorder = Recorder()
    install(recorder)
    try:
        return sngs.cli.main(["sngs", *cli_args])
    finally:
        recorder.dump(trace)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
