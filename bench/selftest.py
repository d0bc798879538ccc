"""Benchmark self-test: a traced n=4096 solve must record
hartree.coulomb_apply calls and write a CSV bit-identical to an untraced one.

    python3 bench/selftest.py

Exits 0 when both checks hold.  `run.py --trace 1` runs the same test and
reports the run incorrect when it fails.
"""

import json
import sys

import run


def main():
    run.RUNS.mkdir(exist_ok=True)
    reference = json.loads((run.BENCH / "reference.json").read_text())
    problems = run.self_test(reference)
    for p in problems:
        print(f"selftest: {p}")
    print("selftest: " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
