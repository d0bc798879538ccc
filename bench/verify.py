"""Output checks behind each job's verdict.

A job fails on an unexpected exit code, a traceback, or a failed check of what
it wrote: `check` after every `solve`, a monotone `sweep` whose rows meet the
identity bound, the `limits` verdicts, a `nondegenerate` spectrum, a `scan`
with exactly one distinct state, and J within `J_RTOL` of the value recorded
at the seed commit.
"""

from __future__ import annotations

import csv
import json

# relative J tolerance at the discretisation level: make_reference.py records
# the largest relative change of J under refinement n -> 2n-1 over the lattice
# (3.8e-7 at n = 4096 at the seed commit).
J_RTOL = 1e-6
IDENTITY_BOUND = 1e-6   # |Nehari|, |Pohozaev| <= 1e-6 G, as `sngs check` applies


def reference_value(reference: dict, ref: str):
    node = reference
    for part in ref.split("/"):
        node = node[part]
    return node


def _close(value, expected) -> bool:
    return abs(value - expected) <= J_RTOL * max(abs(expected), 1e-300)


def judge(command: str, code: int, stdout: str, stderr: str,
          out_prefix: str, expected=None) -> list:
    """Problems found in one job's outcome; empty when it passed.

    `expected` is the recorded reference for the job's J values, if any.
    """
    if "Traceback (most recent call last)" in stderr:
        return [f"traceback: {_last_line(stderr)}"]
    if code != 0:
        return [f"exit {code}: {_last_line(stderr) or _last_line(stdout)}"]
    try:
        return _CHECKS[command](out_prefix, expected)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def _last_line(text):
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def _solve(prefix, expected):
    man = _load(prefix + ".json")
    J = man["summary"]["diagnostics"]["J"]
    if expected is not None and not _close(J, expected["J"]):
        return [f"J = {J!r}, reference {expected['J']!r}"]
    return []


def _sweep(prefix, expected):
    problems = []
    if not _load(prefix + ".json")["summary"]["monotone"]:
        problems.append("c_lambda not monotone")
    with open(prefix + ".csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        G = float(row["grad_sq"])
        for key in ("nehari", "pohozaev"):
            if abs(float(row[key])) > IDENTITY_BOUND * G:
                problems.append(f"lambda {row['lambda']}: |{key}| > 1e-6 G")
    if expected is not None:
        Js = [float(row["J"]) for row in rows]
        if len(Js) != len(expected["J"]):
            problems.append(f"{len(Js)} rows, reference {len(expected['J'])}")
        else:
            problems += [f"row {i}: J = {a!r}, reference {b!r}"
                         for i, (a, b) in enumerate(zip(Js, expected["J"]))
                         if not _close(a, b)]
    return problems


def _scan(prefix, expected):
    distinct = _load(prefix + ".json")["distinct"]
    return [] if distinct == 1 else [f"{distinct} distinct states"]


def _limits(prefix, expected):
    summary = _load(prefix + ".json")["summary"]
    return [f"{key} is false" for key in
            ("distances_decreasing", "final_sup_ok", "ratios_in_window")
            if not summary[key]]


def _spectrum(prefix, expected):
    verdict = _load(prefix + ".json")["verdict"]
    return [] if verdict == "nondegenerate" else [f"verdict {verdict}"]


_CHECKS = {"solve": _solve, "check": lambda prefix, expected: [],
           "sweep": _sweep, "scan": _scan, "limits": _limits,
           "spectrum": _spectrum}
