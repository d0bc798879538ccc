"""Record the reference verdicts and actions the benchmark checks against.

    python3 bench/make_reference.py

Run once, at the commit whose behaviour is the reference; it rewrites
bench/reference.json.  Every lattice point of bench/workloads.py is solved
(then checked), and the spectrum of every point `certify` can draw is
certified at n and at 2n-1, through `sngs.cli.main` in process, so the values
are those the CLI jobs produce.  The refinement n -> 2n-1 of each
passing solve is recorded as the discretisation error that bounds J_RTOL.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import pathlib
import sys
import tempfile
import traceback

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402
from verify import judge  # noqa: E402

from sngs import cli  # noqa: E402


def run_cli(command, args, out):
    """(exit code, stdout, stderr) of one in-process `sngs` invocation."""
    out_text, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out_text), contextlib.redirect_stderr(err):
        try:
            code = cli.main(["sngs", command, *args, "--out", out])
        except Exception:   # what an uncaught error does to a CLI process
            traceback.print_exc()
            code = 1
    return code, out_text.getvalue(), err.getvalue()


def solve_checked(tmp, name, q, lam, n):
    """(pass, J or None, first problem) of a solve followed by check."""
    out = os.path.join(tmp, name)
    args = ["--q", q, "--lambda", lam, "--n", str(n)]
    problems = judge("solve", *run_cli("solve", args, out), out)
    if not problems:
        problems = ["check: " + p
                    for p in judge("check", *run_cli("check", [], out), out)]
    J = None
    if not problems:
        with open(out + ".json") as fh:
            J = json.load(fh)["summary"]["diagnostics"]["J"]
    return not problems, J, (problems[0] if problems else None)


def spectrum(tmp, name, q, lam, n):
    out = os.path.join(tmp, name)
    problems = judge("spectrum", *run_cli("spectrum", [
        "--q", q, "--lambda", lam, "--k-max", "3", "--n", str(n)], out), out)
    return not problems, (problems[0] if problems else None)


def main():
    ref = {"solve": {}, "spectrum": {}, "spectrum_refined": {},
           "solve_large": {}}
    worst_refine = 0.0
    with tempfile.TemporaryDirectory() as tmp:
        for q in wl.Q_LATTICE:
            for k in wl.K_LATTICE:
                key = wl.point_key(q, k)
                lam = repr(wl.lam_of(k))
                ok, J, why = solve_checked(tmp, key, repr(q), lam, wl.N_DEFAULT)
                entry = {"pass": ok}
                if ok:
                    entry["J"] = J
                    fine_ok, J_fine, _ = solve_checked(
                        tmp, key + "_fine", repr(q), lam, 2 * wl.N_DEFAULT - 1)
                    if fine_ok:
                        worst_refine = max(worst_refine, abs(J_fine - J) / abs(J))
                else:
                    entry["failure"] = why
                ref["solve"][key] = entry
                if k in wl.CERTIFY_K_LATTICE:
                    for part, n in (("spectrum", wl.N_DEFAULT),
                                    ("spectrum_refined", wl.N_SPECTRUM_REFINED)):
                        ok, why = spectrum(tmp, f"{key}_{part}", repr(q), lam, n)
                        ref[part][key] = {"pass": ok}
                        if not ok:
                            ref[part][key]["failure"] = why
                print(key, {part: ref[part].get(key) for part in
                            ("solve", "spectrum", "spectrum_refined")}, flush=True)
        q, lam = wl.LARGE_POINT
        ok, J, why = solve_checked(tmp, "large", q, lam, wl.N_LARGE)
        if not ok:
            raise SystemExit(f"large solve fails at the reference commit: {why}")
        ref["solve_large"][str(wl.N_LARGE)] = {"J": J}
        q, lams = wl.SWEEP
        out = os.path.join(tmp, "sweep")
        problems = judge("sweep", *run_cli("sweep", ["--q", q, "--lambdas", lams],
                                           out), out)
        if problems:
            raise SystemExit(f"sweep fails at the reference commit: {problems}")
        with open(out + ".csv") as fh:
            header = fh.readline().strip().split(",")
            col = header.index("J")
            ref["sweep"] = {"J": [float(line.split(",")[col]) for line in fh]}
    ref["meta"] = {"max_rel_J_change_on_refinement": worst_refine,
                   "n": wl.N_DEFAULT, "refined_n": 2 * wl.N_DEFAULT - 1}
    with open(pathlib.Path(__file__).with_name("reference.json"), "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("max relative J change on refinement:", worst_refine)


if __name__ == "__main__":
    main()
