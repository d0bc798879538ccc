"""Command-line front end.

Subcommands: solve | sweep | limits | spectrum | scan | check.  Exit codes:
0 when every enabled verdict passes, 2 on numerical failure (partial manifest
still written where possible), 64 on usage errors.  `solve`, `sweep`,
`limits`, `scan` and `check` accept a state by `solver.acceptance_failures`,
whose entries a refused state's record lists under `identity_failures`.
`limits` and `spectrum` solve the normal-form members of
`scaling.normal_form` at lambda = 1, the former one per lambda; no field is
rescaled.  `limits` takes only lambdas on its side of 1 (below 1 for
`--side zero`, above for `--side infinity`); any other is a usage error,
raised before any solve.  Its verdict is `scaling.limit_study`'s, with the
acceptance failures of its states and reference.

Importing this module ends with `gc.freeze()`, so no collection, the one at
interpreter exit included, walks the ~41.5k objects numpy, scipy and sngs
leave at import again: about 60 ms of each process.
"""

from __future__ import annotations

import argparse
import gc
import math
import sys
import time
from dataclasses import asdict

import numpy as np

from . import __version__, diagnostics, io, linearized, scaling, solver
from .errors import (BadRange, InvalidExponent, IoError, NegativeStateDetected,
                     NonConvergence, SngsError, TrivialCollapse, UsageError)
from .grid import write_table_csv

EXIT_OK = 0
EXIT_NUMERICAL = 2
EXIT_USAGE = 64

# relative agreement `check` asks of each re-derived diagnostic with the
# value the manifest stored; the identity residuals nehari and pohozaev, which
# cancel to near 0, at least relative to G = grad_sq
CHECK_RTOL = 1e-6


class _Parser(argparse.ArgumentParser):
    """Usage errors raise UsageError; flags must be spelled out in full."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(message)


def parse_lambdas(spec: str):
    """'start:stop:log|lin:count' or a comma list of distinct positive finite
    values."""
    try:
        if ":" in spec:
            parts = spec.split(":")
            if len(parts) != 4:
                raise BadRange(f"bad sweep spec {spec!r}")
            start, stop, kind, count = float(parts[0]), float(parts[1]), parts[2], int(parts[3])
            if count < 1 or not (0 < start < math.inf and 0 < stop < math.inf):
                raise BadRange(f"bad sweep spec {spec!r}")
            if kind == "log":
                vals = np.geomspace(start, stop, count).tolist()
            elif kind == "lin":
                vals = np.linspace(start, stop, count).tolist()
            else:
                raise BadRange(f"unknown spacing {kind!r}")
        else:
            vals = [float(tok) for tok in spec.split(",") if tok]
            if not vals or not all(0 < v < math.inf for v in vals):
                raise BadRange(f"bad lambda list {spec!r}")
    except ValueError as exc:
        raise BadRange(f"bad sweep spec {spec!r}: {exc}") from exc
    if len(set(vals)) < len(vals):
        raise BadRange(f"repeated lambda in {spec!r}")
    return vals


def _int_from(low: int):
    """argparse type: an integer >= low."""
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} < {low}")
        return value
    return parse


def _positive(text):
    """argparse type: a positive finite number."""
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"{value} is not positive and finite")
    return value


def build_parser():
    p = _Parser(prog="sngs", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    optional = {"--a": dict(type=float, default=1.0),
                "--nu": dict(type=float, default=1.0),
                "--seed": dict(type=int, default=0)}

    def common(sp, *flags):
        """The flags every solving subcommand takes, plus those of `flags`
        (keys of `optional`); the others are usage errors."""
        sp.add_argument("--q", type=float, required=True)
        for flag in flags:
            sp.add_argument(flag, **optional[flag])
        sp.add_argument("--n", type=_int_from(16), default=4096)
        sp.add_argument("--out", required=True)
        sp.add_argument("--force", action="store_true")

    sp = sub.add_parser("solve", help="one ground state")
    common(sp, "--a", "--nu")
    sp.add_argument("--lambda", dest="lam", type=_positive, required=True)

    sp = sub.add_parser("sweep", help="lambda sweep with c_lambda monotonicity verdict")
    common(sp, "--a", "--nu")
    sp.add_argument("--lambdas", required=True)

    sp = sub.add_parser("limits", help="scaling-limit distances to W or U")
    common(sp)
    sp.add_argument("--lambdas", required=True)
    sp.add_argument("--side", choices=["zero", "infinity"], required=True)

    sp = sub.add_parser("spectrum", help="sector spectra and nondegeneracy verdict")
    common(sp)
    sp.add_argument("--lambda", dest="lam", type=_positive, required=True)
    sp.add_argument("--k-max", type=_int_from(2), default=3,
                    help="accepted and ignored: sector 1 certifies every k >= 2")

    sp = sub.add_parser("scan", help="multi-start uniqueness scan")
    common(sp, "--a", "--nu", "--seed")
    sp.add_argument("--lambda", dest="lam", type=_positive, required=True)
    sp.add_argument("--starts", type=_int_from(2), default=20)

    sp = sub.add_parser("check", help="re-derive diagnostics from artifacts")
    sp.add_argument("--out", required=True)
    return p


def _params(args, lam: float):
    """The family member (lam, a, nu, q) the flags name at lambda `lam`."""
    return solver.ModelParams(lam=lam, a=args.a, nu=args.nu, q=args.q)


def _failures_by_lambda(states, lams) -> list:
    """{lambda, failures} for each state `solver.acceptance_failures` refuses,
    `states[i]` the state solved for `lams[i]`."""
    return [{"lambda": lam, "failures": fails} for s, lam in zip(states, lams)
            if (fails := solver.acceptance_failures(s))]


def cmd_solve(args, command_line):
    io.check_clobber([args.out + ".csv", args.out + ".json"], args.force)
    params = _params(args, args.lam)
    try:
        state = solver.solve(params, args.n)
    except (NonConvergence, TrivialCollapse, NegativeStateDetected) as exc:
        best = getattr(exc, "state", None)   # NonConvergence's best iterate
        record = {} if best is None else {"state": io.state_record(best)}
        io.write_manifest(
            args.out + ".json", command_line, params=asdict(params),
            grid={"r_max": solver._solve_grid(params, args.n).r_max,
                  "n": args.n},
            summary={"error": str(exc)}, **record)
        print(f"solve: {type(exc).__name__} ({exc})", file=sys.stderr)
        return EXIT_NUMERICAL
    io.save_state(state, args.out, command_line, args.force)
    failures = solver.acceptance_failures(state)
    d = state.diagnostics
    print(f"solve: converged in {state.iterations} iterations, "
          f"residual {state.residual_norm:.3e}, J = {d.J:.12g}")
    for f in failures:
        print(f"solve: under-resolved state {f}", file=sys.stderr)
    return EXIT_NUMERICAL if failures else EXIT_OK


_SWEEP_HEADER = ["lambda", "J", "grad_sq", "l2_sq", "lq", "D", "sup_u", "sup_v",
                 "M", "nehari", "pohozaev", "residual_norm", "iterations"]


def cmd_sweep(args, command_line):
    out_csv = args.out + ".csv"
    io.check_clobber([out_csv, args.out + ".json"], args.force)
    lams = sorted(parse_lambdas(args.lambdas))
    states = [solver.solve(_params(args, lam), args.n) for lam in lams]
    rows = []
    for s in states:
        d = s.diagnostics
        rows.append([s.params.lam, d.J, d.grad_sq, d.l2_sq, d.lq, d.D, d.sup_u,
                     d.sup_v, d.M, d.nehari, d.pohozaev, s.residual_norm,
                     s.iterations])
    write_table_csv(out_csv, _SWEEP_HEADER, rows)
    mono = diagnostics.monotonicity_check([(s.params.lam, s.diagnostics.J)
                                           for s in states])
    failures = _failures_by_lambda(states, lams)
    io.write_manifest(
        args.out + ".json", command_line, [out_csv],
        params={"a": args.a, "nu": args.nu, "q": args.q, "lambdas": lams},
        states=[io.state_record(s) for s in states],
        summary={"monotone": mono["pass"], "violations": mono["violations"],
                 "identity_failures": failures})
    print(f"sweep: {len(states)} states, c_lambda monotone = {mono['pass']}")
    for f in failures:
        print(f"sweep: under-resolved state {f}", file=sys.stderr)
    return EXIT_OK if mono["pass"] and not failures else EXIT_NUMERICAL


_LIMITS_HEADER = ["lambda", "small_parameter", "sup_distance", "h1_distance",
                  "ratio_w", "ratio_u"]


def cmd_limits(args, command_line):
    out_csv = args.out + ".csv"
    io.check_clobber([out_csv, args.out + ".json"], args.force)
    lams = parse_lambdas(args.lambdas)
    toward_zero = args.side == "zero"
    if not all((lam < 1.0) if toward_zero else (lam > 1.0) for lam in lams):
        raise BadRange(f"--side {args.side} needs every lambda "
                       f"{'< 1' if toward_zero else '> 1'}, got {args.lambdas!r}")
    lams = sorted(lams, reverse=toward_zero)
    form, kind, _ = scaling.limit_regime(args.q, args.side)
    ref = solver.solve(scaling.limit_member(args.q, args.side), args.n)
    states = [solver.solve(scaling.normal_form(args.q, lam)[1], args.n)
              for lam in lams]
    study = scaling.limit_study(states, lams, args.side, ref)
    write_table_csv(out_csv, _LIMITS_HEADER, study.rows)
    failures = _failures_by_lambda(states, lams)
    if (fails := solver.acceptance_failures(ref)):
        failures.insert(0, {"reference": kind, "failures": fails})
    summary = asdict(study)
    del summary["rows"]
    io.write_manifest(
        args.out + ".json", command_line, [out_csv],
        params={"q": args.q, "side": args.side, "lambdas": lams,
                "form": form, "limit_kind": kind},
        reference=io.state_record(ref),
        states=[io.state_record(s) for s in states],
        summary={**summary, "identity_failures": failures})
    print(f"limits: limit={kind}, decreasing={study.distances_decreasing}, "
          f"final sup {study.rows[-1][2]:.3e} (<= 5% of "
          f"{ref.diagnostics.sup_u:.3e}: {study.final_sup_ok}), "
          f"ratios in window = {study.ratios_in_window}")
    for lam in study.zero_distance_lambdas:
        print(f"limits: the member at lambda {lam:g} equals the {kind} "
              f"profile to rounding (sup distance 0)", file=sys.stderr)
    for f in failures:
        print(f"limits: under-resolved state {f}", file=sys.stderr)
    return EXIT_OK if study.passed and not failures else EXIT_NUMERICAL


def cmd_spectrum(args, command_line):
    out_json = args.out + ".json"
    io.check_clobber([out_json], args.force)
    t0 = time.perf_counter()
    state = solver.solve(scaling.normal_form(args.q, args.lam)[1], args.n)
    solve_s = time.perf_counter() - t0
    report = linearized.nondegeneracy_report(state)
    io.write_manifest(out_json, command_line, **{
        "lambda": args.lam, "q": args.q, "state": io.state_record(state),
        "sectors": [{"k": e.k, "eigenvalues": e.eigenvalues,
                     "kernel_dimension": e.kernel_dimension,
                     "zero_mode_match": e.zero_mode_match,
                     "below_split": e.below_split,
                     "backward_error": e.backward_error,
                     "solves": e.solves, "factorizations": e.factorizations}
                    for e in report.sectors],
        "higher_sectors": report.higher_sectors,
        "timing": {"solve_s": solve_s,
                   "eigensolve_s": [e.seconds for e in report.sectors]},
        "split": -linearized.GAP_TOL,
        "verdict": report.verdict,
        "tolerances": {"zero_tol": report.zero_tol,
                       "gap_tol": linearized.GAP_TOL}})
    print(f"spectrum: verdict = {report.verdict} "
          f"(zero_tol {report.zero_tol:.3e}, gap_tol {linearized.GAP_TOL:.3e})")
    return EXIT_OK if report.verdict == "nondegenerate" else EXIT_NUMERICAL


def cmd_scan(args, command_line):
    out_json = args.out + ".json"
    io.check_clobber([out_json], args.force)
    params = _params(args, args.lam)
    res = solver.uniqueness_scan(params, args.starts, args.seed, args.n)
    io.write_manifest(out_json, command_line, params=asdict(params),
                      n_starts=args.starts, rng_seed=args.seed,
                      converged=res.converged, failed=res.failed,
                      distinct=len(res.distinct_states),
                      states=[io.state_record(s) for s in res.distinct_states])
    failures = [{"state": i, "failures": fails}
                for i, s in enumerate(res.distinct_states)
                if (fails := solver.acceptance_failures(s))]
    ok = len(res.distinct_states) == 1 and not failures
    print(f"scan: {res.converged} converged / {res.failed} failed, "
          f"{len(res.distinct_states)} distinct state(s)")
    for f in failures:
        print(f"scan: under-resolved state {f}", file=sys.stderr)
    return EXIT_OK if ok else EXIT_NUMERICAL


def cmd_check(args, command_line):
    state, manifest = io.load_state(args.out)
    rep = state.diagnostics
    stored = manifest["summary"]["diagnostics"]
    failures = []
    for key, val in asdict(rep).items():
        ref = stored.get(key)
        if ref is None or val is None:
            continue
        floor = rep.grad_sq if key in ("nehari", "pohozaev") else 1e-300
        if abs(val - ref) > CHECK_RTOL * max(abs(ref), abs(val), floor):
            failures.append((key, ref, val))
    failures += solver.acceptance_failures(state)
    if failures:
        for f in failures:
            print(f"check: mismatch {f}", file=sys.stderr)
        return EXIT_NUMERICAL
    print("check: artifacts consistent, identities within tolerance")
    return EXIT_OK


_COMMANDS = {"solve": cmd_solve, "sweep": cmd_sweep, "limits": cmd_limits,
             "spectrum": cmd_spectrum, "scan": cmd_scan, "check": cmd_check}


def main(argv=None) -> int:
    argv = list(sys.argv if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv[1:])
        return _COMMANDS[args.command](args, " ".join(argv))
    except (UsageError, BadRange, InvalidExponent) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (IoError,) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except SngsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


# once, at import: a freeze in `main` would pin whatever cyclic garbage a
# process calling `main` repeatedly had pending at each call
gc.freeze()

if __name__ == "__main__":
    sys.exit(main())
