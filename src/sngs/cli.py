"""Command-line front end.

Subcommands: solve | sweep | limits | spectrum | scan | check.  Exit codes:
0 when every enabled verdict passes, 2 on numerical failure (partial manifest
still written where possible), 64 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace

import numpy as np

from . import __version__, diagnostics, io, linearized, scaling, solver
from .errors import (BadRange, InvalidExponent, IoError, NonConvergence,
                     SngsError, UsageError)
from .grid import make_grid, write_table_csv

EXIT_OK = 0
EXIT_NUMERICAL = 2
EXIT_USAGE = 64

# |Nehari|, |Pohozaev| <= IDENTITY_RTOL * G and the level identity
# <= IDENTITY_RTOL * |J|: the bound a state must meet to be accepted
IDENTITY_RTOL = 1e-6


class _Parser(argparse.ArgumentParser):
    """Usage errors raise UsageError; flags must be spelled out in full (an
    abbreviation would let spectrum's `--nu` stand for `--num-eigs`)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(message)


def parse_lambdas(spec: str):
    """'start:stop:log|lin:count' or a comma list of positive values."""
    try:
        if ":" in spec:
            parts = spec.split(":")
            if len(parts) != 4:
                raise BadRange(f"bad sweep spec {spec!r}")
            start, stop, kind, count = float(parts[0]), float(parts[1]), parts[2], int(parts[3])
            if count < 1 or start <= 0 or stop <= 0:
                raise BadRange(f"bad sweep spec {spec!r}")
            if kind == "log":
                return list(np.geomspace(start, stop, count))
            if kind == "lin":
                return list(np.linspace(start, stop, count))
            raise BadRange(f"unknown spacing {kind!r}")
        vals = [float(tok) for tok in spec.split(",") if tok]
        if not vals or any(v <= 0 for v in vals):
            raise BadRange(f"bad lambda list {spec!r}")
        return vals
    except ValueError as exc:
        raise BadRange(f"bad sweep spec {spec!r}: {exc}") from exc


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


def _rmax(text):
    """argparse type: 'auto' or a positive finite radius."""
    return text if text == "auto" else _positive(text)


def build_parser():
    p = _Parser(prog="sngs", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    optional = {"--a": dict(type=float, default=1.0),
                "--nu": dict(type=float, default=1.0),
                "--rmax": dict(type=_rmax, default="auto"),
                "--seed": dict(type=int, default=0)}

    def common(sp, *flags):
        """The flags every solving subcommand takes, plus those of `flags`
        (keys of `optional`); the others are usage errors."""
        sp.add_argument("--q", type=float, required=True)
        for flag in flags:
            sp.add_argument(flag, **optional[flag])
        sp.add_argument("--n", type=_int_from(16), default=4096)
        sp.add_argument("--tol", type=float, default=1e-10)
        sp.add_argument("--out", required=True)
        sp.add_argument("--force", action="store_true")

    sp = sub.add_parser("solve", help="one ground state")
    common(sp, "--a", "--nu", "--rmax")
    sp.add_argument("--lambda", dest="lam", type=_positive, required=True)

    sp = sub.add_parser("sweep", help="lambda sweep with c_lambda monotonicity verdict")
    common(sp, "--a", "--nu", "--rmax")
    sp.add_argument("--lambdas", required=True)

    sp = sub.add_parser("limits", help="scaling-limit distances to W or U")
    common(sp, "--rmax")
    sp.add_argument("--lambdas", required=True)
    sp.add_argument("--side", choices=["zero", "infinity"], required=True)

    sp = sub.add_parser("spectrum", help="sector spectra and nondegeneracy verdict")
    common(sp)
    sp.add_argument("--lambda", dest="lam", type=_positive, required=True)
    sp.add_argument("--k-max", dest="k_max", type=_int_from(2), default=3)
    sp.add_argument("--num-eigs", dest="num_eigs", type=_int_from(1), default=6)

    sp = sub.add_parser("scan", help="multi-start uniqueness scan")
    common(sp, "--a", "--nu", "--rmax", "--seed")
    sp.add_argument("--lambda", dest="lam", type=_positive, required=True)
    sp.add_argument("--starts", type=_int_from(2), default=20)

    sp = sub.add_parser("check", help="re-derive diagnostics from artifacts")
    sp.add_argument("--out", required=True)
    sp.add_argument("--tol", type=float, default=1e-6)
    return p


def _grid_for(args, lam: float):
    rmax = solver.auto_rmax(lam) if args.rmax == "auto" else args.rmax
    return make_grid(rmax, args.n)


def _solve_one(args, lam: float, grid=None):
    params = solver.ModelParams(lam=lam, a=args.a, nu=args.nu, q=args.q)
    grid = grid or _grid_for(args, lam)
    opts = solver.SolverOptions(tol=args.tol)
    return solver.newton_solve(solver.default_guess(params, grid), params, opts)


def identity_failures(rep) -> list:
    """(name, value, value) for each variational identity the diagnostics
    `rep` of a state miss by more than IDENTITY_RTOL; empty when it passes."""
    failures = []
    G = rep.grad_sq
    if abs(rep.nehari) > IDENTITY_RTOL * G or abs(rep.pohozaev) > IDENTITY_RTOL * G:
        failures.append(("identity_residuals", rep.nehari, rep.pohozaev))
    if rep.level_identity_residual is not None and rep.J and \
            rep.level_identity_residual > IDENTITY_RTOL * abs(rep.J):
        failures.append(("level_identity", rep.level_identity_residual, None))
    return failures


def cmd_solve(args, argv):
    io.check_clobber([args.out + ".csv", args.out + ".json"], args.force)
    try:
        state = _solve_one(args, args.lam)
    except NonConvergence as exc:
        man = io.RunManifest(
            command_line=" ".join(argv), params={"lam": args.lam, "a": args.a,
                                                 "nu": args.nu, "q": args.q},
            grid={"r_max": None, "n": args.n},
            code_version=__version__, created=io._now(), outputs=[],
            summary={"error": str(exc), "residual_norm": exc.residual_norm,
                     "iterations": exc.iterations})
        man.write(args.out + ".json")
        print(f"solve: no convergence ({exc})", file=sys.stderr)
        return EXIT_NUMERICAL
    failures = identity_failures(state.diagnostics)
    io.save_state(state, args.out, " ".join(argv), args.force,
                  tolerances={"tol": args.tol},
                  summary={"identity_failures": failures})
    d = state.diagnostics
    print(f"solve: converged in {state.iterations} iterations, "
          f"residual {state.residual_norm:.3e}, J = {d.J:.12g}")
    for f in failures:
        print(f"solve: under-resolved state {f}", file=sys.stderr)
    return EXIT_NUMERICAL if failures else EXIT_OK


_SWEEP_HEADER = ["lambda", "J", "grad_sq", "l2_sq", "lq", "D", "sup_u", "sup_v",
                 "M", "nehari", "pohozaev", "residual_norm", "iterations"]


def cmd_sweep(args, argv):
    out_csv = args.out + ".csv"
    io.check_clobber([out_csv, args.out + ".json"], args.force)
    lams = sorted(parse_lambdas(args.lambdas))
    params0 = solver.ModelParams(lam=lams[0], a=args.a, nu=args.nu, q=args.q)
    grid0 = _grid_for(args, lams[0])
    opts = solver.SolverOptions(tol=args.tol)
    first = solver.newton_solve(solver.default_guess(params0, grid0), params0, opts)
    states = [first]
    for lam in lams[1:]:
        states.append(solver.continuation_path(states[-1], lam, opts))
    rows = []
    for s in states:
        d = s.diagnostics
        rows.append([s.params.lam, d.J, d.grad_sq, d.l2_sq, d.lq, d.D, d.sup_u,
                     d.sup_v, d.M, d.nehari, d.pohozaev, s.residual_norm,
                     s.iterations])
    write_table_csv(out_csv, _SWEEP_HEADER, rows)
    mono = diagnostics.monotonicity_check([(s.params.lam, s.diagnostics.J)
                                           for s in states])
    failures = [{"lambda": s.params.lam, "failures": fails} for s in states
                if (fails := identity_failures(s.diagnostics))]
    man = io.RunManifest(
        command_line=" ".join(argv),
        params={"a": args.a, "nu": args.nu, "q": args.q, "lambdas": lams},
        grid={"n": args.n, "r_max": "auto-per-lambda"},
        code_version=__version__, created=io._now(),
        outputs=[out_csv], summary={"monotone": mono["pass"],
                                    "violations": mono["violations"],
                                    "identity_failures": failures})
    man.write(args.out + ".json")
    print(f"sweep: {len(states)} states, c_lambda monotone = {mono['pass']}")
    for f in failures:
        print(f"sweep: under-resolved state {f}", file=sys.stderr)
    return EXIT_OK if mono["pass"] and not failures else EXIT_NUMERICAL


_LIMITS_HEADER = ["lambda", "small_parameter", "sup_distance", "h1_distance",
                  "ratio_w", "ratio_u"]


def cmd_limits(args, argv):
    out_csv = args.out + ".csv"
    io.check_clobber([out_csv, args.out + ".json"], args.force)
    lams = parse_lambdas(args.lambdas)
    lams = sorted(lams, reverse=(args.side == "zero"))
    form, kind = scaling.limit_regime(args.q, args.side)
    ref_grid = make_grid(solver.auto_rmax(1.0), args.n)
    q_ref = args.q if kind == scaling.KWONG else None
    ref = solver.reference_profile(kind, ref_grid, q=q_ref)
    opts = solver.SolverOptions(tol=args.tol)
    states = []
    for lam in lams:
        params = solver.ModelParams(lam=lam, a=1.0, nu=1.0, q=args.q)
        grid = _grid_for(args, lam)
        states.append(solver.newton_solve(solver.default_guess(params, grid),
                                          params, opts))
    report = scaling.limit_study(states, args.side, ref)
    rows = [list(row) + [r1, r2]
            for row, (_, r1, r2) in zip(report.rows, report.mass_ratios)]
    write_table_csv(out_csv, _LIMITS_HEADER, rows)
    decreasing = report.distances_decreasing()
    final_sup = report.rows[-1][2]
    close = final_sup <= 0.05 * ref.sup_u()
    ok = decreasing and close and report.ratios_in_window
    man = io.RunManifest(
        command_line=" ".join(argv),
        params={"q": args.q, "side": args.side, "lambdas": lams,
                "form": form, "limit_kind": kind},
        grid={"n": args.n, "r_max": "auto-per-lambda"},
        code_version=__version__, created=io._now(),
        outputs=[out_csv],
        summary={"regime": report.regime,
                 "distances_decreasing": decreasing, "final_sup_ok": close,
                 "ratios_in_window": report.ratios_in_window})
    man.write(args.out + ".json")
    print(f"limits: limit={kind}, decreasing={decreasing}, "
          f"final sup {final_sup:.3e} (<= 5% of {ref.sup_u():.3e}: {close}), "
          f"ratios in window = {report.ratios_in_window}")
    return EXIT_OK if ok else EXIT_NUMERICAL


def normalized_state_for_spectrum(q: float, lam: float, n: int,
                                  tol: float = 1e-10):
    """Solve the section-6 normalized family member equivalent to the
    (lam, 1, 1, q) state: mu- or nu-form by regime, then the a=2 convention."""
    side = "zero" if lam < 1.0 else "infinity"
    form, _ = scaling.limit_regime(q, side)
    _, params = scaling.normal_form(q, lam, form)
    grid = make_grid(solver.auto_rmax(params.lam), n)
    state = solver.newton_solve(solver.default_guess(params, grid), params,
                                solver.SolverOptions(tol=tol))
    return linearized.convention_map(state, "to_a2"), params


def cmd_spectrum(args, argv):
    out_json = args.out + ".json"
    io.check_clobber([out_json], args.force)
    a2_state, base_params = normalized_state_for_spectrum(
        args.q, args.lam, args.n, args.tol)
    report = linearized.nondegeneracy_report(a2_state, args.k_max,
                                             num_eigs=args.num_eigs)
    # convention check: the correct pair halves the potential; keeping the
    # unscaled potential 2v in the first equation, -2 (2v) u, is the
    # residual at coupling a = 4 and leaves an O(1) ratio
    unscaled = solver.ground_state(a2_state.u, replace(a2_state.params, a=4.0),
                                   a2_state.iterations)
    convention_check = {
        "mapped_pair_residual": a2_state.residual_norm,
        "paper_displayed_pair_first_eq_residual": unscaled.residual_norm,
        "note": "the doubled-coupling ground state is (u/sqrt2, v/2); the "
                "displayed pair with v unscaled does not satisfy the system "
                "(suspected typo) -- the potential must be halved",
    }
    payload = {
        "lambda": args.lam, "q": args.q,
        "normalized_params": {"lam": base_params.lam, "a": base_params.a,
                              "nu": base_params.nu, "q": base_params.q},
        "grid": {"r_max": a2_state.grid.r_max, "n": args.n},
        "sectors": [{"k": e.k, "eigenvalues": e.eigenvalues,
                     "kernel_dimension": e.kernel_dimension,
                     "zero_mode_match": e.zero_mode_match,
                     "below_split": e.below_split,
                     "backward_error": e.backward_error,
                     "solves": e.solves, "factorizations": e.factorizations}
                    for e in report.sectors],
        "timing": {"eigensolve_s": [e.seconds for e in report.sectors]},
        "split": -linearized.GAP_TOL,
        "verdict": report.verdict,
        "tolerances": {"zero_tol": report.zero_tol,
                       "gap_tol": linearized.GAP_TOL},
        "convention_check": convention_check,
        "code_version": __version__,
        "command_line": " ".join(argv),
    }
    with open(out_json, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"spectrum: verdict = {report.verdict} "
          f"(zero_tol {report.zero_tol:.3e}, gap_tol {linearized.GAP_TOL:.3e})")
    return EXIT_OK if report.verdict == "nondegenerate" else EXIT_NUMERICAL


def cmd_scan(args, argv):
    out_json = args.out + ".json"
    io.check_clobber([out_json], args.force)
    params = solver.ModelParams(lam=args.lam, a=args.a, nu=args.nu, q=args.q)
    grid = _grid_for(args, args.lam)
    res = solver.uniqueness_scan(params, args.starts, args.seed, grid=grid)
    payload = {
        "params": {"lam": args.lam, "a": args.a, "nu": args.nu, "q": args.q},
        "n_starts": args.starts, "rng_seed": args.seed,
        "converged": res.converged, "failed": res.failed,
        "distinct": len(res.distinct_states),
        "sup_norms": [s.sup_u() for s in res.distinct_states],
        "code_version": __version__, "command_line": " ".join(argv),
    }
    with open(out_json, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"scan: {res.converged} converged / {res.failed} failed, "
          f"{len(res.distinct_states)} distinct state(s)")
    return EXIT_OK if len(res.distinct_states) == 1 else EXIT_NUMERICAL


def cmd_check(args, argv):
    state, manifest = io.load_state(args.out)
    rep = state.diagnostics
    stored = manifest["summary"]["diagnostics"]
    tol = args.tol
    failures = []
    for key, val in rep.as_dict().items():
        ref = stored.get(key)
        if ref is None or val is None:
            continue
        scale = max(abs(ref), abs(val), 1e-300)
        if abs(val - ref) > tol * scale:
            failures.append((key, ref, val))
    # the rounding level of F where it lies above tol, as in newton_solve
    tol_solve = manifest.get("tolerances", {}).get("tol", 1e-10)
    if state.residual_norm > 10 * max(tol_solve, state.residual_floor):
        failures.append(("residual_norm",
                         manifest["summary"].get("residual_norm"),
                         state.residual_norm))
    failures += identity_failures(rep)
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
        return _COMMANDS[args.command](args, argv)
    except (UsageError, BadRange, InvalidExponent) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (IoError,) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except SngsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
