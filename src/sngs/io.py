"""Artifact persistence: CSV fields plus JSON run manifests.

Every JSON a subcommand writes goes through `write_manifest`: the header
(command line, code version, creation time, outputs) followed by the
command's own keys, among them one `state_record` per state it holds
(parameters, grid, and a summary of the residual ratio with its rounding
floor and bound, iterations, diagnostics and acceptance failures).
A solve produces `<out>.csv`, the state's grid nodes and its arrays u, v
as columns r,u,v at 17 significant digits (float64 round-trips exactly), and
`<out>.json`, whose body is the state's record plus the Newton tolerance.
Re-running an identical configuration reproduces the CSV bit for bit.  A
failed solve writes the JSON alone, its error in the summary and, when the
NonConvergence carries the GroundState of its last iterate, that state's
record under `state`.  `load_state` reads a solve's pair back and raises
IoError, naming the file, on artifacts that are not a solve's, and naming
the error on the manifest of a failed solve.
"""

from __future__ import annotations

import datetime
import json
import os
from dataclasses import asdict

import numpy as np

from . import __version__
from .errors import (BadRange, InvalidExponent, IoError, NonPositiveRadius,
                     TooFewNodes)
from .grid import make_grid, read_field_csv, write_field_csv
from .solver import (TOL, GroundState, ModelParams, acceptance_failures,
                     ground_state)


def check_clobber(paths, force: bool):
    if force:
        return
    for p in paths:
        if os.path.exists(p):
            raise IoError(f"{p} exists; pass --force to overwrite")


def state_record(state: GroundState) -> dict:
    """The one record of a solved state: what `load_state` and `check` read
    from a solve manifest, from the state's own diagnostics and
    `solver.acceptance_failures`."""
    return {"params": asdict(state.params),
            "grid": {"r_max": state.grid.r_max, "n": state.grid.n},
            "summary": {"residual_norm": state.residual_norm,
                        "residual_floor": state.residual_floor,
                        "residual_bound": state.residual_bound,
                        "iterations": state.iterations,
                        "diagnostics": asdict(state.diagnostics),
                        "identity_failures": acceptance_failures(state)}}


def write_manifest(path, command_line: str, outputs=(), **body):
    """The one JSON writer of the package: the header every artifact shares,
    then the command's `body`; indented, sorted keys, a final newline."""
    created = datetime.datetime.now(datetime.timezone.utc).isoformat()
    with open(path, "w") as fh:
        json.dump({"command_line": command_line, "code_version": __version__,
                   "created": created, "outputs": list(outputs), **body},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_state(state: GroundState, out_prefix: str, command_line: str = "",
               force: bool = False):
    """Write `<out_prefix>.csv` and its manifest: the state's record and
    the Newton tolerance."""
    csv_path = out_prefix + ".csv"
    json_path = out_prefix + ".json"
    check_clobber([csv_path, json_path], force)
    write_field_csv(csv_path, state.grid, {"u": state.u, "v": state.v})
    write_manifest(json_path, command_line, [csv_path, json_path],
                   **state_record(state), tolerances={"tol": TOL})
    return csv_path, json_path


def load_state(out_prefix: str) -> tuple[GroundState, dict]:
    """Rebuild a GroundState from artifacts through `solver.ground_state`:
    v, the residual and the diagnostics are recomputed from u, so the state
    is self-consistent regardless of file tampering."""
    csv_path = out_prefix + ".csv"
    json_path = out_prefix + ".json"
    if not os.path.exists(json_path):
        raise IoError(f"missing artifact {json_path}")
    try:
        with open(json_path) as fh:
            manifest = json.load(fh)
        pd, summary = manifest["params"], manifest["summary"]
        if summary.get("error"):
            raise IoError(f"{json_path} records a failed solve: "
                          f"{summary['error']}")
        params = ModelParams(lam=pd["lam"], a=pd["a"], nu=pd["nu"], q=pd["q"])
        iterations = int(summary["iterations"])
        if not isinstance(summary["diagnostics"], dict):
            raise TypeError("summary.diagnostics is not a table")
    except (AttributeError, KeyError, TypeError, ValueError, BadRange,
            InvalidExponent) as exc:
        raise IoError(f"{json_path} is not a solve manifest: {exc!r}") from exc
    if not os.path.exists(csv_path):
        raise IoError(f"missing artifact {csv_path}")
    try:
        r, cols = read_field_csv(csv_path)
        u = cols["u"]
        grid = make_grid(float(r[-1]), len(r))
    except (KeyError, IndexError, ValueError, NonPositiveRadius,
            TooFewNodes) as exc:
        raise IoError(f"{csv_path} is not a solve's field CSV: {exc!r}") from exc
    if not np.allclose(grid.nodes, r, rtol=0, atol=1e-12 * grid.r_max):
        raise IoError(f"{csv_path}: nodes are not a uniform grid")
    state = ground_state(grid, u, params, iterations)
    return state, manifest

