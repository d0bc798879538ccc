"""Artifact persistence: CSV fields plus JSON run manifests.

A solve produces `<out>.csv` with columns r,u,v at 17 significant digits
(float64 round-trips exactly) and `<out>.json` with the manifest: parameters,
grid, code version, timestamps, outputs, tolerances and the summary (the
residual ratio with its rounding floor, iterations and diagnostics).
Re-running an identical configuration reproduces the CSV bit for bit.
`load_state` reads such a pair back and raises IoError, naming the file, on
artifacts that are not a solve's.
"""

from __future__ import annotations

import datetime
import json
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .errors import (BadRange, InvalidExponent, IoError, NonPositiveRadius,
                     TooFewNodes)
from .grid import EVEN, RadialField, make_grid, read_field_csv, write_field_csv
from .solver import GroundState, ModelParams, ground_state


@dataclass
class RunManifest:
    command_line: str
    params: dict
    grid: dict
    code_version: str
    created: str
    outputs: list
    summary: dict
    tolerances: dict = field(default_factory=dict)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(asdict(self), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _now():
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def check_clobber(paths, force: bool):
    if force:
        return
    for p in paths:
        if os.path.exists(p):
            raise IoError(f"{p} exists; pass --force to overwrite")


def manifest_for(state: GroundState, command_line: str, outputs,
                 tolerances=None, summary=None) -> RunManifest:
    d = state.diagnostics
    summary = {
        "residual_norm": state.residual_norm,
        "residual_floor": state.residual_floor,
        "iterations": state.iterations,
        "diagnostics": d.as_dict() if d is not None else None,
        **(summary or {}),
    }
    return RunManifest(
        command_line=command_line,
        params={"lam": state.params.lam, "a": state.params.a,
                "nu": state.params.nu, "q": state.params.q},
        grid={"r_max": state.grid.r_max, "n": state.grid.n},
        code_version=__version__,
        created=_now(),
        outputs=list(outputs),
        summary=summary,
        tolerances=dict(tolerances or {}),
    )


def save_state(state: GroundState, out_prefix: str, command_line: str = "",
               force: bool = False, tolerances=None, summary=None):
    """Write `<out_prefix>.csv` and its manifest; `summary` adds entries to
    the manifest's summary."""
    csv_path = out_prefix + ".csv"
    json_path = out_prefix + ".json"
    check_clobber([csv_path, json_path], force)
    write_field_csv(csv_path, state.grid,
                    {"u": state.u.values, "v": state.v.values})
    man = manifest_for(state, command_line, [csv_path, json_path],
                       tolerances, summary)
    man.write(json_path)
    return csv_path, json_path


def load_state(out_prefix: str) -> tuple[GroundState, dict]:
    """Rebuild a GroundState from artifacts through `solver.ground_state`:
    v, the residual and the diagnostics are recomputed from u, so the state
    is self-consistent regardless of file tampering."""
    csv_path = out_prefix + ".csv"
    json_path = out_prefix + ".json"
    for p in (csv_path, json_path):
        if not os.path.exists(p):
            raise IoError(f"missing artifact {p}")
    try:
        with open(json_path) as fh:
            manifest = json.load(fh)
        pd, summary = manifest["params"], manifest["summary"]
        params = ModelParams(lam=pd["lam"], a=pd["a"], nu=pd["nu"], q=pd["q"])
        iterations = int(summary["iterations"])
        if not isinstance(summary["diagnostics"], dict):
            raise TypeError("summary.diagnostics is not a table")
    except (KeyError, TypeError, ValueError, BadRange, InvalidExponent) as exc:
        raise IoError(f"{json_path} is not a solve manifest: {exc!r}") from exc
    try:
        r, cols = read_field_csv(csv_path)
        u = cols["u"]
        grid = make_grid(float(r[-1]), len(r))
    except (KeyError, IndexError, ValueError, NonPositiveRadius,
            TooFewNodes) as exc:
        raise IoError(f"{csv_path} is not a solve's field CSV: {exc!r}") from exc
    if not np.allclose(grid.nodes, r, rtol=0, atol=1e-12 * grid.r_max):
        raise IoError(f"{csv_path}: nodes are not a uniform grid")
    state = ground_state(RadialField(grid=grid, values=u, parity=EVEN), params,
                         iterations)
    return state, manifest

