"""Artifact persistence: CSV fields plus JSON run manifests.

A solve produces `<out>.csv` with columns r,u,v at 17 significant digits
(float64 round-trips exactly) and `<out>.json` with the manifest: parameters,
grid, seed, code version, timestamps, outputs and the diagnostics summary.
Re-running an identical configuration reproduces the CSV bit for bit.
"""

from __future__ import annotations

import datetime
import json
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .errors import IoError
from .grid import EVEN, RadialField, make_grid, read_field_csv, write_field_csv
from .solver import GroundState, ModelParams, ground_state


@dataclass
class RunManifest:
    command_line: str
    params: dict
    grid: dict
    rng_seed: int
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


def manifest_for(state: GroundState, command_line: str, rng_seed: int,
                 outputs, tolerances=None, summary=None) -> RunManifest:
    d = state.diagnostics
    summary = {
        "residual_norm": state.residual_norm,
        "iterations": state.iterations,
        "diagnostics": d.as_dict() if d is not None else None,
        **(summary or {}),
    }
    return RunManifest(
        command_line=command_line,
        params={"lam": state.params.lam, "a": state.params.a,
                "nu": state.params.nu, "q": state.params.q},
        grid={"r_max": state.grid.r_max, "n": state.grid.n},
        rng_seed=rng_seed,
        code_version=__version__,
        created=_now(),
        outputs=list(outputs),
        summary=summary,
        tolerances=dict(tolerances or {}),
    )


def save_state(state: GroundState, out_prefix: str, command_line: str = "",
               rng_seed: int = 0, force: bool = False, tolerances=None,
               summary=None):
    """Write `<out_prefix>.csv` and its manifest; `summary` adds entries to
    the manifest's summary."""
    csv_path = out_prefix + ".csv"
    json_path = out_prefix + ".json"
    check_clobber([csv_path, json_path], force)
    write_field_csv(csv_path, state.grid,
                    {"u": state.u.values, "v": state.v.values})
    man = manifest_for(state, command_line, rng_seed, [csv_path, json_path],
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
    r, cols = read_field_csv(csv_path)
    with open(json_path) as fh:
        manifest = json.load(fh)
    pd = manifest["params"]
    params = ModelParams(lam=pd["lam"], a=pd["a"], nu=pd["nu"], q=pd["q"])
    grid = make_grid(float(r[-1]), len(r))
    if not np.allclose(grid.nodes, r, rtol=0, atol=1e-12 * grid.r_max):
        raise IoError(f"{csv_path}: nodes are not a uniform grid")
    u = RadialField(grid=grid, values=cols["u"], parity=EVEN)
    state = ground_state(u, params, int(manifest["summary"]["iterations"]))
    return state, manifest


def write_table_csv(path, header, rows, force=False):
    check_clobber([path], force)
    import csv as _csv
    with open(path, "w", newline="") as fh:
        w = _csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([f"{x:.17g}" if isinstance(x, float) else x for x in row])
