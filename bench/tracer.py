"""Spans around the calls into each sngs layer, recorded from outside the package.

`install` replaces each named public function with a timing wrapper in every
`sngs` module namespace that binds it (solver, io and linearized import
Hartree and residual functions by name, scaling imports `interpolate`), and
wraps scipy's `lgmres`, which `newton_solve` falls back to.  A span is
(id, parent id, name, start, end, stats); spans stay in memory and are written
out when the job ends.  `aggregate` turns the spans of a pass into the
per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import sys
import threading
import time
from collections import Counter

LAYERS = {
    "cli": ("main",),
    "grid": ("interpolate", "write_field_csv", "read_field_csv"),
    "operators": ("radial_laplacian", "banded_lu", "gcr_solve", "dirichlet_form",
                  "smallest_eigenpairs"),
    "hartree": ("coulomb_apply", "hartree_potential"),
    "solver": ("newton_solve", "reference_profile", "continuation_path",
               "uniqueness_scan"),
    "diagnostics": ("identities",),
    "scaling": ("scale_state", "limit_study"),
    "linearized": ("sector_form", "sector_spectrum", "nondegeneracy_report",
                   "convention_map"),
    "io": ("save_state", "load_state"),
}
KRYLOV_FALLBACK = "solver.krylov_fallback"

# (metric, unit) reported per traced pass; a layer that does not run reads 0
METRICS = (
    ("cli.main.self_s", "s"),
    ("grid.interpolate.calls", "count"), ("grid.interpolate.s", "s"),
    ("grid.write_field_csv.s", "s"), ("grid.read_field_csv.s", "s"),
    ("grid.csv_bytes", "B"),
    ("operators.radial_laplacian.calls", "count"),
    ("operators.radial_laplacian.s", "s"),
    ("operators.radial_laplacian.hit_ratio", "ratio"),
    ("operators.banded_lu.calls", "count"), ("operators.banded_lu.s", "s"),
    ("operators.gcr_solve.calls", "count"), ("operators.gcr_solve.s", "s"),
    ("operators.gcr_solve.iters", "count"),
    ("operators.gcr_solve.converged_ratio", "ratio"),
    ("operators.dirichlet_form.s", "s"),
    ("operators.smallest_eigenpairs.calls", "count"),
    ("operators.smallest_eigenpairs.s", "s"),
    ("hartree.coulomb_apply.calls", "count"), ("hartree.coulomb_apply.s", "s"),
    ("hartree.hartree_potential.s", "s"),
    ("solver.newton_solve.calls", "count"), ("solver.newton_solve.s", "s"),
    ("solver.newton_solve.self_s", "s"), ("solver.newton_solve.iters", "count"),
    ("solver.newton_solve.converged_ratio", "ratio"),
    ("solver.krylov_fallback.calls", "count"), ("solver.krylov_fallback.s", "s"),
    ("solver.reference_profile.s", "s"), ("solver.continuation_path.s", "s"),
    ("solver.uniqueness_scan.s", "s"),
    ("diagnostics.identities.calls", "count"), ("diagnostics.identities.s", "s"),
    ("scaling.scale_state.s", "s"), ("scaling.limit_study.s", "s"),
    ("linearized.sector_form.s", "s"), ("linearized.sector_spectrum.s", "s"),
    ("linearized.nondegeneracy_report.s", "s"),
    ("linearized.convention_map.s", "s"),
    ("io.save_state.s", "s"), ("io.load_state.s", "s"),
)


class Recorder:
    """Spans of one job.  Each thread keeps its own stack of open spans; a
    span opened on an empty stack in a worker thread takes the innermost open
    span of the main thread as its parent."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, stats=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            opener = stack or self._main_stack
            parent = opener[-1] if opener else None
            span = next(self._ids)
            stack.append(span)
            result, ok = None, False
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                extra = stats(args, kwargs, result, ok) if stats else {}
                self.spans.append((span, parent, name, t0, t1, extra))
        return traced

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def _csv_bytes(args, kwargs, result, ok):
    path = kwargs.get("path", args[0] if args else None)
    return {"bytes": os.path.getsize(path)} if ok else {}


def _laplacian_hits():
    last = {}

    def stats(args, kwargs, result, ok):
        if not ok:
            return {}
        key = (args[0].key(), args[1:], tuple(sorted(kwargs.items())))
        hit = last.get(key) is result
        last[key] = result   # held so a reused id() cannot fake a hit
        return {"hit": hit}
    return stats


def _gcr_stats(fn):
    sig = inspect.signature(fn)

    def stats(args, kwargs, result, ok):
        if not ok:
            return {}
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        _, relres, iters = result
        return {"iters": int(iters),
                "converged": bool(relres <= bound.arguments["rtol"])}
    return stats


def _newton_stats(args, kwargs, result, ok):
    return {"iters": int(result.iterations), "converged": True} if ok else \
        {"converged": False}


def _stats_for(fname, fn):
    if fname in ("write_field_csv", "read_field_csv"):
        return _csv_bytes
    if fname == "radial_laplacian":
        return _laplacian_hits()
    if fname == "gcr_solve":
        return _gcr_stats(fn)
    if fname == "newton_solve":
        return _newton_stats
    return None


def install(recorder: Recorder):
    """Wrap the LAYERS functions of the already imported sngs package."""
    import scipy.sparse.linalg as spla

    modules = [m for name, m in list(sys.modules.items())
               if name == "sngs" or name.startswith("sngs.")]
    for layer, names in LAYERS.items():
        home = sys.modules.get(f"sngs.{layer}")
        for fname in names:
            orig = getattr(home, fname, None)
            if orig is None:   # the layer no longer has this function
                continue
            traced = recorder.wrap(f"{layer}.{fname}", orig,
                                   _stats_for(fname, orig))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, attr, traced)
    spla.lgmres = recorder.wrap(KRYLOV_FALLBACK, spla.lgmres)


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def aggregate(jobs_spans):
    """Per-layer metrics over the span lists of all jobs of one pass.

    `s` sums the spans of a function that are not nested in a span of the same
    function; `self_s` subtracts the time its child spans cover.
    """
    calls, incl, self_s, iters, converged, hits = (Counter() for _ in range(6))
    csv_bytes = 0
    for spans in jobs_spans:
        by_id = {s[0]: s for s in spans}
        children = {}
        for s in spans:
            children.setdefault(s[1], []).append((s[3], s[4]))
        for sid, parent, name, t0, t1, extra in spans:
            calls[name] += 1
            anc = by_id.get(parent)
            while anc is not None and anc[2] != name:
                anc = by_id.get(anc[1])
            if anc is None:
                incl[name] += t1 - t0
            self_s[name] += t1 - t0 - _covered(children.get(sid, ()))
            iters[name] += extra.get("iters", 0)
            converged[name] += bool(extra.get("converged"))
            hits[name] += bool(extra.get("hit"))
            csv_bytes += extra.get("bytes", 0)

    totals = {"calls": calls, "s": incl, "self_s": self_s, "iters": iters}
    ratios = {"converged_ratio": converged, "hit_ratio": hits}
    out = {}
    for metric, _ in METRICS:
        fn, _, stat = metric.rpartition(".")
        if stat in ratios:
            out[metric] = ratios[stat][fn] / calls[fn] if calls[fn] else 0.0
        elif stat in totals:
            out[metric] = totals[stat][fn]
        else:   # grid.csv_bytes
            out[metric] = csv_bytes
    return out
