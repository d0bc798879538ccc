"""The compiled routines of `sngs.kernels` against the scipy calls they
replace: the LAPACK routines from numpy's OpenBLAS and their _flapack
fallback, SuperLU's gstrf loaded on first use, the loader's fallback to
scipy's imports, the libraries a fresh process maps, and the CSC array
`operators._inertia` builds from a form's bands."""

import ctypes
import importlib
import importlib.machinery
import importlib.util
import os
from pathlib import Path
import subprocess
import sys
import types

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.linalg.lapack as lapack
import scipy.sparse as sp

import oracles
import sngs
from sngs import kernels, operators
from sngs.linearized import GAP_TOL, sector_form


def same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return (x.shape == y.shape and x.dtype == y.dtype
            and x.tobytes() == y.tobytes())


def same_values(x, y):
    """Equal bits for floats, equal values for integers of any width (the
    pivots of an ILP64 LAPACK are int64, f2py's int32)."""
    x, y = np.asarray(x), np.asarray(y)
    if x.dtype.kind == y.dtype.kind == "i":
        return x.shape == y.shape and np.array_equal(x, y)
    return same_bits(x, y)


def spd_bands(rng, n, width):
    """Upper banded storage (width + 1 rows) of a seeded diagonally dominant
    symmetric positive definite matrix."""
    ab = rng.uniform(-1.0, 1.0, size=(width + 1, n))
    ab[-1] = 2.0 * (width + 1) + rng.uniform(0.0, 1.0, size=n)
    for k in range(1, width + 1):
        ab[width - k, :k] = 0.0
    return ab


def test_extensions_are_loaded_from_their_files(monkeypatch):
    # under sngs's own names, not through a scipy package; _superlu only
    # once gstrf is called
    monkeypatch.setattr(kernels, "_superlu", None)
    assert kernels._extension("linalg", "_flapack").__name__ == \
        "sngs.kernels._flapack"
    with pytest.raises(TypeError):
        kernels.gstrf()
    assert kernels._superlu.__name__ == "sngs.kernels._superlu"


def lapack_cases(flapack):
    """The four routines of a _flapack module on seeded systems."""
    rng = np.random.default_rng(31)
    n = 257
    ab = np.zeros((13, n), order="F")
    ab[4:] = rng.uniform(-1.0, 1.0, size=(9, n))
    ab[8] += 12.0
    rhs = rng.normal(size=n)
    out = {"dgbsv": flapack.dgbsv(4, 4, ab.copy(order="F"), rhs.copy())}
    spd = spd_bands(rng, n, 2)
    out["dpbtrf"] = flapack.dpbtrf(spd)
    out["dpbtrs"] = flapack.dpbtrs(out["dpbtrf"][0], rhs)
    d, e = 4.0 + rng.uniform(size=n), rng.uniform(-1.0, 1.0, size=n - 1)
    B = rng.normal(size=(n, 3))
    out["dptsv"] = flapack.dptsv(d, e, B)
    return out, (ab, rhs, spd, d, e, B)


def assert_equal_to_scipy(routines):
    """The four routines of `routines` give the values of scipy's calls on
    `lapack_cases`, floats bit for bit, and leave their inputs as they were."""
    got, (ab, rhs, spd, d, e, B) = lapack_cases(routines)
    inputs = [a.copy() for a in (ab, rhs, spd, d, e, B)]
    # the Newton step and the warm start's solves called these very wrappers
    lu, piv, x, info = lapack.dgbsv(4, 4, ab.copy(order="F"), rhs.copy())
    assert info == got["dgbsv"][3] == 0
    assert all(same_values(a, b)
               for a, b in zip(got["dgbsv"][:3], (lu, piv, x)))
    chol = sla.cholesky_banded(spd, check_finite=False)
    assert got["dpbtrf"][1] == 0 and same_bits(got["dpbtrf"][0], chol)
    x, info = lapack.dpbtrs(chol, rhs)
    assert info == got["dpbtrs"][1] == 0 and same_bits(got["dpbtrs"][0], x)
    # T's solve in `schur_apply` was solveh_banded's two-row case
    x = sla.solveh_banded([np.r_[0.0, e], d], B, check_finite=False)
    assert got["dptsv"][3] == 0 and same_bits(got["dptsv"][2], x)
    d_out, e_out = lapack.dptsv(d, e, B)[:2]
    assert same_bits(got["dptsv"][0], d_out)
    assert same_bits(got["dptsv"][1], e_out)
    assert all(same_bits(a, b)
               for a, b in zip(inputs, (ab, rhs, spd, d, e, B)))


def test_lapack_routines_equal_the_scipy_calls_they_replace():
    if not isinstance(kernels._routines, kernels._ILP64Lapack):
        pytest.skip("numpy bundles no ILP64 OpenBLAS here")
    assert_equal_to_scipy(kernels._routines)


@pytest.mark.parametrize("failure", ["no library", "no symbol"])
def test_flapack_fallback_gives_the_same_bits(monkeypatch, failure):
    found = None if failure == "no library" else types.SimpleNamespace()
    monkeypatch.setattr(kernels, "_openblas", lambda: found)
    fallback = kernels._lapack()
    assert fallback.__name__ == "sngs.kernels._flapack"
    assert_equal_to_scipy(fallback)
    ours, _ = lapack_cases(kernels)
    theirs, _ = lapack_cases(fallback)
    for name in ours:
        assert all(same_values(a, b) for a, b in zip(ours[name], theirs[name]))


def test_lapack_wrappers_refuse_a_bad_call():
    if not isinstance(kernels._routines, kernels._ILP64Lapack):
        pytest.skip("numpy bundles no ILP64 OpenBLAS here")
    ab = np.zeros((13, 20), order="F")
    with pytest.raises(ValueError):
        kernels.dgbsv(4, 4, ab, np.ones(19))     # b too short
    with pytest.raises(ValueError):
        kernels.dgbsv(-1, 14, ab, np.ones(20))   # bands that do not exist
    with pytest.raises(ValueError):
        kernels.dptsv(np.ones(5), np.ones(5), np.ones(5))
    with pytest.raises(ctypes.ArgumentError):   # argtypes: int64 pivots
        kernels._routines._gbsv(None, None, None, None, ab, None,
                                np.zeros(20, dtype=np.int32), None, None,
                                None)


def test_gstrf_loads_superlu_once_on_its_first_call(monkeypatch):
    real, loads = kernels._extension, []

    def extension(package, name):
        loads.append((package, name))
        return real(package, name)
    monkeypatch.setattr(kernels, "_extension", extension)
    monkeypatch.setattr(kernels, "_superlu", None)
    form = oracles.bands_of(sp.diags([-np.ones(9), np.full(10, 2.0),
                                      -np.ones(9)], [-1, 0, 1]))
    for _ in range(2):
        lu, negative, _ = operators._inertia(form, np.ones(10), -0.5)
        assert negative == 0
    assert loads == [("sparse.linalg._dsolve", "_superlu")]


def factor(superlu, form, mass, tau):
    """SuperLU's factorization of form - tau M through `superlu`."""
    data, indices, indptr = operators._shifted_csc(form, mass, tau)
    return superlu.gstrf(len(form.diag), len(data), data, indices, indptr,
                         csc_construct_func=operators._factor_summary,
                         ilu=False,
                         options=dict(DiagPivotThresh=0.0,
                                      ColPerm="MMD_AT_PLUS_A", PanelSize=1,
                                      Relax=None, SymmetricMode=True))


@pytest.mark.parametrize("failure", ["file not found", "load fails"])
def test_loader_falls_back_to_scipy_imports(monkeypatch, failure):
    loaded = (kernels._extension("linalg", "_flapack"),
              kernels._extension("sparse.linalg._dsolve", "_superlu"))
    if failure == "file not found":
        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [])
    else:
        def refuse(*args, **kwargs):
            raise ImportError("refused")
        monkeypatch.setattr(importlib.util, "spec_from_file_location", refuse)
    flapack = kernels._extension("linalg", "_flapack")
    superlu = kernels._extension("sparse.linalg._dsolve", "_superlu")
    monkeypatch.undo()
    assert flapack is importlib.import_module("scipy.linalg._flapack")
    assert superlu is importlib.import_module(
        "scipy.sparse.linalg._dsolve._superlu")
    assert flapack is not loaded[0] and superlu is not loaded[1]
    # the same compiled routines: the same bits
    fallback, _ = lapack_cases(flapack)
    from_file, _ = lapack_cases(loaded[0])
    for name in from_file:
        for a, b in zip(fallback[name], from_file[name]):
            assert same_bits(a, b), name
    form = oracles.bands_of(sp.diags([-np.ones(99), np.full(100, 2.0),
                                      -np.ones(99)], [-1, 0, 1]))
    rhs = np.random.default_rng(3).normal(size=100)
    lu_a, lu_b = (factor(m, form, np.ones(100), -0.5)
                  for m in (superlu, loaded[1]))
    assert lu_a.U == lu_b.U and lu_a.L == lu_b.L
    assert same_bits(lu_a.solve(rhs), lu_b.solve(rhs))


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads /proc/self/maps")
def test_only_spectrum_maps_a_scipy_library(tmp_path):
    # the script CI runs: solve, check and limits map no scipy file, and
    # spectrum only _superlu and what it links, scipy's OpenBLAS among them
    src = str(Path(sngs.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    script = str(Path(__file__).with_name("scipy_maps.py"))
    proc = subprocess.run([sys.executable, script], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    if proc.returncode == 3:
        pytest.skip(proc.stdout.strip())
    assert proc.returncode == 0, proc.stderr


@pytest.fixture(scope="module")
def three_states(solved_cache):
    """A Choquard-side and a Kwong-side normal-form member, and a state of
    the pure power case (a = 0, a pair form with a zero coupling)."""
    return [sngs.solve(sngs.normal_form(4.0, 1e-2)[1], 1024),
            sngs.solve(sngs.normal_form(2.5, 1e2)[1], 1024),
            solved_cache(1.0, 0.0, 1.0, 4.0, n=1536, rmax=30.0)]


def test_superlu_input_and_factors_equal_splu(three_states):
    rng = np.random.default_rng(7)
    for state in three_states:
        for k in (0, 1):
            op = sector_form(state, k)
            old = oracles.sector_form_csr(state, k)
            data, indices, indptr = operators._shifted_csc(op.form, op.mass,
                                                           -GAP_TOL)
            ref = oracles.shifted_csc(old, op.mass, -GAP_TOL)
            assert ref.has_canonical_format
            assert same_bits(data, ref.data)
            assert np.array_equal(indices, ref.indices)
            assert np.array_equal(indptr, ref.indptr)
            lu, negative, fill = operators._inertia(op.form, op.mass, -GAP_TOL)
            lu_ref, negative_ref, fill_ref = oracles.splu_inertia(
                old, op.mass, -GAP_TOL)
            assert (negative, fill) == (negative_ref, fill_ref)
            assert np.array_equal(lu.perm_r, lu_ref.perm_r)
            assert np.array_equal(lu.perm_c, lu_ref.perm_c)
            rhs = rng.normal(size=lu.shape[0])
            assert same_bits(lu.solve(rhs), lu_ref.solve(rhs))


def test_csc_drops_the_exact_zeros_scipy_drops():
    # a diagonal entry the shift cancels exactly, and a zero stored in a band
    m = 40
    rng = np.random.default_rng(11)
    mass = rng.uniform(0.5, 2.0, size=m)
    diag = 4.0 + rng.uniform(size=m)
    diag[::3] = 2.0 * mass[::3]
    off = -rng.uniform(0.5, 1.0, size=m - 1)
    off[5] = 0.0
    form = operators.SymmetricBands(diag, {1: off, 3: rng.normal(size=m - 3)})
    C = oracles.csr_of(form)
    C.eliminate_zeros()
    for tau in (2.0, 0.0, -1.5):
        data, indices, indptr = operators._shifted_csc(form, mass, tau)
        ref = oracles.shifted_csc(C, mass, tau)
        assert same_bits(data, ref.data)
        assert np.array_equal(indices, ref.indices)
        assert np.array_equal(indptr, ref.indptr)
    assert len(oracles.shifted_csc(C, mass, 2.0).data) < C.nnz
