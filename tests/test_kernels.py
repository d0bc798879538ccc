"""The compiled routines of `sngs.kernels` against the scipy calls they
replace: the path-loaded LAPACK routines and SuperLU's gstrf, the loader's
fallback, and the CSC array `operators._inertia` builds from a form's bands."""

import importlib
import importlib.machinery
import importlib.util

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


def spd_bands(rng, n, width):
    """Upper banded storage (width + 1 rows) of a seeded diagonally dominant
    symmetric positive definite matrix."""
    ab = rng.uniform(-1.0, 1.0, size=(width + 1, n))
    ab[-1] = 2.0 * (width + 1) + rng.uniform(0.0, 1.0, size=n)
    for k in range(1, width + 1):
        ab[width - k, :k] = 0.0
    return ab


def test_extensions_are_loaded_from_their_files():
    # under sngs's own names, not through a scipy package
    assert kernels._flapack.__name__ == "sngs.kernels._flapack"
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


def test_lapack_routines_equal_the_scipy_calls_they_replace():
    got, (ab, rhs, spd, d, e, B) = lapack_cases(kernels)
    # the Newton step and the warm start's solves called these very wrappers
    lu, piv, x, info = lapack.dgbsv(4, 4, ab.copy(order="F"), rhs.copy())
    assert info == got["dgbsv"][3] == 0
    assert all(same_bits(a, b) for a, b in zip(got["dgbsv"][:3], (lu, piv, x)))
    chol = sla.cholesky_banded(spd, check_finite=False)
    assert got["dpbtrf"][1] == 0 and same_bits(got["dpbtrf"][0], chol)
    x, info = lapack.dpbtrs(chol, rhs)
    assert info == got["dpbtrs"][1] == 0 and same_bits(got["dpbtrs"][0], x)
    # T's solve in `schur_apply` was solveh_banded's two-row case
    x = sla.solveh_banded([np.r_[0.0, e], d], B, check_finite=False)
    assert got["dptsv"][3] == 0 and same_bits(got["dptsv"][2], x)


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
    assert flapack is not kernels._flapack
    # the same compiled routines: the same bits
    fallback, _ = lapack_cases(flapack)
    loaded, _ = lapack_cases(kernels)
    for name in loaded:
        for a, b in zip(fallback[name], loaded[name]):
            assert same_bits(a, b), name
    form = oracles.bands_of(sp.diags([-np.ones(99), np.full(100, 2.0),
                                      -np.ones(99)], [-1, 0, 1]))
    rhs = np.random.default_rng(3).normal(size=100)
    lu_a, lu_b = (factor(m, form, np.ones(100), -0.5)
                  for m in (superlu, kernels._superlu))
    assert lu_a.U == lu_b.U and lu_a.L == lu_b.L
    assert same_bits(lu_a.solve(rhs), lu_b.solve(rhs))


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
