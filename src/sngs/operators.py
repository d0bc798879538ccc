"""Discrete radial Laplacian, symmetric quadratic forms, and eigen/linear solves.

The operator is the 5-point fourth-order discretization of
-Delta_r = -d^2/dr^2 - (2/r) d/dr with

  * row 0: the origin limit -3 u''(0) for even profiles,
  * row 1: the centered stencil folded through the origin by parity,
  * rows 2 .. n-3: full centered stencils,
  * rows n-2, n-1: Dirichlet identity rows (a two-node pad so every interior
    row keeps the full stencil).

Weighted by the r^2 dr quadrature the interior entries become
c_k * r_i * r_{i+k} / h, so the weighted operator is exactly symmetric; this
is what makes the matrix-free Jacobian self-adjoint in the r^2-weighted inner
product and the sector forms symmetric to round-off.  Those weighted bands
(`_weighted_bands`) are the one source of the stencil, and `origin_row` the
one source of row 0: `dirichlet_form` restricts the bands to the active
nodes, `radial_laplacian` divides them by the weight of their row, and a
Newton solve (`solver.newton_solve`) reads its warm-start Cholesky and its
step's fixed entries from them directly, beside the one CSR -Delta_r its
residual needs.  All are assembled on every call, without a cache (under
1 ms at n=4096).

The eigensolver is inertia-sliced shift-invert Lanczos, and every
factorization it uses is one symmetric no-pivot LDL^T (`_inertia`), which also
counts the pencil eigenvalues below its shift (Sylvester's law of inertia).
The count at a split point says how many eigenvalues lie below it; all of
those come from a shift-invert call at a lower bound of the spectrum, whose
count of zero certifies the bound, and as many as the caller asks for just
above the split from a call at the split itself; the count at the split
checks that none went missing.  The call at the split runs first, on the
factorization that counted, which is released before the lower bound is
factored, so at most one LDL^T is alive at a time.  ARPACK runs on the
standard-form matrix D A D, D = M^(-1/2), so each Lanczos step is one solve
through the LDL^T and no mass product, and it stops at the relative accuracy
BACKWARD_TOL = 1e-12 that the certificate asks for.  Every returned eigenpair
is then held to a normwise backward error of 1e-12, computed once and
returned with the pairs; a pair over it is refined, after both calls, by one
inverse iteration through `_inertia` just above its eigenvalue.  A mass
shorter than the form eliminates its trailing block (`schur_apply`,
Haynsworth).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import FactorizationFailure, TooManyRequested
from .grid import EVEN, RadialGrid

def _weighted_bands(grid: RadialGrid, parity: str):
    """Main band and the two upper bands of W * (-Delta_r) on rows 1 .. n-3.

    The one definition of the stencil.  Entry (i, i+k) is the single
    expression c_k * r_i * r_{i+k} / h with c = (30, -16, 1) / 12, so the
    weighted operator is symmetric in floating point.  The main band carries
    the parity fold of row 1 through the origin (r_{-1} = -h); the last
    entries of the upper bands couple row n-3 into the Dirichlet pad.
    """
    n, h, r = grid.n, grid.h, grid.nodes
    ra = r[1:n - 2]
    diag = (30.0 / 12.0) * ra * ra / h
    fold = r[1] * (-h) / (12.0 * h)
    diag[0] += fold if parity == EVEN else -fold
    up1 = -(16.0 / 12.0) * ra * r[2:n - 1] / h
    up2 = (1.0 / 12.0) * ra * r[3:] / h
    return diag, up1, up2


def origin_row(grid: RadialGrid):
    """(a00, a01, a02), row 0 of -Delta_r on nodes 0, 1, 2: the origin limit
    -Delta u(0) = -3 u''(0), u'' from the even 5-point stencil."""
    c = 3.0 / (12.0 * grid.h * grid.h)
    return 30.0 * c, -32.0 * c, 2.0 * c


def radial_laplacian(grid: RadialGrid) -> sp.csr_matrix:
    """-Delta_r as an (n, n) sparse operator with the row layout above: the
    weighted bands of even parity divided by the r^2 dr weight of their row,
    under `origin_row`."""
    n = grid.n
    w = grid.weights_r2dr[1:n - 2]
    diag, up1, up2 = _weighted_bands(grid, EVEN)
    a00, a01, a02 = origin_row(grid)
    return sp.diags(
        [np.r_[0.0, up2[:-2] / w[2:], 0.0, 0.0],   # (2, 0) carries r_0 = 0
         np.r_[0.0, up1[:-1] / w[1:], 0.0, 0.0],   # so does (1, 0)
         np.r_[a00, diag / w, 1.0, 1.0],
         np.r_[a01, up1 / w, 0.0],
         np.r_[a02, up2 / w]],
        [-2, -1, 0, 1, 2], shape=(n, n), format="csr")


def active_slice(grid: RadialGrid) -> np.ndarray:
    """Indices of the unconstrained nodes: 1 .. n-3 (origin is slaved, the last
    two nodes are the Dirichlet pad)."""
    return np.arange(1, grid.n - 2)


def dirichlet_form(grid: RadialGrid, parity: str = EVEN) -> sp.csr_matrix:
    """Exactly symmetric weighted form S = W * (-Delta_r) on the active nodes.

    The weighted bands restricted to the active set: couplings into node 0
    vanish identically (they carry a factor r_0 = 0) and couplings into the
    Dirichlet pad are dropped.
    """
    diag, up1, up2 = _weighted_bands(grid, parity)
    off1, off2 = up1[:-1], up2[:-2]
    return sp.diags([off2, off1, diag, off1, off2], [-2, -1, 0, 1, 2], format="csr")


def grad_sq_pairing(grid: RadialGrid, A: sp.csr_matrix, values: np.ndarray) -> float:
    """<A u, u> in the r^2 dr weights: the discrete Dirichlet energy /(4 pi).

    Fourth-order quadrature of the radial integral of u'(r)^2 r^2 for decaying
    fields; tiny negative round-off is clipped.
    """
    val = float(np.dot(grid.weights_r2dr, (A @ values) * values))
    return max(val, 0.0)


# -- the one factorization and the eigensolve ----------------------------------


def count_below(form: sp.spmatrix, mass: np.ndarray, tau: float) -> int:
    """Number of eigenvalues of form x = sigma * mass * x below tau."""
    return _inertia(form, mass, tau)[1]


def _inertia(form, mass, tau):
    """SuperLU's symmetric no-pivot factorization of form - tau*mass and the
    number of its negative pivots.

    Sylvester's law of inertia: with mass > 0 that number counts the pencil
    eigenvalues below tau, of the Schur complement for a short mass.  The
    pivots are the diagonal of U, because the factorization permutes rows and
    columns alike (U = D L^T).  Raises FactorizationFailure when tau hits an
    eigenvalue or SuperLU leaves the diagonal, where the count would be void.
    """
    M = sp.dia_matrix((mass[None], [0]), shape=form.shape)   # zero past the mass
    shifted = sp.csc_matrix(form - tau * M)
    try:
        lu = spla.splu(shifted, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options=dict(SymmetricMode=True))
    except RuntimeError as exc:  # "Factor is exactly singular"
        raise FactorizationFailure(f"inertia at {tau}: {exc}") from exc
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise FactorizationFailure(
            f"inertia at {tau}: SuperLU pivoted off the diagonal")
    return lu, int(np.count_nonzero(lu.U.diagonal() < 0.0))


def schur_apply(form, mass, X):
    """form @ X with the trailing block of form = [[A, B], [B^T, T]] past
    len(mass) eliminated: A X - B T^-1 B^T X, T tridiagonal and positive
    definite and solved through its bands (form is CSR)."""
    N = len(mass)
    if N == form.shape[0]:
        return form @ X
    T = form[N:, N:]
    Y = sla.solveh_banded([np.r_[0.0, T.diagonal(1)], T.diagonal()],
                          form[N:, :N] @ X, check_finite=False)
    return form[:N, :N] @ X - form[:N, N:] @ Y


# the normwise backward error every returned eigenpair meets, and the
# relative accuracy at which ARPACK stops
BACKWARD_TOL = 1e-12


class Eigenpairs(NamedTuple):
    """Pencil eigenpairs in ascending order, with their certificate."""
    values: np.ndarray           # (m,), m = below the split + above it
    vectors: np.ndarray          # (dim, m), mass-orthonormal columns
    backward_errors: np.ndarray  # (m,), each at most BACKWARD_TOL
    solves: int                  # shift-invert applications, refinements included
    factorizations: int          # `_inertia` calls


def smallest_eigenpairs(form: sp.spmatrix, mass: np.ndarray, above: int,
                        shift: float, split: float) -> Eigenpairs:
    """Every eigenpair of form x = sigma * mass * x below `split`, and the
    `above` lowest above it.

    Inertia-sliced shift-invert Lanczos (ARPACK; Ericsson & Ruhe 1980).  The
    inertia count at `split` says how many eigenvalues lie below it; all of
    them come from one shift-invert call at `shift` (which="LM"), whose own
    count must be zero, so `shift` is certified to lie below the spectrum,
    and the `above` pairs from one call at `split` itself (which="LA": the
    largest 1/(sigma - split) are the eigenvalues just above it).  Each call
    solves with the factorization that made its count: the split's first,
    released before the shift is factored, so one LDL^T is alive at a time.
    A returned set with other than the counted number under `split` raises
    FactorizationFailure, so no eigenvalue goes missing silently; so does an
    ARPACK failure.  More pairs in all than ARPACK can give, dim - 2, raises
    TooManyRequested.  With split = shift below the spectrum nothing lies
    below the split and the one call is at the split.

    Lanczos runs in standard form on D A D, D = M^(-1/2): its shift-invert
    operator y -> s * LDL^T.solve((s * y, 0))[:N], s = sqrt(mass) of length
    N, costs one solve per step through one preallocated right-hand side, and
    x = y / s recovers mass-orthonormal eigenvectors.  ARPACK stops at
    relative accuracy BACKWARD_TOL, and `_verified` holds each pair to a
    backward error of BACKWARD_TOL (see `backward_errors`); those errors come
    back with the pairs.
    """
    form = sp.csr_matrix(form)
    mass = np.asarray(mass, dtype=float)
    dim = len(mass)
    if above <= 0:
        raise ValueError("above must be >= 1")
    if np.any(mass <= 0):
        raise ValueError("mass must be positive on active nodes")
    split_lu, below = _inertia(form, mass, split)
    if below + above > dim - 2:
        raise TooManyRequested(
            f"{below} eigenpairs below the split and {above} above it from a "
            f"{dim}-dim pencil (at most {dim - 2})")
    s = np.sqrt(mass)
    # the split's LDL^T dies before the lower bound is factored
    vals, vecs, solves = _shift_invert(split_lu, s, above, split, "LA")
    del split_lu
    if below:
        lu, under = _inertia(form, mass, shift)
        if under:
            raise FactorizationFailure(
                f"shift {shift} is not below the spectrum: "
                f"{under} eigenvalues lie under it")
        w, y, more = _shift_invert(lu, s, below, shift, "LM")
        del lu
        vals, vecs, solves = np.r_[w, vals], np.hstack([y, vecs]), more + solves
    found = int(np.count_nonzero(vals < split))
    if found != below:
        raise FactorizationFailure(
            f"{found} eigenvalues below {split} returned, inertia counts {below}")
    order = np.argsort(vals)
    vals = vals[order]
    X = vecs[:, order]
    X /= s[:, None]
    errors, refined = _verified(form, mass, vals, X)
    # one factorization at the split, one at the shift if it was called
    return Eigenpairs(vals, X, errors, solves + refined,
                      1 + (below > 0) + refined)


def _shift_invert(lu, s, k, sigma, which):
    """ARPACK's k pairs at `sigma` of the standard-form pencil, solving
    through `lu`, its LDL^T at sigma; returns them and the solves spent.
    The operator and its right-hand side die with the call, so nothing
    holds `lu` after it."""
    dim = len(s)
    rhs = np.zeros(lu.shape[0])   # (s * y, 0): the pad stays zero
    solves = 0

    def apply(y):
        nonlocal solves
        solves += 1
        np.multiply(s, y, out=rhs[:dim])
        return s * lu.solve(rhs)[:dim]
    # shift-invert mode without a mass reads only the shape of eigsh's first
    # argument, so the operator stands in for D A D there
    inv = spla.LinearOperator((dim, dim), matvec=apply, dtype=float)
    try:
        w, y = spla.eigsh(inv, k=k, sigma=sigma, which=which,
                          v0=np.full(dim, 1.0 / np.sqrt(dim)), OPinv=inv,
                          tol=BACKWARD_TOL)
    except RuntimeError as exc:
        raise FactorizationFailure(
            f"ARPACK failed at shift {sigma}: {exc}") from exc
    return w, y, solves


def backward_errors(form, mass, sigmas, vectors) -> np.ndarray:
    """Normwise backward errors ||A x - s M x|| / ((||A||_1 + |s| max M) ||x||)
    of the eigenpairs (sigmas[j], vectors[:, j]) of the pencil (A, M),
    M = diag(mass), A = `schur_apply` and ||A||_1 that of the leading block."""
    sigmas = np.asarray(sigmas, dtype=float)
    res = np.linalg.norm(schur_apply(form, mass, vectors)
                         - mass[:, None] * vectors * sigmas, axis=0)
    lead = form[:len(mass), :len(mass)]
    scale = float(abs(lead).sum(axis=0).max()) + np.abs(sigmas) * float(np.max(mass))
    return res / (scale * np.linalg.norm(vectors, axis=0))


def _verified(form, mass, sigmas, X):
    """Hold each mass-normalized pair (sigmas[j], X[:, j]) to BACKWARD_TOL.

    A pair over the bound gets one inverse-iteration refinement through
    `_inertia` just above its eigenvalue, in place in `sigmas` and `X`, and
    one still over it raises FactorizationFailure.  Returns the backward
    errors of the pairs as they leave and the number refined."""
    errors = backward_errors(form, mass, sigmas, X)
    over = np.flatnonzero(~(errors <= BACKWARD_TOL))   # NaN included
    for j in over:
        lu, _ = _inertia(form, mass, sigmas[j] + 1e-12)
        y = lu.solve(np.pad(mass * X[:, j], (0, form.shape[0] - len(mass))))[:len(mass)]
        X[:, j] = y / np.sqrt(np.dot(mass * y, y))
        sigmas[j] = np.dot(X[:, j], schur_apply(form, mass, X[:, j]))
        errors[j] = backward_errors(form, mass, sigmas[j:j + 1], X[:, j:j + 1])[0]
        del lu
        if not errors[j] <= BACKWARD_TOL:
            raise FactorizationFailure(
                f"eigenpair {sigmas[j]:.6e} has backward error {errors[j]:.2e} "
                f"> {BACKWARD_TOL:.0e} after refinement")
    return errors, len(over)
