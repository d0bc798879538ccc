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
nodes, and `radial_laplacian` holds them with row 0 and the weights as
-Delta_r itself, never as a matrix, from which a Newton solve
(`solver.newton_solve`) takes its residual, its warm-start Cholesky and its
step's fixed entries.  All are assembled on every call, without a cache
(under 1 ms at n=4096).

The eigensolver is inertia-sliced shift-invert Lanczos, and its one
factorization is a symmetric no-pivot LDL^T (`_inertia`) at a split point,
whose negative pivots count the eigenvalues below the split (Sylvester's law
of inertia).  Below the split that count is all the eigensolve reports;
above it one shift-invert call through the same LDL^T takes as many pairs as
the caller asks for, none of which may fall below the split.  SuperLU factors
in one-column panels: the pair form's factors hold about 4 nonzeros per row,
so a wide panel finds no dense block to work on, while part of SuperLU's
workspace grows with the panel width.  ARPACK runs on the standard-form
matrix D A D, D = M^(-1/2), so each Lanczos step is one solve through the
LDL^T and no mass product, and it stops at the relative accuracy
BACKWARD_TOL = 1e-12 that the certificate asks for.  Every returned eigenpair
is then held to a normwise backward error of 1e-12, computed once and
returned with the pairs; a pair over it is refined, after the call, by one
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


class RadialLaplacian(NamedTuple):
    """-Delta_r held as its stencil, never as a matrix: the even-parity
    weighted bands, `origin_row` and the r^2 dr weights W.  `A @ x` divides
    each band by the weight of its row and adds the products row by row in
    column order from 0, skipping the entries that vanish (the couplings
    into node 0, the pad rows' off-diagonals): the float operations of a CSR
    matvec of the same matrix, whose values it gives to the last bit,
    floating-point errors unreported as there.  `abs(A)` holds |entries|."""
    diag: np.ndarray
    up1: np.ndarray
    up2: np.ndarray
    origin: tuple
    weights: np.ndarray

    def __abs__(self):
        return RadialLaplacian(np.abs(self.diag), np.abs(self.up1),
                               np.abs(self.up2),
                               tuple(abs(a) for a in self.origin), self.weights)

    def __matmul__(self, x):
        m = len(self.weights) - 3   # active rows 1 .. m
        w, y, term = self.weights[1:m + 1], np.zeros(m + 3), np.empty(m)
        rows = y[1:m + 1]
        with np.errstate(all="ignore"):
            # the band at offset k of the rows 1 + lo .. m, in column order
            for k, band in ((-2, self.up2[:-2]), (-1, self.up1[:-1]),
                            (0, self.diag), (1, self.up1), (2, self.up2)):
                lo = max(0, -k)
                t = np.divide(band, w[lo:], out=term[lo:])
                np.multiply(t, x[lo + 1 + k:m + 1 + k], out=t)
                np.add(rows[lo:], t, out=rows[lo:])
            a00, a01, a02 = self.origin
            y[0] = 0.0 + a00 * x[0] + a01 * x[1] + a02 * x[2]
            y[-2:] += x[-2:]
        return y


def radial_laplacian(grid: RadialGrid) -> RadialLaplacian:
    """-Delta_r on `grid`, applied row by row (`RadialLaplacian`)."""
    return RadialLaplacian(*_weighted_bands(grid, EVEN), origin_row(grid),
                           grid.weights_r2dr)


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


def grad_sq_pairing(grid: RadialGrid, A: RadialLaplacian, values: np.ndarray) -> float:
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


# SuperLU's panel width in columns (its default is 20); see `_inertia`
PANEL_SIZE = 1


def _inertia(form, mass, tau):
    """SuperLU's symmetric no-pivot factorization of form - tau*mass and the
    number of its negative pivots.

    Sylvester's law of inertia: with mass > 0 that number counts the pencil
    eigenvalues below tau, of the Schur complement for a short mass.  The
    pivots are the diagonal of U, because the factorization permutes rows and
    columns alike (U = D L^T).  Raises FactorizationFailure when tau hits an
    eigenvalue or SuperLU leaves the diagonal, where the count would be void.
    Also returns the fill, nnz(L) + nnz(U).

    The panels are PANEL_SIZE = 1 column wide: part of SuperLU's workspace
    scales with the panel width, and the factors of a pair form hold only
    about 4 nonzeros per row, so wider panels buy no dense work, only memory.
    """
    M = sp.dia_matrix((mass[None], [0]), shape=form.shape)   # zero past the mass
    shifted = sp.csc_matrix(form - tau * M)
    try:
        lu = spla.splu(shifted, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       panel_size=PANEL_SIZE, options=dict(SymmetricMode=True))
    except RuntimeError as exc:  # "Factor is exactly singular"
        raise FactorizationFailure(f"inertia at {tau}: {exc}") from exc
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise FactorizationFailure(
            f"inertia at {tau}: SuperLU pivoted off the diagonal")
    U = lu.U
    return lu, int(np.count_nonzero(U.diagonal() < 0.0)), U.nnz + lu.L.nnz


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
    """The lowest pencil eigenpairs above a split, in ascending order, with
    their certificate and the count of eigenvalues below the split."""
    values: np.ndarray           # (above,)
    vectors: np.ndarray          # (dim, above), mass-orthonormal columns
    backward_errors: np.ndarray  # (above,), each at most BACKWARD_TOL
    below: int                   # eigenvalues below the split: the inertia count
    solves: int                  # shift-invert applications, refinements included
    factorizations: int          # `_inertia` calls
    fill: int                    # nnz(L) + nnz(U) of the LDL^T at the split


def smallest_eigenpairs(form: sp.spmatrix, mass: np.ndarray, above: int,
                        split: float) -> Eigenpairs:
    """The `above` lowest eigenpairs of form x = sigma * mass * x above
    `split`, and the number of eigenvalues below it.

    Inertia-sliced shift-invert Lanczos (ARPACK; Ericsson & Ruhe 1980).  The
    LDL^T at `split` counts the eigenvalues below it (`below`), and one
    shift-invert call through it (which="LA": the largest 1/(sigma - split)
    are the eigenvalues just above it) gives the `above` pairs.  A returned
    value below `split` raises FactorizationFailure, so a pair the count
    places under the split is never passed off as one above it; so does an
    ARPACK failure.  More pairs below and above than ARPACK can give,
    dim - 2, raises TooManyRequested.

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
    lu, below, fill = _inertia(form, mass, split)
    if below + above > dim - 2:
        raise TooManyRequested(
            f"{below} eigenpairs below the split and {above} above it from a "
            f"{dim}-dim pencil (at most {dim - 2})")
    s = np.sqrt(mass)
    vals, vecs, solves = _shift_invert(lu, s, above, split)
    del lu   # released before any refinement factors again
    found = int(np.count_nonzero(~(vals > split)))
    if found:
        raise FactorizationFailure(
            f"{found} of the eigenvalues returned above {split} lie at or "
            f"below it")
    order = np.argsort(vals)
    vals = vals[order]
    X = vecs[:, order]
    X /= s[:, None]
    errors, refined = _verified(form, mass, vals, X)
    return Eigenpairs(vals, X, errors, below, solves + refined, 1 + refined, fill)


def _shift_invert(lu, s, k, sigma):
    """ARPACK's k pairs just above `sigma` of the standard-form pencil,
    solving through `lu`, its LDL^T at sigma; returns them and the solves
    spent.  The operator and its right-hand side die with the call, so
    nothing holds `lu` after it."""
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
        w, y = spla.eigsh(inv, k=k, sigma=sigma, which="LA",
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
        lu = _inertia(form, mass, sigmas[j] + 1e-12)[0]
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
