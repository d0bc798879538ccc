"""Discrete radial Laplacian, symmetric banded forms, their inertia and solves.

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
(under 1 ms at n=4096).  A symmetric form, a sector pair form included, is
held as its bands too (`SymmetricBands`); no sparse-matrix class is used.

No eigenpair is computed.  A sector pencil is certified by counting: its
one factorization is a symmetric no-pivot LDL^T (`_inertia`, SuperLU's
gstrf on a CSC array built from the bands) at a shift, whose negative pivots
count the eigenvalues below the shift (Sylvester's law of inertia).  One
solve through the same LDL^T is one inverse-iteration step from a given
vector (`inverse_step`), and `rayleigh` gives the Rayleigh quotient and
residual of a vector, from which Temple's bound and the Davis-Kahan bound
enclose an eigenvalue the count isolates and its eigenvector.  SuperLU
factors in one-column panels: the pair form's factors hold about 4 nonzeros
per row, so a wide panel finds no dense block to work on, while part of
SuperLU's workspace grows with the panel width.  A mass shorter than the
form eliminates its trailing block (`schur_apply`, Haynsworth).  The
compiled routines come from `kernels`: LAPACK's dptsv from the OpenBLAS
numpy bundles, and SuperLU's gstrf from scipy's _superlu, which is loaded on
the first factorization.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import FactorizationFailure
from .grid import EVEN, RadialGrid
from .kernels import dptsv, gstrf


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


class SymmetricBands(NamedTuple):
    """A symmetric matrix held as its bands: the main diagonal and, for each
    offset k > 0, the band of entries (j, j + k), which is also that of the
    entries (j + k, j).  `form @ x` applies it to a vector."""
    diag: np.ndarray
    upper: dict                  # offset k -> entries (j, j + k), j < dim - k

    def __matmul__(self, x):
        y = self.diag * x
        for k, band in self.upper.items():
            y[:-k] += band * x[k:]
            y[k:] += band * x[:-k]
        return y


def dirichlet_form(grid: RadialGrid, parity: str = EVEN) -> SymmetricBands:
    """Exactly symmetric weighted form S = W * (-Delta_r) on the active nodes.

    The weighted bands restricted to the active set: couplings into node 0
    vanish identically (they carry a factor r_0 = 0) and couplings into the
    Dirichlet pad are dropped.
    """
    diag, up1, up2 = _weighted_bands(grid, parity)
    return SymmetricBands(diag, {1: up1[:-1], 2: up2[:-2]})


def grad_sq_pairing(grid: RadialGrid, A: RadialLaplacian, values: np.ndarray) -> float:
    """<A u, u> in the r^2 dr weights: the discrete Dirichlet energy /(4 pi).

    Fourth-order quadrature of the radial integral of u'(r)^2 r^2 for decaying
    fields; tiny negative round-off is clipped.
    """
    val = float(np.dot(grid.weights_r2dr, (A @ values) * values))
    return max(val, 0.0)


# -- the one factorization and what it counts ---------------------------------


def count_below(form: SymmetricBands, mass: np.ndarray, tau: float) -> int:
    """Number of eigenvalues of form x = sigma * mass * x below tau."""
    return _inertia(form, mass, tau)[1]


# SuperLU's panel width in columns (its default is 20); see `_inertia`
PANEL_SIZE = 1


def _shifted_csc(form: SymmetricBands, mass: np.ndarray, tau: float):
    """(data, indices, indptr) of form - tau * M in compressed sparse
    columns, M = diag(mass) and zero past len(mass): rows ascending in each
    column and exact zeros dropped, the arrays of scipy's canonical CSC
    matrix of the same difference."""
    dim = len(form.diag)
    diag = form.diag.copy()
    diag[:len(mass)] -= tau * mass
    offsets = sorted(form.upper)
    # slot s of column j holds entry (j + k, j); a slot off the matrix is 0
    slots = ([(-k, form.upper[k]) for k in reversed(offsets)] + [(0, diag)]
             + [(k, form.upper[k]) for k in offsets])
    vals = np.zeros((dim, len(slots)))
    rows = np.empty((dim, len(slots)), dtype=np.intc)
    cols = np.arange(dim, dtype=np.intc)
    for s, (k, band) in enumerate(slots):
        np.add(cols, k, out=rows[:, s])
        vals[max(0, -k):dim - max(0, k), s] = band
    keep = vals != 0.0
    indptr = np.zeros(dim + 1, dtype=np.intc)
    np.cumsum(np.count_nonzero(keep, axis=1), out=indptr[1:])
    return vals[keep], rows[keep], indptr


def _factor_summary(csc, shape):
    """(nnz, negative diagonal entries) of a factor SuperLU hands over as
    CSC arrays, which are longer than its nnz; kept in place of the factor,
    so the arrays die with the call."""
    data, indices, indptr = csc
    nnz = int(indptr[-1])
    cols = np.repeat(np.arange(shape[1]), np.diff(indptr))
    on_diag = indices[:nnz] == cols
    return nnz, int(np.count_nonzero(data[:nnz][on_diag] < 0.0))


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
    The options are those scipy's splu passes for permc_spec="MMD_AT_PLUS_A",
    diag_pivot_thresh=0 and SymmetricMode; L and U are read once for their
    counts (`_factor_summary`) and not kept.
    """
    data, indices, indptr = _shifted_csc(form, mass, tau)
    try:
        lu = gstrf(len(form.diag), len(data), data, indices, indptr,
                   csc_construct_func=_factor_summary, ilu=False,
                   options=dict(DiagPivotThresh=0.0, ColPerm="MMD_AT_PLUS_A",
                                PanelSize=PANEL_SIZE, Relax=None,
                                SymmetricMode=True))
    except RuntimeError as exc:  # "Factor is exactly singular"
        raise FactorizationFailure(f"inertia at {tau}: {exc}") from exc
    del data, indices, indptr   # factored: freed before L and U are read
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise FactorizationFailure(
            f"inertia at {tau}: SuperLU pivoted off the diagonal")
    (u_nnz, negative), (l_nnz, _) = lu.U, lu.L
    return lu, negative, u_nnz + l_nnz


def schur_apply(form, mass, x):
    """form @ x with the trailing block of form = [[A, B], [B^T, T]] past
    len(mass) eliminated: A x - B T^-1 B^T x, T tridiagonal and positive
    definite and solved through its bands by LAPACK's dptsv."""
    N = len(mass)
    if N == len(form.diag):
        return form @ x
    z = np.zeros(len(form.diag))
    z[:N] = x
    ax = form @ z                # (A x, B^T x)
    _, _, y, info = dptsv(form.diag[N:], form.upper[1][N:], ax[N:])
    if info != 0:
        raise FactorizationFailure(f"Schur block solve: dptsv info {info}")
    z[:N], z[N:] = 0.0, y
    return ax[:N] - (form @ z)[:N]


def inverse_step(form, mass, tau, x=None):
    """(below, fill, y): the number of pencil eigenvalues below tau and the
    fill of the LDL^T that counts them (`_inertia`), and one inverse-iteration
    step y = (L - tau M)^-1 M x from x through that LDL^T, L the form with
    its trailing block eliminated (`schur_apply`).  The solve runs through
    the whole form, the right-hand side zero past len(mass).  Without x, y is
    None.  Nothing holds the LDL^T after the call."""
    lu, below, fill = _inertia(form, mass, tau)
    if x is None:
        return below, fill, None
    rhs = np.zeros(lu.shape[0])
    np.multiply(mass, x, out=rhs[:len(mass)])
    return below, fill, lu.solve(rhs)[:len(mass)]


def rayleigh(form, mass, x):
    """(rho, eta) of x in the pencil (L, M), L = `schur_apply`: the Rayleigh
    quotient rho = x.L x / x.M x and the residual
    eta = ||L x - rho M x||_(M^-1) / ||x||_M, that of M^(1/2) x for the
    standard-form matrix M^(-1/2) L M^(-1/2), which Temple's and the
    Davis-Kahan bounds read."""
    Lx = schur_apply(form, mass, x)
    xMx = float(np.dot(mass * x, x))
    rho = float(np.dot(x, Lx)) / xMx
    Lx -= rho * mass * x
    return rho, math.sqrt(float(np.dot(Lx / mass, Lx)) / xMx)
