"""Discrete radial Laplacian, symmetric banded forms, and eigen/linear solves.

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

The eigensolver is inertia-sliced shift-invert Lanczos, and its one
factorization is a symmetric no-pivot LDL^T (`_inertia`, SuperLU's gstrf on
a CSC array built from the bands) at a split point, whose negative pivots
count the eigenvalues below the split (Sylvester's law of inertia).  Below
the split that count is all the eigensolve reports; above it one Lanczos run
through the same LDL^T (`_shift_invert`) takes as many pairs as the caller
asks for, none of which may fall below the split.  SuperLU factors in
one-column panels: the pair form's factors hold about 4 nonzeros per row, so
a wide panel finds no dense block to work on, while part of SuperLU's
workspace grows with the panel width.  Lanczos runs on the standard-form
matrix D A D, D = M^(-1/2), so each step is one solve through the LDL^T and
no mass product; it keeps its basis orthogonal in full and stops once every
asked-for Ritz pair meets the relative accuracy BACKWARD_TOL = 1e-12 that the
certificate asks for, or fails at KRYLOV_CAP steps.  Every returned
eigenpair is then held to a normwise backward error of 1e-12, computed once
and returned with the pairs; a pair over it is refined, after the call, by
one inverse iteration through `_inertia` just above its eigenvalue.  A mass
shorter than the form eliminates its trailing block (`schur_apply`,
Haynsworth).  The compiled routines, SuperLU's and LAPACK's, come from
`kernels`.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import FactorizationFailure, TooManyRequested
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
    entries (j + k, j).  `form @ X` applies it to a vector or to each column
    of an array."""
    diag: np.ndarray
    upper: dict                  # offset k -> entries (j, j + k), j < dim - k

    @property
    def shape(self):
        return (len(self.diag),) * 2

    def __matmul__(self, X):
        col = (slice(None),) + (None,) * (np.ndim(X) - 1)
        Y = self.diag[col] * X
        for k, band in self.upper.items():
            Y[:-k] += band[col] * X[k:]
            Y[k:] += band[col] * X[:-k]
        return Y


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


# -- the one factorization and the eigensolve ----------------------------------


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


def schur_apply(form, mass, X):
    """form @ X with the trailing block of form = [[A, B], [B^T, T]] past
    len(mass) eliminated: A X - B T^-1 B^T X, T tridiagonal and positive
    definite and solved through its bands by LAPACK's dptsv."""
    N = len(mass)
    if N == len(form.diag):
        return form @ X
    Z = np.zeros(form.shape[:1] + np.shape(X)[1:])
    Z[:N] = X
    AX = form @ Z                # (A X, B^T X)
    _, _, Y, info = dptsv(form.diag[N:], form.upper[1][N:], AX[N:])
    if info != 0:
        raise FactorizationFailure(f"Schur block solve: dptsv info {info}")
    Z[:N], Z[N:] = 0.0, Y
    return AX[:N] - (form @ Z)[:N]


# the normwise backward error every returned eigenpair meets, and the
# relative accuracy of the Ritz pairs at which Lanczos stops
BACKWARD_TOL = 1e-12
# Lanczos steps, one solve each, after which an eigensolve fails
KRYLOV_CAP = 100


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


def smallest_eigenpairs(form: SymmetricBands, mass: np.ndarray, above: int,
                        split: float) -> Eigenpairs:
    """The `above` lowest eigenpairs of form x = sigma * mass * x above
    `split`, and the number of eigenvalues below it.

    Inertia-sliced shift-invert Lanczos (Ericsson & Ruhe 1980).  The LDL^T
    at `split` counts the eigenvalues below it (`below`), and one Lanczos
    run through it (`_shift_invert`: the largest 1/(sigma - split) are the
    eigenvalues just above it) gives the `above` pairs.  A returned value
    below `split` raises FactorizationFailure, so a pair the count places
    under the split is never passed off as one above it; so does a Lanczos
    run that reaches KRYLOV_CAP.  More pairs below and above than dim - 2
    raises TooManyRequested.

    Lanczos runs in standard form on D A D, D = M^(-1/2): its shift-invert
    operator y -> s * LDL^T.solve((s * y, 0))[:N], s = sqrt(mass) of length
    N, costs one solve per step through one preallocated right-hand side, and
    x = y / s recovers mass-orthonormal eigenvectors.  Lanczos stops at
    relative accuracy BACKWARD_TOL, and `_verified` holds each pair to a
    backward error of BACKWARD_TOL (see `backward_errors`); those errors come
    back with the pairs.
    """
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
    """The k pairs just above `sigma` of the standard-form pencil, by
    Lanczos on its shift-invert operator through `lu`, its LDL^T at sigma;
    returns them and the solves spent.

    The run starts from the vector 1/sqrt(dim) and orthogonalizes each new
    vector against the whole basis twice (classical Gram-Schmidt).  It stops
    once the k largest Ritz values theta of the tridiagonal projection each
    have the residual estimate |beta theta's last component| <=
    BACKWARD_TOL theta, and returns sigma + 1/theta with their Ritz vectors.
    A basis that spans an invariant subspace (beta at rounding level) goes
    on from a seeded random vector orthogonal to it.  KRYLOV_CAP steps
    without convergence raise FactorizationFailure.  The basis rows are
    allocated once and each is touched only when reached; nothing holds
    `lu` after the call.
    """
    dim = len(s)
    steps = min(KRYLOV_CAP, dim)
    V = np.empty((steps + 1, dim))
    V[0] = 1.0 / math.sqrt(dim)
    rhs = np.zeros(lu.shape[0])   # (s * y, 0): the pad stays zero
    alpha, beta = np.zeros(steps), np.zeros(steps)
    for j in range(steps):
        np.multiply(s, V[j], out=rhs[:dim])
        w = s * lu.solve(rhs)[:dim]
        basis = V[:j + 1]
        for _ in range(2):
            c = basis @ w
            w -= c @ basis
            alpha[j] += c[j]
        b = float(np.linalg.norm(w))
        T = np.diag(alpha[:j + 1]) + np.diag(beta[:j], 1) + np.diag(beta[:j], -1)
        theta, S = np.linalg.eigh(T)
        top = slice(max(j + 1 - k, 0), j + 1)
        if j + 1 >= k and np.all(b * np.abs(S[-1, top])
                                 <= BACKWARD_TOL * np.abs(theta[top])):
            return sigma + 1.0 / theta[top], (S[:, top].T @ basis).T, j + 1
        if b <= np.finfo(float).eps * np.max(np.abs(theta)):
            w = np.random.default_rng(j).standard_normal(dim)
            for _ in range(2):
                w -= (basis @ w) @ basis
            b = 0.0
            V[j + 1] = w / np.linalg.norm(w)
        else:
            V[j + 1] = w / b
        beta[j] = b
    raise FactorizationFailure(
        f"Lanczos at shift {sigma}: {k} pairs not converged in {steps} steps")


def _lead_norm1(form, N):
    """||A||_1 of the leading N x N block A of a symmetric banded form: its
    largest absolute row sum."""
    rows = np.abs(form.diag[:N])
    for k, band in form.upper.items():
        if k < N:
            lead = np.abs(band[:N - k])
            rows[:N - k] += lead
            rows[k:] += lead
    return float(rows.max())


def backward_errors(form, mass, sigmas, vectors) -> np.ndarray:
    """Normwise backward errors ||A x - s M x|| / ((||A||_1 + |s| max M) ||x||)
    of the eigenpairs (sigmas[j], vectors[:, j]) of the pencil (A, M),
    M = diag(mass), A = `schur_apply` and ||A||_1 that of the leading block."""
    sigmas = np.asarray(sigmas, dtype=float)
    res = np.linalg.norm(schur_apply(form, mass, vectors)
                         - mass[:, None] * vectors * sigmas, axis=0)
    scale = _lead_norm1(form, len(mass)) + np.abs(sigmas) * float(np.max(mass))
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
