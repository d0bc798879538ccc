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
(`_weighted_bands`) are the one source of the stencil: `dirichlet_form`
restricts them to the active nodes, and `radial_laplacian` divides them by
the weight of their row.  Both are assembled on every call, without a cache
(under 1 ms at n=4096).

The eigensolver is inertia-sliced shift-invert Lanczos, and every
factorization it uses is one symmetric no-pivot LDL^T (`_inertia`), which also
counts the pencil eigenvalues below its shift (Sylvester's law of inertia).
The count at a split point says how many eigenvalues lie below it; those
just above the split come from a shift-invert call at the split itself, those
below it from a call at a lower bound of the spectrum, whose count of zero
certifies the bound, and the count at the split checks that none went
missing.  Every returned eigenpair is held to a normwise backward error of
1e-12, and a pair over it is refined by one inverse iteration through the
same factorization.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import FactorizationFailure, TooManyRequested
from .grid import EVEN, RadialGrid

def _weighted_bands(grid: RadialGrid, parity: str):
    """Main band and the two upper bands of W * (-Delta_r) on rows 1 .. n-3.

    The one definition of the stencil.  Entry (i, i+k) is the single
    expression c_k * r_i * r_{i+k} * scale / h with c = (30, -16, 1) / 12 and
    scale the ball-measure normalization of the r^2 dr weights, so the
    weighted operator is symmetric in floating point.  The main band carries
    the parity fold of row 1 through the origin (r_{-1} = -h); the last
    entries of the upper bands couple row n-3 into the Dirichlet pad.
    """
    n, h, r = grid.n, grid.h, grid.nodes
    ra = r[1:n - 2]
    # interior trapezoid weight is h for every row 1 .. n-3; carry the
    # ball-measure normalization so the bands match <A u, u>_{weights_r2dr}
    scale = grid.weights_r2dr[2] / (h * r[2] ** 2)
    diag = (30.0 / 12.0) * ra * ra * (scale / h)
    fold = r[1] * (-h) * (scale / (12.0 * h))
    diag[0] += fold if parity == EVEN else -fold
    up1 = -(16.0 / 12.0) * ra * r[2:n - 1] * (scale / h)
    up2 = (1.0 / 12.0) * ra * r[3:] * (scale / h)
    return diag, up1, up2


def radial_laplacian(grid: RadialGrid) -> sp.csr_matrix:
    """-Delta_r as an (n, n) sparse operator with the row layout above: the
    weighted bands of even parity divided by the r^2 dr weight of their row."""
    n, h = grid.n, grid.h
    w = grid.weights_r2dr[1:n - 2]
    diag, up1, up2 = _weighted_bands(grid, EVEN)
    # origin limit: -Delta u(0) = -3 u''(0), u'' from the even 5-point stencil
    c = 3.0 / (12.0 * h * h)
    return sp.diags(
        [np.r_[0.0, up2[:-2] / w[2:], 0.0, 0.0],   # (2, 0) carries r_0 = 0
         np.r_[0.0, up1[:-1] / w[1:], 0.0, 0.0],   # so does (1, 0)
         np.r_[30.0 * c, diag / w, 1.0, 1.0],
         np.r_[-32.0 * c, up1 / w, 0.0],
         np.r_[2.0 * c, up2 / w]],
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
    eigenvalues below tau.  The pivots are the diagonal of U, because the
    factorization permutes rows and columns alike (U = D L^T).  Raises
    FactorizationFailure when tau hits an eigenvalue or SuperLU leaves the
    diagonal, where the count would be void.
    """
    shifted = sp.csc_matrix(form - tau * sp.diags(mass))
    try:
        lu = spla.splu(shifted, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options=dict(SymmetricMode=True))
    except RuntimeError as exc:  # "Factor is exactly singular"
        raise FactorizationFailure(f"inertia at {tau}: {exc}") from exc
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise FactorizationFailure(
            f"inertia at {tau}: SuperLU pivoted off the diagonal")
    return lu, int(np.count_nonzero(lu.U.diagonal() < 0.0))


def smallest_eigenpairs(form: sp.spmatrix, mass: np.ndarray, m: int,
                        shift: float, split: float):
    """m algebraically smallest eigenpairs of form x = sigma * mass * x.

    Inertia-sliced shift-invert Lanczos (ARPACK; Ericsson & Ruhe 1980).  An
    inertia count puts below = min(count_below(split), m) eigenvalues below
    `split`; they come from one shift-invert call at `shift` (which="LM"),
    whose own count must be zero, so `shift` is certified to lie below the
    spectrum, and the m - below above `split` from one call at `split`
    itself (which="LA": the largest 1/(sigma - split) are the eigenvalues
    just above it).  Each call solves with the factorization that made its
    count.  A returned set with other than `below` values under `split`
    raises FactorizationFailure, so no eigenvalue goes missing silently; so
    does an ARPACK failure.  With split = shift below the spectrum, below = 0
    and the one call is at the split.  Eigenvectors come back
    mass-orthonormal, each with a backward error of at most 1e-12 (see
    `backward_errors`).
    """
    form = sp.csr_matrix(form)
    mass = np.asarray(mass, dtype=float)
    dim = form.shape[0]
    if m > dim - 2:
        raise TooManyRequested(
            f"requested {m} eigenpairs of a {dim}-dim pencil (at most {dim - 2})")
    if m <= 0:
        raise ValueError("m must be >= 1")
    if np.any(mass <= 0):
        raise ValueError("mass must be positive on active nodes")
    split_lu, below = _inertia(form, mass, split)
    below = min(below, m)
    Msp = sp.diags(mass)
    v0 = np.full(dim, 1.0 / np.sqrt(dim))
    vals, vecs = [], []
    for k, sigma, which in ((below, shift, "LM"), (m - below, split, "LA")):
        if not k:
            continue
        lu, under = (split_lu, 0) if which == "LA" else _inertia(form, mass, shift)
        if under:
            raise FactorizationFailure(
                f"shift {shift} is not below the spectrum: "
                f"{under} eigenvalues lie under it")
        inv = spla.LinearOperator(form.shape, matvec=lu.solve, dtype=float)
        try:
            w, v = spla.eigsh(form, k=k, M=Msp, sigma=sigma, which=which,
                              v0=v0, OPinv=inv)
        except RuntimeError as exc:
            raise FactorizationFailure(
                f"ARPACK failed at shift {sigma}: {exc}") from exc
        vals.append(w)
        vecs.append(v)
    vals = np.concatenate(vals)
    vecs = np.concatenate(vecs, axis=1)
    found = int(np.count_nonzero(vals < split))
    if found != below:
        raise FactorizationFailure(
            f"{found} eigenvalues below {split} returned, inertia counts {below}")
    order = np.argsort(vals)
    pairs = [(float(vals[i]), vecs[:, i]) for i in order]
    return _verified(form, mass, pairs)


BACKWARD_TOL = 1e-12


def backward_errors(form, mass, sigmas, vectors) -> np.ndarray:
    """Normwise backward errors ||A x - s M x|| / ((||A||_1 + |s| max M) ||x||)
    of the eigenpairs (sigmas[j], vectors[:, j]) of the pencil (A, M),
    M = diag(mass)."""
    sigmas = np.asarray(sigmas, dtype=float)
    res = np.linalg.norm(form @ vectors - mass[:, None] * vectors * sigmas, axis=0)
    scale = float(abs(form).sum(axis=0).max()) + np.abs(sigmas) * float(np.max(mass))
    return res / (scale * np.linalg.norm(vectors, axis=0))


def _verified(form, mass, pairs):
    """Mass-normalize each pair and hold it to BACKWARD_TOL; a pair over the
    bound gets one inverse-iteration refinement through `_inertia` just above
    its eigenvalue, and one still over it raises FactorizationFailure."""
    sigmas = [s for s, _ in pairs]
    X = np.stack([x / np.sqrt(np.dot(mass * x, x)) for _, x in pairs], axis=1)
    for j in np.flatnonzero(backward_errors(form, mass, sigmas, X) > BACKWARD_TOL):
        lu, _ = _inertia(form, mass, sigmas[j] + 1e-12)
        y = lu.solve(mass * X[:, j])
        X[:, j] = y / np.sqrt(np.dot(mass * y, y))
        sigmas[j] = float(np.dot(X[:, j], form @ X[:, j]))
        err = backward_errors(form, mass, sigmas[j:j + 1], X[:, j:j + 1])[0]
        if err > BACKWARD_TOL:
            raise FactorizationFailure(
                f"eigenpair {sigmas[j]:.6e} has backward error {err:.2e} "
                f"> {BACKWARD_TOL:.0e} after refinement")
    return [(sigmas[j], X[:, j]) for j in range(len(sigmas))]
