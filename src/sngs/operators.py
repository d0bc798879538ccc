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
product and the sector forms symmetric to round-off.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import FactorizationFailure, TooManyRequested
from .grid import EVEN, RadialGrid

# centered 5-point stencils, offsets -2..2
_C2 = np.array([1.0, -16.0, 30.0, -16.0, 1.0]) / 12.0   # -u''  (units 1/h^2)
_C1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0      # u'    (units 1/h)

_lap_cache: dict = {}


def radial_laplacian(grid: RadialGrid, parity: str = EVEN) -> sp.csr_matrix:
    """-Delta_r as an (n, n) sparse operator with the row layout above."""
    key = (grid.key(), parity)
    hit = _lap_cache.get(key)
    if hit is not None:
        return hit
    n, h, r = grid.n, grid.h, grid.nodes
    rows, cols, vals = [], [], []

    def add(i, j, v):
        rows.append(i)
        cols.append(j)
        vals.append(v)

    # origin limit: -Delta u(0) = -3 u''(0), u'' from the even 5-point stencil
    add(0, 0, 3.0 * 30.0 / (12.0 * h * h))
    add(0, 1, -3.0 * 32.0 / (12.0 * h * h))
    add(0, 2, 3.0 * 2.0 / (12.0 * h * h))
    sgn = 1.0 if parity == EVEN else -1.0
    for i in range(1, n - 2):
        ri = r[i]
        for k in range(5):
            off = k - 2
            v = _C2[k] / h**2 - (2.0 / ri) * _C1[k] / h
            j = i + off
            if j < 0:
                add(i, -j, sgn * v)   # fold through the origin
            else:
                add(i, j, v)
    add(n - 2, n - 2, 1.0)
    add(n - 1, n - 1, 1.0)
    A = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    _lap_cache[key] = A
    return A


def active_slice(grid: RadialGrid) -> np.ndarray:
    """Indices of the unconstrained nodes: 1 .. n-3 (origin is slaved, the last
    two nodes are the Dirichlet pad)."""
    return np.arange(1, grid.n - 2)


def dirichlet_form(grid: RadialGrid, parity: str = EVEN) -> sp.csr_matrix:
    """Exactly symmetric weighted form S = W * (-Delta_r) on the active nodes.

    Entries are assembled from single expressions c_k * r_i * r_{i+k} * w / h^2
    so the matrix is symmetric in floating point, not merely up to round-off.
    Couplings into node 0 vanish identically (they carry a factor r_0 = 0) and
    couplings into the Dirichlet pad are dropped, which is the restriction of
    the symmetric form to the active set.
    """
    act = active_slice(grid)
    h, r = grid.h, grid.nodes
    ra = r[act]
    # interior trapezoid weight is h for every active node (ends are inactive);
    # carry the ball-measure normalization so S matches <A u, u>_{weights_r2dr}
    scale = grid.weights_r2dr[act[1]] / (h * ra[1] ** 2)
    diag = (30.0 / 12.0) * ra * ra * (scale / h)
    fold = r[1] * (-h) * (scale / (12.0 * h))   # r_{-1} = -h
    diag = diag.copy()
    diag[0] += fold if parity == EVEN else -fold
    off1 = -(16.0 / 12.0) * ra[:-1] * ra[1:] * (scale / h)
    off2 = (1.0 / 12.0) * ra[:-2] * ra[2:] * (scale / h)
    return sp.diags([off2, off1, diag, off1, off2], [-2, -1, 0, 1, 2], format="csr")


def grad_sq_pairing(grid: RadialGrid, A: sp.csr_matrix, values: np.ndarray) -> float:
    """<A u, u> in the r^2 dr weights: the discrete Dirichlet energy /(4 pi).

    Fourth-order quadrature of the radial integral of u'(r)^2 r^2 for decaying
    fields; tiny negative round-off is clipped.
    """
    val = float(np.dot(grid.weights_r2dr, (A @ values) * values))
    return max(val, 0.0)


# -- linear solves -------------------------------------------------------------


def banded_lu(mat: sp.spmatrix):
    """Sparse LU of a banded matrix; raises FactorizationFailure when singular."""
    try:
        return spla.splu(sp.csc_matrix(mat))
    except RuntimeError as exc:  # "Factor is exactly singular"
        raise FactorizationFailure(str(exc)) from exc


def _gershgorin_lower_bound(form: sp.spmatrix, mass: np.ndarray) -> float:
    """Lower bound on the pencil spectrum via Gershgorin on M^-1/2 A M^-1/2."""
    A = sp.csr_matrix(form)
    s = 1.0 / np.sqrt(mass)
    B = sp.diags(s) @ A @ sp.diags(s)
    B = B.tocsr()
    diag = B.diagonal()
    radii = np.abs(B).sum(axis=1).A1 - np.abs(diag)
    return float(np.min(diag - radii))


def smallest_eigenpairs(form: sp.spmatrix, mass: np.ndarray, m: int, shift=None):
    """m algebraically smallest eigenpairs of form x = sigma * mass * x.

    Shift-invert Lanczos (ARPACK) with the factorization of (form - shift*mass);
    when no shift is given a Gershgorin bound below the spectrum is used so the
    nearest eigenvalues are the smallest ones.  Eigenvectors come back
    mass-orthonormal; residuals are verified against 1e-8 * ||form x||.
    """
    form = sp.csr_matrix(form)
    mass = np.asarray(mass, dtype=float)
    dim = form.shape[0]
    if m > dim:
        raise TooManyRequested(f"requested {m} eigenpairs of a {dim}-dim pencil")
    if m <= 0:
        raise ValueError("m must be >= 1")
    if np.any(mass <= 0):
        raise ValueError("mass must be positive on active nodes")
    Msp = sp.diags(mass)
    if m > dim - 2 or dim < 64:
        # ARPACK needs k < n-1; small/dense cases go to LAPACK directly
        import scipy.linalg as sla
        w, v = sla.eigh(form.toarray(), np.diag(mass))
        pairs = [(float(w[i]), v[:, i]) for i in range(m)]
        return _verified(form, mass, pairs)
    if shift is None:
        shift = _gershgorin_lower_bound(form, mass) - 1.0
    v0 = np.full(dim, 1.0 / np.sqrt(dim))
    try:
        vals, vecs = spla.eigsh(form, k=m, M=Msp, sigma=shift, which="LM", v0=v0)
    except RuntimeError as exc:
        if dim <= 4000:
            # clustered/degenerate spectra starve the Arnoldi cycle; go dense
            import scipy.linalg as sla
            w, v = sla.eigh(form.toarray(), np.diag(mass))
            return _verified(form, mass, [(float(w[i]), v[:, i]) for i in range(m)])
        raise FactorizationFailure(
            f"shift {shift} appears to hit an eigenvalue: {exc}") from exc
    order = np.argsort(vals)
    pairs = [(float(vals[i]), vecs[:, i]) for i in order]
    return _verified(form, mass, pairs)


def _verified(form, mass, pairs):
    out = []
    for sigma, x in pairs:
        nx = np.sqrt(np.dot(mass * x, x))
        x = x / nx
        ax = form @ x
        res = np.linalg.norm(ax - sigma * mass * x)
        scale = max(np.linalg.norm(ax), 1e-300)
        if res > 1e-8 * scale:
            # one inverse-iteration refinement against the verified bound
            try:
                lu = banded_lu(form - (sigma + 1e-12) * sp.diags(mass))
                y = lu.solve(mass * x)
                y /= np.sqrt(np.dot(mass * y, y))
                sigma = float(np.dot(y, form @ y))
                x = y
            except FactorizationFailure:
                pass
        out.append((sigma, x))
    return out
