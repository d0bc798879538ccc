r"""Reference implementations the tests compare the package against.

`apply_jacobian` is the matrix-free Jacobian the banded Newton step is checked
against; `hartree_potential` and `hartree_energy` evaluate the Newtonian
potential, its far-field mass and line integral, and the Hartree energy of a
field from the one Coulomb sweep, `hartree.coulomb_apply`.
`savetxt_table_csv` is the row-by-row writer `grid.write_table_csv` must
match byte for byte.
`radial_laplacian_csr` is -Delta_r as a CSR matrix with the row layout of
`operators`, the reference `operators.radial_laplacian` must apply to the
last bit.
`shifted_bands`, `step_template`, `step_matrix` and `newton_step` assemble
the warm start's S + lam W and the Newton step from `operators.dirichlet_form`
as a CSR matrix and `radial_laplacian_csr`, reading their
diagonals and origin row back out; the solver, which assembles both from the
weighted bands, must match them bit for bit.
`physical_solve` is a state solved on its own physical domain, 28 / sqrt(lam),
from a Gaussian at its decay scale (`gaussian_guess`), as `solver.solve` did
before it solved every state as its normal-form member at lam = 1 and mapped
it out; `solve` is held to it.
`csr_of` and `bands_of` turn a `operators.SymmetricBands` into a CSR matrix
and back.  `sector_form_csr` assembles a sector pair form with
`scipy.sparse` as the package did before it held the form as its bands,
`shifted_csc` and `splu_inertia` are the CSC matrix and the `splu`
factorization `operators._inertia` must reproduce.  `arpack_eigenpairs` is
ARPACK's shift-invert eigensolve (`eigsh`), which certified the sectors by
computing eigenpairs before they were certified by counting, and
`dense_sector_pencil` the dense eigh of a sector's Schur complement
(`dense_schur`): the references the counts, Temple's enclosures and the
Davis-Kahan angles are held to.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dgbsv

from sngs import operators
from sngs.grid import EVEN, ODD, make_grid
from sngs.hartree import coulomb_apply, green_bands
from sngs.solver import (R_MAX, ModelParams, _dpower, linearization,
                         newton_solve)


def radial_laplacian_csr(grid) -> sp.csr_matrix:
    """-Delta_r as an (n, n) CSR matrix: the weighted bands of even parity
    divided by the r^2 dr weight of their row, under `operators.origin_row`,
    and the two Dirichlet identity rows."""
    n = grid.n
    w = grid.weights_r2dr[1:n - 2]
    diag, up1, up2 = operators._weighted_bands(grid, EVEN)
    a00, a01, a02 = operators.origin_row(grid)
    return sp.diags(
        [np.r_[0.0, up2[:-2] / w[2:], 0.0, 0.0],   # (2, 0) carries r_0 = 0
         np.r_[0.0, up1[:-1] / w[1:], 0.0, 0.0],   # so does (1, 0)
         np.r_[a00, diag / w, 1.0, 1.0],
         np.r_[a01, up1 / w, 0.0],
         np.r_[a02, up2 / w]],
        [-2, -1, 0, 1, 2], shape=(n, n), format="csr")


def apply_jacobian(grid, uv: np.ndarray, d: np.ndarray,
                   params: ModelParams) -> np.ndarray:
    """Matrix-free J(u) delta on `grid`, with the nonlocal screening term
    -a u (I_2 * (2 u delta)) from the same two-sweep as the potential."""
    A = radial_laplacian_csr(grid)
    v = coulomb_apply(grid, uv**2)
    pot = params.lam - params.a * v - params.nu * _dpower(uv, params.q - 1.0)
    pot[-2:] = 0.0   # keep the Dirichlet pad rows as pure identities
    screen = params.a * uv * coulomb_apply(grid, 2.0 * uv * d)
    screen[-2:] = 0.0
    return A @ d + pot * d - screen


@dataclass
class HartreePotential:
    v: np.ndarray
    mass: float            # \int_0^rmax u^2 s^2 ds
    line_integral: float   # I(u) = \int_0^rmax u^2 s ds


def hartree_potential(grid, u: np.ndarray) -> HartreePotential:
    r"""Potential, far-field mass and line integral of a radial field."""
    rho = u * u
    v = coulomb_apply(grid, rho)
    r, h = grid.nodes, grid.h
    f2 = rho * r * r
    f1 = rho * r
    mass = float(np.sum(0.5 * h * (f2[1:] + f2[:-1])))
    line = float(np.sum(0.5 * h * (f1[1:] + f1[:-1]))) + (h * h / 12.0) * rho[0]
    return HartreePotential(v=v, mass=mass, line_integral=line)


def hartree_energy(grid, u: np.ndarray) -> float:
    r"""D(u) = \int (I_2 * u^2) u^2 dx = 4 pi \int v u^2 r^2 dr (no 1/4 factor)."""
    v = coulomb_apply(grid, u * u)
    val = 4.0 * np.pi * float(np.dot(grid.weights_r2dr, v * u**2))
    return max(val, 0.0)


def gaussian_guess(grid, lam=1.0) -> np.ndarray:
    """exp(-sqrt(lam) r^2 / 4), the bump at the lam decay scale, zero on the
    Dirichlet pad."""
    vals = np.exp(-math.sqrt(lam) * grid.nodes**2 / 4.0)
    vals[-2:] = 0.0
    return vals


def physical_solve(params: ModelParams, n: int, r_max=None):
    """`newton_solve` of `params` on make_grid(R_MAX / sqrt(lam), n), or on
    [0, r_max] when it is given, from `gaussian_guess`."""
    grid = make_grid(r_max or R_MAX / math.sqrt(params.lam), n)
    return newton_solve(grid, gaussian_guess(grid, params.lam), params)


def savetxt_table_csv(path, header, rows) -> None:
    """CSV with a header line and CRLF rows at 17 significant digits."""
    np.savetxt(path, rows, fmt="%.17g", delimiter=",", newline="\r\n",
               header=",".join(header), comments="")


def shifted_bands(grid, lam: float) -> np.ndarray:
    """S + lam W on the active nodes in upper banded storage, S the CSR
    Dirichlet form."""
    n = grid.n
    S = csr_of(operators.dirichlet_form(grid))
    ab = np.zeros((3, n - 3))
    ab[0, 2:] = S.diagonal(2)
    ab[1, 1:] = S.diagonal(1)
    ab[2] = S.diagonal() + lam * grid.weights_r2dr[1:n - 2]
    return ab


def step_template(grid) -> np.ndarray:
    """The (9, 2m) band rows of the Newton pair form's fixed entries, D S D
    and T_0, in interleaved dgbsv storage, S the CSR Dirichlet form."""
    m = grid.n - 3
    S = csr_of(operators.dirichlet_form(grid))
    scale = np.sqrt(grid.weights_r2dr[1:m + 1])
    diag, off = green_bands(0, m, grid.h)
    fixed = np.zeros((9, 2 * m))
    for k in (1, 2):
        band = S.diagonal(k) / (scale[:-k] * scale[k:])
        fixed[4 - 2 * k, 2 * k::2] = band
        fixed[4 + 2 * k, :-2 * k:2] = band
    fixed[4, ::2] = S.diagonal() / scale ** 2
    fixed[4, 1::2] = diag
    fixed[2, 3::2] = off
    fixed[6, 1:-2:2] = off
    return fixed


def step_matrix(u, v, params: ModelParams, grid) -> np.ndarray:
    """The (9, 2m) band rows the Newton step hands to dgbsv at (u, v):
    `step_template` plus the u-dependent entries of `linearization`."""
    h, act = grid.h, slice(1, grid.n - 2)
    pot, b = linearization(u, v, params, h)
    band = step_template(grid)
    band[4, ::2] += pot[act]
    band[3, 1::2] = band[5, ::2] = math.sqrt(h) * b[act]
    return band


def newton_step(u, v, F, params: ModelParams, grid) -> np.ndarray:
    """The Newton step d of J(u) d = -F on the active rows: `step_matrix`
    solved by dgbsv, with d_0, which no active row reads, left at 0."""
    act, m = slice(1, grid.n - 2), grid.n - 3
    scale = np.sqrt(grid.weights_r2dr[1:m + 1])
    ab = np.empty((13, 2 * m), order="F")
    ab[4:] = step_matrix(u, v, params, grid)
    rhs = np.empty(2 * m)
    rhs[::2] = -scale * F[act]
    rhs[1::2] = 0.0
    _, _, x, info = dgbsv(4, 4, ab, rhs, overwrite_ab=True, overwrite_b=True)
    if info != 0:
        raise ValueError(f"singular band matrix (info {info})")
    d = np.zeros(grid.n)
    d[act] = x[::2] / scale
    return d


def csr_of(form: operators.SymmetricBands) -> sp.csr_matrix:
    """The symmetric banded form as a CSR matrix."""
    offsets = sorted(form.upper)
    return sp.diags([form.upper[k] for k in reversed(offsets)] + [form.diag]
                    + [form.upper[k] for k in offsets],
                    [-k for k in reversed(offsets)] + [0] + offsets,
                    shape=(len(form.diag),) * 2, format="csr")


def bands_of(A) -> operators.SymmetricBands:
    """A symmetric sparse matrix as its bands: the diagonal and every upper
    band that holds a nonzero."""
    coo = sp.coo_matrix(A)
    offsets = sorted(set((coo.col - coo.row)[coo.col > coo.row].tolist()))
    return operators.SymmetricBands(A.diagonal().astype(float),
                                    {k: A.diagonal(k).astype(float)
                                     for k in offsets})


def sector_form_csr(state, k) -> sp.csr_matrix:
    """The sector-k pair form [[S + W (pot + k(k+1)/r^2), B], [B, T_k]]
    assembled with scipy.sparse."""
    grid = state.grid
    diag, up1, up2 = operators._weighted_bands(grid, EVEN if k == 0 else ODD)
    off1, off2 = up1[:-1], up2[:-2]
    S = sp.diags([off2, off1, diag, off1, off2], [-2, -1, 0, 1, 2], format="csr")
    act = operators.active_slice(grid)
    Wa = grid.weights_r2dr[act]
    pot, b = linearization(state.u, state.v, state.params, grid.h)
    lead = S + sp.diags(Wa * (pot[act] + k * (k + 1) / grid.nodes[act] ** 2))
    B = sp.diags(grid.h * grid.nodes[act] * b[act])
    tdiag, toff = green_bands(k, len(act), grid.h)
    return sp.bmat([[lead, B],
                    [B, sp.diags([toff, tdiag, toff], [-1, 0, 1])]]).tocsr()


def shifted_csc(form, mass, tau) -> sp.csc_matrix:
    """form - tau * M in CSC, M = diag(mass) zero past len(mass), by scipy's
    sparse arithmetic."""
    M = sp.dia_matrix((mass[None], [0]), shape=form.shape)
    return sp.csc_matrix(form - tau * M)


def splu_inertia(form, mass, tau):
    """(splu object, negative pivots, nnz(L) + nnz(U)) of form - tau * M
    factored by scipy's splu with the options of `operators._inertia`."""
    lu = spla.splu(shifted_csc(form, mass, tau), permc_spec="MMD_AT_PLUS_A",
                   diag_pivot_thresh=0.0, panel_size=operators.PANEL_SIZE,
                   options=dict(SymmetricMode=True))
    return lu, int(np.count_nonzero(lu.U.diagonal() < 0.0)), lu.U.nnz + lu.L.nnz


def arpack_eigenpairs(form, mass, above, split):
    """(values ascending, mass-orthonormal vectors, solves) of the `above`
    lowest pencil eigenpairs above `split`, by ARPACK's shift-invert Lanczos
    (eigsh, which="LA", tol 1e-12, start vector 1/sqrt(dim)) in standard form
    through the splu LDL^T at the split."""
    lu = splu_inertia(form, mass, split)[0]
    s = np.sqrt(mass)
    dim = len(s)
    rhs = np.zeros(lu.shape[0])
    solves = 0

    def apply(y):
        nonlocal solves
        solves += 1
        np.multiply(s, y, out=rhs[:dim])
        return s * lu.solve(rhs)[:dim]
    inv = spla.LinearOperator((dim, dim), matvec=apply, dtype=float)
    w, y = spla.eigsh(inv, k=above, sigma=split, which="LA",
                      v0=np.full(dim, 1.0 / np.sqrt(dim)), OPinv=inv,
                      tol=1e-12)
    order = np.argsort(w)
    return w[order], y[:, order] / s[:, None], solves


def dense_schur(op) -> np.ndarray:
    """L_k of the sector operator `op` as a dense matrix: the leading block
    of its pair form less B T_k^-1 B."""
    A = csr_of(op.form).toarray()
    N = len(op.mass)
    return A[:N, :N] - A[:N, N:] @ np.linalg.solve(A[N:, N:], A[N:, :N])


def dense_sector_pencil(op):
    """(eigenvalues ascending, mass-orthonormal eigenvectors) of the sector
    pencil (L_k, M) of `op` by scipy's dense eigh."""
    import scipy.linalg as sla
    return sla.eigh(dense_schur(op), np.diag(op.mass))
