r"""Reference implementations the tests compare the package against.

`apply_jacobian` is the matrix-free Jacobian the banded Newton step is checked
against; `hartree_potential` and `hartree_energy` evaluate the Newtonian
potential, its far-field mass and line integral, and the Hartree energy of a
field from the one Coulomb sweep, `hartree.coulomb_apply`.
`savetxt_table_csv` is the row-by-row writer `grid.write_table_csv` must
match byte for byte.
`shifted_bands`, `step_template` and `newton_step` assemble the warm start's
S + lam W and the Newton step from the CSR `operators.dirichlet_form` and
`operators.radial_laplacian`, reading their diagonals and origin row back
out; the solver, which assembles both from the weighted bands, must match
them bit for bit.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgbsv

from sngs import operators
from sngs.hartree import coulomb_apply, green_bands
from sngs.solver import ModelParams, _dpower, linearization


def apply_jacobian(grid, uv: np.ndarray, d: np.ndarray,
                   params: ModelParams) -> np.ndarray:
    """Matrix-free J(u) delta on `grid`, with the nonlocal screening term
    -a u (I_2 * (2 u delta)) from the same two-sweep as the potential."""
    A = operators.radial_laplacian(grid)
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


def savetxt_table_csv(path, header, rows) -> None:
    """CSV with a header line and CRLF rows at 17 significant digits."""
    np.savetxt(path, rows, fmt="%.17g", delimiter=",", newline="\r\n",
               header=",".join(header), comments="")


def shifted_bands(grid, lam: float) -> np.ndarray:
    """S + lam W on the active nodes in upper banded storage, S the CSR
    Dirichlet form."""
    n = grid.n
    S = operators.dirichlet_form(grid)
    ab = np.zeros((3, n - 3))
    ab[0, 2:] = S.diagonal(2)
    ab[1, 1:] = S.diagonal(1)
    ab[2] = S.diagonal() + lam * grid.weights_r2dr[1:n - 2]
    return ab


def step_template(grid) -> np.ndarray:
    """The (9, 2m) band rows of the Newton pair form's fixed entries, D S D
    and T_0, in interleaved dgbsv storage, S the CSR Dirichlet form."""
    m = grid.n - 3
    S = operators.dirichlet_form(grid)
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


def newton_step(u, v, F, params: ModelParams, grid) -> np.ndarray:
    """The Newton step d of J(u) d = -F: `step_template` plus the
    u-dependent entries solved by dgbsv, and d_0 from row 0 of the CSR
    -Delta_r."""
    h, act, m = grid.h, slice(1, grid.n - 2), grid.n - 3
    scale = np.sqrt(grid.weights_r2dr[1:m + 1])
    pot, b = linearization(u, v, params, h)
    ab = np.empty((13, 2 * m), order="F")
    band = ab[4:]
    np.copyto(band, step_template(grid))
    band[4, ::2] += pot[act]
    band[3, 1::2] = band[5, ::2] = math.sqrt(h) * b[act]
    rhs = np.empty(2 * m)
    rhs[::2] = -scale * F[act]
    rhs[1::2] = 0.0
    _, _, x, info = dgbsv(4, 4, ab, rhs, overwrite_ab=True, overwrite_b=True)
    if info != 0:
        raise ValueError(f"singular band matrix (info {info})")
    d = np.zeros(grid.n)
    d[act] = x[::2] / scale
    A = operators.radial_laplacian(grid)
    a00, a01, a02 = A[0, :3].toarray().ravel()
    screen = b[0] * np.dot(h * grid.nodes[act] * b[act], d[act])
    d[0] = (screen - F[0] - a01 * d[1] - a02 * d[2]) / (a00 + pot[0])
    return d
