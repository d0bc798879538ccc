r"""Newtonian potential of a radial density by the Newton-theorem reduction.

For radial u the 3D convolution v = I_2 * u^2 (I_2 the Green function of
-Laplace) collapses to two one-dimensional sweeps,

    v(r) = (1/r) \int_0^r u(s)^2 s^2 ds + \int_r^inf u(s)^2 s ds,

with the tail beyond r_max treated as zero (states decay exponentially; the
boundary value is the exact Coulomb tail m/r_max).  Cumulative trapezoid plus
the Euler-Maclaurin endpoint term -(h^2/12) u(r)^2 makes the sweep fourth-order
while keeping the discrete kernel exactly symmetric in the r^2 dr weights,
which the Jacobian self-adjointness and D >= 0 rely on.  `green_bands`, the
tridiagonal inverse of the sector-k kernel, serves Newton (k = 0) and sectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import EVEN, RadialField, RadialGrid


@dataclass
class HartreePotential:
    v: RadialField
    mass: float            # \int_0^rmax u^2 s^2 ds
    line_integral: float   # I(u) = \int_0^rmax u^2 s ds


def coulomb_apply(grid: RadialGrid, density: np.ndarray) -> np.ndarray:
    """I_2 * rho for a radial density given by nodal values (two sweeps)."""
    r, h, n = grid.nodes, grid.h, grid.n
    f2 = density * r * r
    f1 = density * r
    cum2 = np.empty(n)
    cum2[0] = 0.0
    np.cumsum(0.5 * h * (f2[1:] + f2[:-1]), out=cum2[1:])
    cum1 = np.empty(n)
    cum1[0] = 0.0
    np.cumsum(0.5 * h * (f1[1:] + f1[:-1]), out=cum1[1:])
    tail = cum1[-1] - cum1
    v = np.empty(n)
    v[0] = tail[0]
    v[1:] = cum2[1:] / r[1:] + tail[1:]
    # Euler-Maclaurin endpoint terms: the interior error of the sweep is
    # +(h^2/12) rho(r); at the origin only the line integral remains and its
    # trapezoid error flips sign
    v -= (h * h / 12.0) * density
    v[0] += (h * h / 6.0) * density[0]
    v[-1] = cum2[-1] / r[-1]   # exact Coulomb value m / r_max
    return v


def green_bands(k: int, m: int, h: float):
    """(diag, off) of the tridiagonal inverse of the sector-k kernel
    r_<^(k+1) r_>^(-k) / (2k+1) = h a_min b_max on r_i = i h, i = 1..m,
    a_i = i^(k+1), b_i = i^(-k) / (2k+1) (Vandebril, Van Barel & Mastronardi
    2008); the Wronskians a_(i+1) b_i - a_i b_(i+1) are binomial sums."""
    c = 2 * k + 1
    i = np.arange(m + 1.0)
    inv_p = 1.0 / sum(math.comb(c, j) * i ** j for j in range(c))
    diag = c * i[1:] ** (2 * k) * (inv_p[:-1] + np.r_[inv_p[1:-1], 0.0])
    return diag / h, -c * (i[1:-1] * i[2:]) ** k * inv_p[1:-1] / h


def coulomb_inverse_bands(grid: RadialGrid):
    """Exact inverse of coulomb_apply without its Euler-Maclaurin diagonal.

    Returns (diag, off, src, em) such that coulomb_apply(rho) = w + em * rho,
    where y on nodes 1..n-1 solves the tridiagonal system
    tridiag(off, diag, off) y = (src * rho)[1:], w_i = y_i / r_i for i >= 1
    and w_0 = y_1 / r_1.  The sweep kernel is c_j r_j min(r_i, r_j) / r_i
    (c_j the trapezoid weight): min(r_i, r_j) is the k = 0 kernel of
    `green_bands`.
    """
    r, h, n = grid.nodes, grid.h, grid.n
    diag, off = green_bands(0, n - 1, h)
    src = h * r
    src[-1] *= 0.5
    em = np.full(n, -h * h / 12.0)
    em[0] = h * h / 12.0
    em[-1] = 0.0
    return diag, off, src, em


def hartree_potential(u: RadialField) -> HartreePotential:
    r"""Potential, far-field mass and line integral of a radial field."""
    grid = u.grid
    rho = u.values * u.values
    v = coulomb_apply(grid, rho)
    r, h = grid.nodes, grid.h
    f2 = rho * r * r
    f1 = rho * r
    mass = float(np.sum(0.5 * h * (f2[1:] + f2[:-1])))
    line = float(np.sum(0.5 * h * (f1[1:] + f1[:-1]))) + (h * h / 12.0) * rho[0]
    vf = RadialField(grid=grid, values=v, parity=EVEN)
    return HartreePotential(v=vf, mass=mass, line_integral=line)


def hartree_energy(u: RadialField) -> float:
    r"""D(u) = \int (I_2 * u^2) u^2 dx = 4 pi \int v u^2 r^2 dr (no 1/4 factor)."""
    grid = u.grid
    v = coulomb_apply(grid, u.values * u.values)
    val = 4.0 * np.pi * float(np.dot(grid.weights_r2dr, v * u.values**2))
    return max(val, 0.0)
