r"""Newtonian potential of a radial density by the Newton-theorem reduction.

For radial u the 3D convolution v = I_2 * u^2 (I_2 the Green function of
-Laplace) collapses to two one-dimensional sweeps,

    v(r) = (1/r) \int_0^r u(s)^2 s^2 ds + \int_r^inf u(s)^2 s ds,

with the tail beyond r_max treated as zero (states decay exponentially; the
boundary value is the exact Coulomb tail m/r_max).  Cumulative trapezoid plus
the Euler-Maclaurin endpoint term -(h^2/12) u(r)^2 makes the sweep fourth-order
while keeping the discrete kernel exactly symmetric in the r^2 dr weights,
which the Jacobian self-adjointness and D >= 0 rely on.  `green_bands`, the
tridiagonal inverse of the sector-k kernel, is the potential block of every
pair form of the linearized operator: the Newton step solves the k = 0 form
on the active nodes (`solver`), and `linearized` builds k = 0, 1 and 2.
"""

from __future__ import annotations

import math

import numpy as np

from .grid import RadialGrid


def _trapezoid_sweep(f: np.ndarray, h: float, out: np.ndarray) -> None:
    """out[i] = cumulative trapezoid integral of f from node 0 to node i."""
    out[0] = 0.0
    np.add(f[1:], f[:-1], out=out[1:])
    out[1:] *= 0.5 * h
    np.cumsum(out[1:], out=out[1:])


def coulomb_apply(grid: RadialGrid, density: np.ndarray) -> np.ndarray:
    """I_2 * rho for a radial density given by nodal values (two sweeps),
    in three n-vectors: the integrand, the line integral and v."""
    r, h, n = grid.nodes, grid.h, grid.n
    f = density * r
    tail = np.empty(n)
    _trapezoid_sweep(f, h, tail)
    np.subtract(tail[-1], tail, out=tail)
    f *= r
    v = np.empty(n)
    _trapezoid_sweep(f, h, v)
    mass = v[-1]
    v[1:] /= r[1:]
    v[1:] += tail[1:]
    v[0] = tail[0]
    # Euler-Maclaurin endpoint terms: the interior error of the sweep is
    # +(h^2/12) rho(r); at the origin only the line integral remains and its
    # trapezoid error flips sign
    np.multiply(h * h / 12.0, density, out=f)
    v -= f
    v[0] += (h * h / 6.0) * density[0]
    v[-1] = mass / r[-1]   # exact Coulomb value m / r_max
    return v


def green_bands(k: int, m: int, h: float):
    """(diag, off) of the tridiagonal inverse of the sector-k kernel
    r_<^(k+1) r_>^(-k) / (2k+1) = h a_min b_max on r_i = i h, i = 1..m,
    a_i = i^(k+1), b_i = i^(-k) / (2k+1) (Vandebril, Van Barel & Mastronardi
    2008); the Wronskians a_(i+1) b_i - a_i b_(i+1) are binomial sums.

    The bands are ordered, T_k >= T_(k-1) for every k >= 1, and `linearized`
    certifies every sector k >= 2 with that.  T_k is the exact inverse of the
    sampled kernel G_k(r_i, r_j), G_k = r_<^(k+1) r_>^(-k) / (2k+1) being the
    Green's function of H_k = -d^2/dr^2 + k(k+1)/r^2 on (0, inf).
    H_k >= H_(k-1) gives H_(k-1)^-1 - H_k^-1 >= 0, whose continuous kernel is
    G_(k-1) - G_k, so every sampled Gram matrix of it is positive
    semidefinite; inverting G_(k-1)(r_i, r_j) >= G_k(r_i, r_j) > 0 reverses
    the order."""
    c = 2 * k + 1
    i = np.arange(m + 1.0)
    inv_p = 1.0 / sum(math.comb(c, j) * i ** j for j in range(c))
    diag = c * i[1:] ** (2 * k) * (inv_p[:-1] + np.r_[inv_p[1:-1], 0.0])
    return diag / h, -c * (i[1:-1] * i[2:]) ** k * inv_p[1:-1] / h

