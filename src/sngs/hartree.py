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
on the active nodes (`solver`), and `linearized` builds all k.
"""

from __future__ import annotations

import math

import numpy as np

from .grid import RadialGrid


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

