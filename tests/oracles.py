r"""Reference implementations the tests compare the package against.

`apply_jacobian` is the matrix-free Jacobian the banded Newton step is checked
against; `hartree_potential` and `hartree_energy` evaluate the Newtonian
potential, its far-field mass and line integral, and the Hartree energy of a
field from the one Coulomb sweep, `hartree.coulomb_apply`.
"""

from dataclasses import dataclass

import numpy as np

from sngs import operators
from sngs.grid import RadialField
from sngs.hartree import coulomb_apply
from sngs.solver import ModelParams, _dpower


def apply_jacobian(u: RadialField, delta: RadialField, params: ModelParams) -> RadialField:
    """Matrix-free J(u) delta, with the nonlocal screening term
    -a u (I_2 * (2 u delta)) from the same two-sweep as the potential."""
    if delta.grid != u.grid:
        raise ValueError("direction lives on a different grid")
    grid, uv, d = u.grid, u.values, delta.values
    A = operators.radial_laplacian(grid)
    v = coulomb_apply(grid, uv**2)
    pot = params.lam - params.a * v - params.nu * _dpower(uv, params.q - 1.0)
    pot[-2:] = 0.0   # keep the Dirichlet pad rows as pure identities
    screen = params.a * uv * coulomb_apply(grid, 2.0 * uv * d)
    screen[-2:] = 0.0
    y = A @ d + pot * d - screen
    return RadialField(grid=grid, values=y)


@dataclass
class HartreePotential:
    v: RadialField
    mass: float            # \int_0^rmax u^2 s^2 ds
    line_integral: float   # I(u) = \int_0^rmax u^2 s ds


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
    vf = RadialField(grid=grid, values=v)
    return HartreePotential(v=vf, mass=mass, line_integral=line)


def hartree_energy(u: RadialField) -> float:
    r"""D(u) = \int (I_2 * u^2) u^2 dx = 4 pi \int v u^2 r^2 dr (no 1/4 factor)."""
    grid = u.grid
    v = coulomb_apply(grid, u.values * u.values)
    val = 4.0 * np.pi * float(np.dot(grid.weights_r2dr, v * u.values**2))
    return max(val, 0.0)
