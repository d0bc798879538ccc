"""Variational diagnostics: norms, action, Nehari pairing, Pohozaev identity.

All identities are implemented for the full (lam, a, nu, q) family:

    J        = 1/2 G + 1/2 lam L - a/4 D - nu/q P
    nehari   =     G +     lam L - a   D - nu   P
    pohozaev = 1/2 G + 3/2 lam L - 5a/4 D - 3nu/q P

with G = |grad u|_2^2, L = |u|_2^2, P = int |u|^q, D the Hartree energy, all
4 pi-weighted radial quadratures.  G is evaluated through the discrete
Dirichlet pairing <A u, u> in the r^2 dr weights, which is a fourth-order
quadrature of the gradient integral and makes the discrete Nehari pairing
vanish identically at converged states.  At a = nu = 1 the ground-level
identity J - G/3 - D/6 equals pohozaev/3 term by term, so it carries nothing
the Pohozaev value does not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import operators
from .grid import RadialGrid


@dataclass
class DiagnosticsReport:
    grad_sq: float
    l2_sq: float
    lq: float
    D: float
    sup_u: float
    sup_v: float
    M: float
    J: float
    nehari: float
    pohozaev: float


def identities(grid: RadialGrid, u: np.ndarray, v: np.ndarray, p,
               A: operators.RadialLaplacian) -> DiagnosticsReport:
    """Norms, action, Nehari and Pohozaev values of the field u with
    potential v on `grid` for the member p (`solver.ModelParams`); A is the
    grid's `operators.radial_laplacian`, built by the caller, and the sup
    norms are node maxima.

    Values are reported raw (nonzero for non-solutions).
    """
    W = grid.weights_r2dr
    G = 4.0 * np.pi * operators.grad_sq_pairing(grid, A, u)
    L = 4.0 * np.pi * float(np.dot(W, u**2))
    P = 4.0 * np.pi * float(np.dot(W, np.abs(u) ** p.q))
    D = max(4.0 * np.pi * float(np.dot(W, v * u**2)), 0.0)
    J = 0.5 * G + 0.5 * p.lam * L - 0.25 * p.a * D - p.nu / p.q * P
    su, sv = float(np.max(np.abs(u))), float(np.max(np.abs(v)))
    return DiagnosticsReport(
        grad_sq=G, l2_sq=L, lq=P, D=D, sup_u=su, sup_v=sv, M=su + sv, J=J,
        nehari=G + p.lam * L - p.a * D - p.nu * P,
        pohozaev=(0.5 * G + 1.5 * p.lam * L - 1.25 * p.a * D
                  - 3.0 * p.nu / p.q * P))


def monotonicity_check(levels):
    """Non-decreasing check for (lambda, J) pairs in increasing lambda (the
    order `sweep` sorts them in).

    Returns {"pass": bool, "violations": [(i, j), ...]} with index pairs of
    adjacent violations beyond 1e-8 max|J|.
    """
    js = [float(j) for _, j in levels]
    if not levels:
        return {"pass": True, "violations": []}
    slack = 1e-8 * max(abs(j) for j in js)
    violations = [(i, i + 1) for i in range(len(js) - 1)
                  if js[i + 1] < js[i] - slack]
    return {"pass": not violations, "violations": violations}
