"""Variational diagnostics: norms, action, Nehari pairing, Pohozaev identity.

All identities are implemented for the full (lam, a, nu, q) family:

    J        = 1/2 G + 1/2 lam L - a/4 D - nu/q P
    nehari   =     G +     lam L - a   D - nu   P
    pohozaev = 1/2 G + 3/2 lam L - 5a/4 D - 3nu/q P

with G = |grad u|_2^2, L = |u|_2^2, P = int |u|^q, D the Hartree energy, all
4 pi-weighted radial quadratures.  G is evaluated through the discrete
Dirichlet pairing <A u, u> in the r^2 dr weights, which is a fourth-order
quadrature of the gradient integral and makes the discrete Nehari pairing
vanish identically at converged states.  The ground-level identity
J = 1/3 G + 1/6 D applies to the a=1, nu=1 family only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from . import operators
from .errors import UnsortedInput
from .grid import RadialField
from .solver import GroundState, _power


@dataclass
class DiagnosticsReport:
    grad_sq: float
    l2_sq: float
    lq: float
    D: float
    sup_u: float
    sup_v: float
    M: float
    J: Optional[float] = None
    nehari: Optional[float] = None
    pohozaev: Optional[float] = None
    level_identity_residual: Optional[float] = None

    def as_dict(self):
        return {k: v for k, v in self.__dict__.items()}


def _norms(u: RadialField, q: float, A: sp.csr_matrix):
    grid = u.grid
    W = grid.weights_r2dr
    G = 4.0 * np.pi * operators.grad_sq_pairing(grid, A, u.values)
    L = 4.0 * np.pi * float(np.dot(W, u.values**2))
    P = 4.0 * np.pi * float(np.dot(W, _power(np.abs(u.values), q)))
    return G, L, P


def norm_report(state: GroundState, A: sp.csr_matrix) -> DiagnosticsReport:
    """Norm fields only (no identities); sup norms from node maxima.  A is
    the state's `operators.radial_laplacian`, built by the caller."""
    G, L, P = _norms(state.u, state.params.q, A)
    W = state.grid.weights_r2dr
    D = 4.0 * np.pi * float(np.dot(W, state.v.values * state.u.values**2))
    su, sv = state.sup_u(), state.sup_v()
    return DiagnosticsReport(grad_sq=G, l2_sq=L, lq=P, D=max(D, 0.0),
                             sup_u=su, sup_v=sv, M=su + sv)


def identities(state: GroundState, A: sp.csr_matrix) -> DiagnosticsReport:
    """Full report with action, Nehari and Pohozaev values; A as in
    `norm_report`.

    Values are reported raw (nonzero for non-solutions); the ground-level
    residual |J - G/3 - D/6| is filled only for the a=1, nu=1 family.
    """
    rep = norm_report(state, A)
    p = state.params
    G, L, P, D = rep.grad_sq, rep.l2_sq, rep.lq, rep.D
    rep.J = 0.5 * G + 0.5 * p.lam * L - 0.25 * p.a * D - p.nu / p.q * P
    rep.nehari = G + p.lam * L - p.a * D - p.nu * P
    rep.pohozaev = (0.5 * G + 1.5 * p.lam * L - 1.25 * p.a * D
                    - 3.0 * p.nu / p.q * P)
    if p.a == 1.0 and p.nu == 1.0:
        rep.level_identity_residual = abs(rep.J - (G / 3.0 + D / 6.0))
    return rep


def monotonicity_check(levels):
    """Non-decreasing check for (lambda, J) pairs; lambdas must be increasing.

    Returns {"pass": bool, "violations": [(i, j), ...]} with index pairs of
    adjacent violations beyond 1e-8 max|J|.
    """
    lams = [float(l) for l, _ in levels]
    js = [float(j) for _, j in levels]
    if any(l2 <= l1 for l1, l2 in zip(lams, lams[1:])):
        raise UnsortedInput("lambdas must be strictly increasing")
    if not levels:
        return {"pass": True, "violations": []}
    slack = 1e-8 * max(abs(j) for j in js)
    violations = [(i, i + 1) for i in range(len(js) - 1)
                  if js[i + 1] < js[i] - slack]
    return {"pass": not violations, "violations": violations}
