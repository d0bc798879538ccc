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
import scipy.sparse as sp

from . import operators
from .errors import UnsortedInput
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
    J: float
    nehari: float
    pohozaev: float


def identities(state: GroundState, A: sp.csr_matrix) -> DiagnosticsReport:
    """Norms, action, Nehari and Pohozaev values of `state`; A is its
    `operators.radial_laplacian`, built by the caller, and the sup norms
    are node maxima.

    Values are reported raw (nonzero for non-solutions).
    """
    p, u = state.params, state.u.values
    W = state.grid.weights_r2dr
    G = 4.0 * np.pi * operators.grad_sq_pairing(state.grid, A, u)
    L = 4.0 * np.pi * float(np.dot(W, u**2))
    P = 4.0 * np.pi * float(np.dot(W, _power(np.abs(u), p.q)))
    D = max(4.0 * np.pi * float(np.dot(W, state.v.values * u**2)), 0.0)
    J = 0.5 * G + 0.5 * p.lam * L - 0.25 * p.a * D - p.nu / p.q * P
    su, sv = state.sup_u(), state.sup_v()
    return DiagnosticsReport(
        grad_sq=G, l2_sq=L, lq=P, D=D, sup_u=su, sup_v=sv, M=su + sv, J=J,
        nehari=G + p.lam * L - p.a * D - p.nu * P,
        pohozaev=(0.5 * G + 1.5 * p.lam * L - 1.25 * p.a * D
                  - 3.0 * p.nu / p.q * P))


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
