"""Scaling maps onto the normalized families and limit-profile comparisons.

A state of the (lam, 1, 1, q) family maps onto a normalized family member,
u~(r) = lam^(-alpha) u(r / sqrt(lam)), in one of two forms:

    mu_form: alpha = 1/(q-2), solving
             -Delta w + w = mu (I_2*w^2) w + w^(q-1),  mu = lam^(-2(q-3)/(q-2))
    nu_form: alpha = 1, solving
             -Delta w + w = (I_2*w^2) w + nu w^(q-1),  nu = lam^(q-3)

`normal_form` is the one place alpha and the normalized parameters are
written.  lam < 1 takes the zero side's form and lam >= 1 the infinity
side's: the form whose small parameter is at most 1 (at lam = 1 both forms
give (1, 1, 1, q) and lam^alpha = 1).  The map acts on parameters only:
`limits` and `spectrum` solve the normal-form member itself at lam = 1, on
the domain of every lam = 1 state, and never move a field.  Under the map
F(u) = lam^(alpha+1) F~(u~), so the residual ratio |F| / (lam |u|) of
`solver.ground_state` is the same number in both sets of variables;
`limit_study` reads the physical mass of a member back through alpha.

The regime table says which small parameter goes to zero on each end of the
lambda axis, hence which reference profile (Kwong W or Choquard U) is the
limit; `limit_member` writes that profile as a family member at lam = 1, so
`solver.solve` computes it, on the same grid as the members it is compared
with, as it does every state.  `limit_study` is the whole `limits` verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import operators
from .errors import InvalidExponent
from .solver import GroundState, ModelParams

MU_FORM = "mu_form"
NU_FORM = "nu_form"
KWONG = "kwong"
CHOQUARD = "choquard"

RATIO_WINDOW = (1e-3, 1e3)

# (q < 3, lambda-end) -> (scaling form, limit profile, regime name)
_REGIMES = {
    (True, "zero"): (MU_FORM, KWONG, "q_low_lambda_zero"),
    (False, "zero"): (NU_FORM, CHOQUARD, "q_high_lambda_zero"),
    (True, "infinity"): (NU_FORM, CHOQUARD, "q_low_lambda_inf"),
    (False, "infinity"): (MU_FORM, KWONG, "q_high_lambda_inf"),
}


@dataclass
class LimitStudy:
    regime: str
    rows: list    # (lam, small parameter, sup, H1, M^(q-2)/lam, M/lam)
    distances_decreasing: bool
    final_sup_ok: bool
    ratios_in_window: bool
    zero_distance_lambdas: list

    @property
    def passed(self) -> bool:
        return (self.distances_decreasing and self.final_sup_ok
                and self.ratios_in_window and not self.zero_distance_lambdas)


def limit_regime(q: float, side: str):
    """(scaling form, limit profile, regime name) of the (q, lambda-end)
    regime."""
    if not (2.0 < q < 6.0) or q == 3.0:
        raise InvalidExponent(f"q = {q}")
    if side not in ("zero", "infinity"):
        raise ValueError(f"side must be 'zero' or 'infinity', got {side!r}")
    return _REGIMES[(q < 3.0, side)]


def limit_member(q: float, side: str) -> ModelParams:
    """The limit profile of the (q, side) regime as a family member: Kwong W
    is (1, 0, 1, q) and Choquard U is (1, 1, 0, q), q inert at nu = 0 and
    taken as 4."""
    if limit_regime(q, side)[1] == KWONG:
        return ModelParams(lam=1.0, a=0.0, nu=1.0, q=q)
    return ModelParams(lam=1.0, a=1.0, nu=0.0, q=4.0)


def normal_form(q: float, lam: float):
    """(alpha, normalized ModelParams) of the (lam, 1, 1, q) state:
    u~(r) = lam^(-alpha) u(r / sqrt(lam)) solves (1, mu, 1, q) or
    (1, 1, nu, q), in the form of lam's side of 1."""
    form = limit_regime(q, "zero" if lam < 1.0 else "infinity")[0]
    if form == MU_FORM:
        mu = lam ** (-2.0 * (q - 3.0) / (q - 2.0))
        return 1.0 / (q - 2.0), ModelParams(lam=1.0, a=mu, nu=1.0, q=q)
    return 1.0, ModelParams(lam=1.0, a=1.0, nu=lam ** (q - 3.0), q=q)


def small_parameter(q: float, lam: float) -> float:
    """mu or nu, whichever `normal_form(q, lam)` scales: at most 1, and the
    other of its a, nu is 1."""
    p = normal_form(q, lam)[1]
    return min(p.a, p.nu)


def limit_distance(u: np.ndarray, reference: GroundState):
    """(sup distance, H1 distance) between a normal-form field u on the
    reference's grid and that limit profile."""
    grid = reference.grid
    diff = u - reference.u
    sup = float(np.max(np.abs(diff)))
    A = operators.radial_laplacian(grid)
    gsq = operators.grad_sq_pairing(grid, A, diff)
    l2 = float(np.dot(grid.weights_r2dr, diff * diff))
    h1 = math.sqrt(4.0 * math.pi * (gsq + l2))
    return sup, h1


def limit_study(states: list, lams: list, side: str,
                reference: GroundState) -> LimitStudy:
    """The `limits` verdict on normal-form members and their limit profile.

    `states[i]` is the member `normal_form` gives for `lams[i]`, the lams on
    `side` of 1 and ordered toward the limit (decreasing for side='zero',
    increasing for side='infinity'); `reference` is the matching
    Kwong/Choquard profile, solved on the members' grid.

    M = sup u + sup v is the physical state's: by the map, u = lam^alpha u~
    and v = lam^(2 alpha - 1) v~.  Both mass ratios are tabulated; the one of
    the regime's limit (M^(q-2)/lam toward W, M/lam toward U) must lie in
    RATIO_WINDOW.  The sup and H1 distances must fall strictly, the last sup
    within 5% of sup(reference), and no member may equal the profile to the
    last bit: its small parameter underflowed or vanished against 1, so it
    compares nothing.
    """
    q = states[0].params.q
    _, kind, regime = limit_regime(q, side)
    rows = []
    for s, lam in zip(states, lams):
        alpha = normal_form(q, lam)[0]
        d = s.diagnostics
        M = lam ** alpha * d.sup_u + lam ** (2.0 * alpha - 1.0) * d.sup_v
        rows.append((lam, small_parameter(q, lam),
                     *limit_distance(s.u, reference),
                     M ** (q - 2.0) / lam, M / lam))
    j = 4 if kind == KWONG else 5
    lo, hi = RATIO_WINDOW
    return LimitStudy(
        regime=regime, rows=rows,
        distances_decreasing=all(b[2] < a[2] and b[3] < a[3]
                                 for a, b in zip(rows, rows[1:])),
        final_sup_ok=rows[-1][2] <= 0.05 * reference.diagnostics.sup_u,
        ratios_in_window=all(lo <= row[j] <= hi for row in rows),
        zero_distance_lambdas=[row[0] for row in rows if row[2] == 0.0])
