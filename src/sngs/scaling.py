"""Scaling maps onto the normalized families and limit-profile comparisons.

A state of the (lam, 1, 1, q) family maps onto exactly one of two normalized
families, u~(r) = lam^(-alpha) u(r / sqrt(lam)):

    mu_form: alpha = 1/(q-2), solving
             -Delta w + w = mu (I_2*w^2) w + w^(q-1),  mu = lam^(-2(q-3)/(q-2))
    nu_form: alpha = 1, solving
             -Delta w + w = (I_2*w^2) w + nu w^(q-1),  nu = lam^(q-3)

`normal_form` is the one place alpha and the normalized parameters are
written.  The map acts on parameters only: `limits` and `spectrum` solve the
normal-form member itself at lam = 1, on the domain of every lam = 1 state,
and never move a field.  Under the map F(u) = lam^(alpha+1) F~(u~), so the
residual ratio |F| / (lam |u|) of `solver.ground_state` is the same number in
both sets of variables; `mass_ratio_report` reads the physical mass of a
member back through alpha.

The regime table says which small parameter goes to zero on each end of the
lambda axis, hence which reference profile (Kwong W or Choquard U) is the
limit; `limit_member` writes that profile as a family member at lam = 1, so
`solver.solve` computes it, on the same grid as the members it is compared
with, as it does every state.
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


@dataclass
class ScalingReport:
    regime: str
    rows: list            # (lam, small_parameter, sup_distance, h1_distance)
    mass_ratios: list     # (lam, M^(q-2)/lam, M/lam)
    ratios_in_window: bool

    def distances_decreasing(self) -> bool:
        sups = [r[2] for r in self.rows]
        h1s = [r[3] for r in self.rows]
        return (all(b < a for a, b in zip(sups, sups[1:]))
                and all(b < a for a, b in zip(h1s, h1s[1:])))


def limit_regime(q: float, side: str):
    """(scaling form, limit profile) for each (q, lambda-end) regime."""
    if not (2.0 < q < 6.0) or q == 3.0:
        raise InvalidExponent(f"q = {q}")
    if side not in ("zero", "infinity"):
        raise ValueError(f"side must be 'zero' or 'infinity', got {side!r}")
    low_q = q < 3.0
    if side == "zero":
        return (MU_FORM, KWONG) if low_q else (NU_FORM, CHOQUARD)
    return (NU_FORM, CHOQUARD) if low_q else (MU_FORM, KWONG)


def limit_member(q: float, side: str) -> ModelParams:
    """The limit profile of the (q, side) regime as a family member: Kwong W
    is (1, 0, 1, q) and Choquard U is (1, 1, 0, q), q inert at nu = 0 and
    taken as 4."""
    if limit_regime(q, side)[1] == KWONG:
        return ModelParams(lam=1.0, a=0.0, nu=1.0, q=q)
    return ModelParams(lam=1.0, a=1.0, nu=0.0, q=4.0)


def normal_member(q: float, lam: float) -> ModelParams:
    """The normal-form member the (lam, 1, 1, q) state rescales onto: lam < 1
    is the zero side, whose regime picks the mu- or nu-form."""
    form, _ = limit_regime(q, "zero" if lam < 1.0 else "infinity")
    return normal_form(q, lam, form)[1]


def small_parameter(q: float, lam: float, form: str) -> float:
    if form == MU_FORM:
        return lam ** (-2.0 * (q - 3.0) / (q - 2.0))
    if form == NU_FORM:
        return lam ** (q - 3.0)
    raise ValueError(form)


def normal_form(q: float, lam: float, form: str):
    """(alpha, normalized ModelParams) of the (lam, 1, 1, q) state in `form`:
    u~(r) = lam^(-alpha) u(r / sqrt(lam)) solves (1, mu, 1, q) or (1, 1, nu, q)."""
    eps = small_parameter(q, lam, form)
    if form == MU_FORM:
        return 1.0 / (q - 2.0), ModelParams(lam=1.0, a=eps, nu=1.0, q=q)
    return 1.0, ModelParams(lam=1.0, a=1.0, nu=eps, q=q)


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


def mass_ratio_report(states: list, lams: list, side: str):
    """Tabulate (M^(q-2)/lam, M/lam) per normal-form member of the (q, side)
    regime, `states[i]` the member of `lams[i]`.

    M = sup u + sup v is the physical state's: by the map, u = lam^alpha u~
    and v = lam^(2 alpha - 1) v~, with alpha from `normal_form`.  Both ratios
    are tabulated; the flag checks that the one of the regime's limit
    (M^(q-2)/lam toward W, M/lam toward U) lies in RATIO_WINDOW.
    """
    if not states:
        return [], True
    q = states[0].params.q
    form, kind = limit_regime(q, side)
    j = 1 if kind == KWONG else 2
    rows = []
    for s, lam in zip(states, lams):
        alpha, _ = normal_form(q, lam, form)
        d = s.diagnostics
        M = lam ** alpha * d.sup_u + lam ** (2.0 * alpha - 1.0) * d.sup_v
        rows.append((lam, M ** (q - 2.0) / lam, M / lam))
    lo, hi = RATIO_WINDOW
    return rows, all(lo <= row[j] <= hi for row in rows)


def limit_study(states: list, lams: list, side: str,
                reference) -> ScalingReport:
    """Distances of normal-form members to their limit profile plus mass
    ratios.

    `states[i]` is the member `normal_form` gives for `lams[i]` in the
    (q, side) regime, the lams ordered toward the limit (decreasing for
    side='zero', increasing for side='infinity'); `reference` is the
    matching Kwong/Choquard profile, solved on the members' grid.
    """
    if not states:
        raise ValueError("need at least one state")
    q = states[0].params.q
    form, _ = limit_regime(q, side)
    rows = []
    for s, lam in zip(states, lams):
        sup, h1 = limit_distance(s.u, reference)
        rows.append((lam, small_parameter(q, lam, form), sup, h1))
    ratios, ok = mass_ratio_report(states, lams, side)
    return ScalingReport(regime=regime_name(q, side), rows=rows,
                         mass_ratios=ratios, ratios_in_window=ok)


def regime_name(q: float, side: str) -> str:
    low_q = q < 3.0
    if side == "zero":
        return "q_low_lambda_zero" if low_q else "q_high_lambda_zero"
    return "q_low_lambda_inf" if low_q else "q_high_lambda_inf"
