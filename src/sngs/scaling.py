"""Limit regimes, the limit profiles and the `limits` verdict.

A state of the (lam, 1, 1, q) family is u(r) = s u~(sqrt(lam) r), u~ the
state of its member (1, mu, 1, q) or (1, 1, nu, q), in the form of lam's side
of 1: `normal_form`, the a = nu = 1 call of `solver.normal_member`.  `limits`
and `spectrum` solve the member itself; `limit_study` reads the physical
mass back through s and v's scale t.

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
from .solver import GroundState, ModelParams, normal_member

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
    is (1, 0, 1, q) and Choquard U is (1, 1, 0, q); q, inert in U, sets the
    domain it shares with its members (`solver.member_rmax`)."""
    if limit_regime(q, side)[1] == KWONG:
        return ModelParams(lam=1.0, a=0.0, nu=1.0, q=q)
    return ModelParams(lam=1.0, a=1.0, nu=0.0, q=q)


def normal_form(q: float, lam: float):
    """(s, member, t) of the (lam, 1, 1, q) state (`solver.normal_member`)."""
    return normal_member(ModelParams(lam=lam, a=1.0, nu=1.0, q=q))


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

    M = sup u + sup v is the physical state's, u = s u~ and v = t v~ by the
    map.  Both mass ratios are tabulated; the one of the regime's limit
    (M^(q-2)/lam toward W, M/lam toward U) must lie in RATIO_WINDOW.  The sup
    and H1 distances must fall strictly, the last sup within 5% of
    sup(reference), and no member may equal the profile to the last bit: its
    small parameter underflowed or vanished against 1, so it compares
    nothing.
    """
    q = states[0].params.q
    _, kind, regime = limit_regime(q, side)
    rows = []
    for st, lam in zip(states, lams):
        s, member, t = normal_form(q, lam)
        d = st.diagnostics
        M = s * d.sup_u + t * d.sup_v
        rows.append((lam, min(member.a, member.nu),
                     *limit_distance(st.u, reference),
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
