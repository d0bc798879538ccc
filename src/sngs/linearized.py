"""Spherical-harmonics sector forms of the linearized operator, certified by counting.

In the harmonic sector k the perturbation f of u feels the quadratic form
(general lam, a and power weight nu)

  L_k(f, f) = int [f_r^2 + k(k+1) f^2 / r^2 + lam f^2] r^2 dr
              - a int v f^2 r^2 dr - nu (q-1) int u^(q-2) f^2 r^2 dr
              - 2a int u f G_k(u f) r^2 dr,

the pair form with the potential perturbation g minimized out
(g = sqrt(2a) G_k(u f)), G_k the whole-space sector-k Green's function
r_<^k / r_>^(k+1) / (2k+1) discretized as the Coulomb sweep is.  With v
eliminated this is the second derivative of the action at every a, so the
form is symmetric in every convention and sector 0 is the weighted Newton
Jacobian; its local diagonal and its coupling sqrt(2a) u come from
`solver.linearization`, which the Newton step solves with too.  Both are
unchanged by the map onto the paper's symmetric a=2 pair (s u, t v), with
t = a/2 and s = sqrt(t), so a state is certified in the convention it was
solved in.  At a=0 the form is the scalar linearization around the Kwong
profile beside T_k (B = 0), which adds no negative pivot to a count.
The nondegeneracy verdict has one fixed tolerance, GAP_TOL: the radial gap,
and the band (-GAP_TOL, GAP_TOL) in which the translation eigenvalue must lie.
The forms are plain linear algebra on any state; `nondegeneracy_report`
certifies only a state that `solver.acceptance_failures` accepts.

Every integral is the grid's one r^2 dr quadrature W; the centrifugal term is
the local potential k(k+1)/r^2 on W beside pot (r > 0 on the active nodes).
The form is one symmetric matrix in (f, y = r g), mass on f alone, held as
its bands (`operators.SymmetricBands`): S's three, the coupling B at offset
N = len(f) and T_k's two; `operators` eliminates its y block, G_k's
tridiagonal inverse `hartree.green_bands` (no boundary condition on g).  The
ordering of T_k over T_1 is checked by Gershgorin's bound (`ordering_gap`).
k=0 uses even parity at the origin, k>=1 odd; f vanishes on the two-node
Dirichlet pad at r_max.  `nondegeneracy_report` assembles, counts and
releases sectors 0 and 1 one at a time, so one sector form and one LDL^T
factorization of it are alive at once; every sector k >= 2 follows from
sector 1 by the ordering L_k > L_1.  No eigenvalue is computed: one LDL^T per
sector at +GAP_TOL counts the eigenvalues below it, and the state names the
vectors the counted ones are checked with, u in sector 0 (its Rayleigh
quotient, a witness below -GAP_TOL) and u' in sector 1 (one inverse-iteration
step from it through that LDL^T, enclosed by Temple's bound).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import operators
from .grid import EVEN, ODD, differentiate
from .hartree import green_bands
from .solver import GroundState, acceptance_failures, linearization

# The radial gap and the zero test's tolerance, and the shift of every sector
# LDL^T: a certified state has one sector-0 eigenvalue below -GAP_TOL, none
# in (-GAP_TOL, GAP_TOL), and one sector-1 eigenvalue inside it.
GAP_TOL = 1e-3


@dataclass
class SectorOperator:
    k: int
    form: operators.SymmetricBands   # symmetric weighted form on active nodes
    mass: np.ndarray             # diagonal r^2-weighted mass of f


def sector_form(state: GroundState, k: int) -> SectorOperator:
    """Assemble the sector-k quadratic form around the state."""
    if k < 0:
        raise ValueError("k >= 0")
    grid = state.grid
    S = operators.dirichlet_form(grid, EVEN if k == 0 else ODD)
    act = operators.active_slice(grid)
    N = len(act)
    Wa = grid.weights_r2dr[act]
    pot, b = linearization(state.u, state.v, state.params, grid.h)
    lead = S.diag + Wa * (pot[act] + k * (k + 1) / grid.nodes[act] ** 2)
    # y = r g; with W = h r^2 and the sweep's weights h r_j, B T_k^-1 B is
    # W b G_k(b .) less its Euler-Maclaurin term; B is the band at offset N,
    # and T_k's bands follow S's past node N
    diag, off = green_bands(k, N, grid.h)
    form = operators.SymmetricBands(
        np.concatenate([lead, diag]),
        {1: np.concatenate([S.upper[1], [0.0], off]),
         2: np.concatenate([S.upper[2], np.zeros(N)]),
         N: grid.h * grid.nodes[act] * b[act]})
    return SectorOperator(k=k, form=form, mass=Wa)


def ordering_gap(m: int, h: float) -> float:
    """Gershgorin's lower bound min_i (d_i - |e_(i-1)| - |e_i|) on the
    eigenvalues of T_2 - T_1 (diagonal d, off-diagonal e) on m nodes of
    spacing h: T_2 >= T_1 when it is > 0."""
    (d1, e1), (d2, e2) = (green_bands(k, m, h) for k in (1, 2))
    e = np.abs(e2 - e1)
    return float(np.min(d2 - d1 - np.r_[0.0, e] - np.r_[e, 0.0]))


def translation_mode(state: GroundState) -> np.ndarray:
    """d_r u on the state's grid: the sector-1 zero mode of the
    linearization."""
    return differentiate(state.grid, state.u)


@dataclass
class SectorEntry:
    """One sector's certificate by counting: the eigenvalues below +GAP_TOL
    counted by one LDL^T there, and what the state's vector adds to that
    count.  Sector 0 records the Rayleigh quotient of u (`witness`) and, only
    when that is not below -GAP_TOL, the count below -GAP_TOL from a second
    LDL^T (`below_split`).  A sector k >= 1 records the inverse-iteration
    step from u' (`inverse_step`): `enclosure` [lo, rho] of its lowest
    eigenvalue, rho the step's Rayleigh quotient and lo Temple's lower end
    (None unless the count isolates that eigenvalue below +GAP_TOL and
    rho < GAP_TOL), `residual` eta, and with lo the Davis-Kahan bound on the
    step's angle to its eigenvector (`davis_kahan`, radians) and the
    certified `zero_mode_match` of that eigenvector with u'."""
    k: int
    count_below: int             # eigenvalues below +GAP_TOL: the inertia count
    factorizations: int          # inertia LDL^T factorizations
    fill: int                    # nnz(L) + nnz(U) of the LDL^T at +GAP_TOL
    seconds: float               # wall time of the sector's certificate
    witness: Optional[float] = None
    below_split: Optional[int] = None
    enclosure: Optional[list] = None
    residual: Optional[float] = None
    davis_kahan: Optional[float] = None
    zero_mode_match: Optional[float] = None

    def record(self) -> dict:
        """The certificate as the spectrum JSON records it: the count, its
        cost and the fields of this sector's kind; the wall time is kept
        apart."""
        own = (("witness", "below_split") if self.k == 0 else
               ("enclosure", "residual", "davis_kahan", "zero_mode_match"))
        return {"k": self.k, "count_below": self.count_below,
                "factorizations": self.factorizations, "fill": self.fill,
                **{key: getattr(self, key) for key in own}}


@dataclass
class NondegeneracyReport:
    sectors: list                # sectors 0 and 1, none when under-resolved
    verdict: str
    higher_sectors: Optional[dict]   # the k >= 2 certificate: bound (None
                                     # unless sector 1's enclosure holds),
                                     # r_act, ordering_gap; None when
                                     # under-resolved
    under_resolved: Optional[str] = None   # why, when under-resolved


def _angle(M, x, y) -> float:
    """The angle between the lines of x and y in the inner product of M."""
    cos = abs(np.dot(M * x, y)) / math.sqrt(np.dot(M * x, x) * np.dot(M * y, y))
    return math.acos(min(1.0, cos))


def sector_spectrum(op: SectorOperator, probe: np.ndarray) -> SectorEntry:
    """Certify one sector by counting, with `probe` the state's vector on
    the active nodes: u in sector 0, u' in a sector k >= 1.

    One LDL^T at +GAP_TOL counts the eigenvalues below it.  Sector 0 adds
    the witness R(u) = u.L u / u.M u: below -GAP_TOL it places an eigenvalue
    there, so a count of 1 is the Morse index with no eigenvalue within
    GAP_TOL of zero; otherwise the sector is factored again at -GAP_TOL.  A
    sector k >= 1 takes one inverse-iteration step y from u' through its
    LDL^T, with Rayleigh quotient rho and residual eta (in the M^-1 norm).
    When the count is 1 and rho < GAP_TOL, the one eigenvalue sigma_1 below
    GAP_TOL is the sector's lowest and sigma_2 >= GAP_TOL, so Temple's
    inequality gives sigma_1 in [rho - eta^2 / (GAP_TOL - rho), rho] and
    Davis-Kahan sin(y, x_1) <= eta / (GAP_TOL - rho) for its eigenvector x_1.
    The match of x_1 with u' is then at least cos(angle(y, u') + that
    angle), the angles of lines in the M inner product."""
    t0 = time.perf_counter()
    if op.k == 0:
        count, fill, _ = operators.inverse_step(op.form, op.mass, GAP_TOL)
        witness = operators.rayleigh(op.form, op.mass, probe)[0]
        entry = SectorEntry(op.k, count, 1, fill, 0.0, witness=witness)
        if not witness < -GAP_TOL:   # NaN included
            entry.below_split = operators.count_below(op.form, op.mass,
                                                      -GAP_TOL)
            entry.factorizations = 2
    else:
        count, fill, y = operators.inverse_step(op.form, op.mass, GAP_TOL,
                                                probe)
        rho, eta = operators.rayleigh(op.form, op.mass, y)
        entry = SectorEntry(op.k, count, 1, fill, 0.0, enclosure=[None, rho],
                            residual=eta)
        if count == 1 and rho < GAP_TOL:
            gap = GAP_TOL - rho
            entry.enclosure[0] = rho - eta * eta / gap
            entry.davis_kahan = math.asin(min(1.0, eta / gap))
            entry.zero_mode_match = math.cos(min(
                math.pi / 2, _angle(op.mass, y, probe) + entry.davis_kahan))
    entry.seconds = time.perf_counter() - t0
    return entry


def nondegeneracy_report(state: GroundState) -> NondegeneracyReport:
    """Spectral certificate for nondegeneracy by counting: sectors 0 and 1
    certified (`sector_spectrum`), every sector k >= 2 bounded from sector 1.

    Sectors k >= 1 share S (odd parity), pot and B, so their Schur complements
    differ by L_k - L_1 = W (k(k+1) - 2) / r^2 + B (T_1^-1 - T_k^-1) B, and
    T_k >= T_1 (`hartree.green_bands`) makes the second term >= 0.  Weyl's
    bound on the pencil with mass W then gives, for every k >= 2 at once,
    sigma_min(L_k) >= sigma_min(L_1) + (k(k+1) - 2) / r_act^2, r_act the last
    active node.  `higher_sectors` records that bound at k = 2 with Temple's
    lower end for sigma_min(L_1) (None when sector 1 has no enclosure),
    r_act, and `ordering_gap`, Gershgorin's lower bound on the eigenvalues of
    T_2 - T_1, the ordering checked in floating point.

    nondegenerate: sector 0 counts one eigenvalue below +GAP_TOL and it lies
    below -GAP_TOL (by the witness, or by a count of 1 there), so the Morse
    index is 1 and no radial eigenvalue lies within GAP_TOL of zero; sector
    1 counts one eigenvalue below +GAP_TOL, Temple's lower end is above
    -GAP_TOL, so it is the one eigenvalue in (-GAP_TOL, GAP_TOL), and its
    eigenvector matches the translation mode u' to >= 0.999; the k >= 2 bound
    and ordering_gap are > 0.
    degenerate: either sector counts two or more eigenvalues below +GAP_TOL.
    under-resolved, before any form is assembled: `solver.acceptance_failures`
    refuses the state, or 50 h^2 >= 1, a grid so coarse (n - 1 below about
    7 r_max, 200 nodes on r_max = 28) that no zero test is asked of it;
    `under_resolved` says which.
    """
    h = state.grid.h
    why = None
    if acceptance_failures(state):
        why = "the acceptance rule refuses the state"
    elif 50.0 * h * h >= 1.0:
        why = (f"grid too coarse for a zero test: 50 h^2 = {50.0 * h * h:.4g}"
               " >= 1")
    if why:
        return NondegeneracyReport(sectors=[], verdict="under-resolved",
                                   higher_sectors=None, under_resolved=why)
    act = operators.active_slice(state.grid)
    probes = (state.u[act], translation_mode(state)[act])
    # each form dies with its certificate, so one sector is alive at a time
    s0, s1 = sectors = [sector_spectrum(sector_form(state, k), probes[k])
                        for k in (0, 1)]

    r_act = float(state.grid.nodes[act[-1]])
    lo = s1.enclosure[0]
    higher = {"bound": None if lo is None else lo + 4.0 / r_act ** 2,
              "r_act": r_act, "ordering_gap": ordering_gap(len(act), h)}

    radial_gap = s0.count_below == 1 and (s0.witness < -GAP_TOL
                                          or s0.below_split == 1)
    ok = (radial_gap and s1.count_below == 1 and lo is not None
          and lo > -GAP_TOL and s1.zero_mode_match >= 0.999
          and higher["bound"] > 0.0 and higher["ordering_gap"] > 0.0)
    if ok:
        verdict = "nondegenerate"
    elif max(s0.count_below, s1.count_below) >= 2:
        verdict = "degenerate"
    else:
        verdict = "inconclusive"
    return NondegeneracyReport(sectors=sectors, verdict=verdict,
                               higher_sectors=higher)
