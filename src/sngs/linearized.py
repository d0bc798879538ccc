"""Spherical-harmonics sector forms of the linearized operator and spectra.

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
solved in.  For the pure power case (a=0) there is no potential and the form
is the scalar linearization around the Kwong profile.
The nondegeneracy verdict has fixed tolerances: GAP_TOL for the radial gap
and 50 h^2 sigma_2 for the translation zero mode.  A state enters only if
its residual ratio meets its GroundState.residual_bound.

Every integral is the grid's one r^2 dr quadrature W; the centrifugal term is
the local potential k(k+1)/r^2 on W beside pot (r > 0 on the active nodes).
The form is one symmetric matrix in (f, y = r g), mass on f alone; `operators`
eliminates its y block, G_k's tridiagonal inverse `hartree.green_bands` (no
boundary condition on g).  k=0 uses even parity at the origin, k>=1 odd; f
vanishes on the two-node Dirichlet pad at r_max.  `nondegeneracy_report`
assembles, solves and releases sectors 0 and 1 one at a time, so one sector
form and one LDL^T factorization of it are alive at once; every sector
k >= 2 follows from sector 1 by the ordering L_k > L_1.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigvalsh_tridiagonal

from . import operators
from .errors import UnconvergedState
from .grid import EVEN, ODD, differentiate
from .hartree import coulomb_apply, green_bands
from .solver import GroundState, linearization

# Radial-sector gap below which the verdict is not nondegenerate; also the
# inertia split of every sector eigensolve: eigenvalues below -GAP_TOL are
# clear Morse directions, the zero mode sits above it.
GAP_TOL = 1e-3


@dataclass
class SectorOperator:
    k: int
    form: sp.csr_matrix          # symmetric weighted form on active nodes
    mass: np.ndarray             # diagonal r^2-weighted mass of f
    act: np.ndarray              # active node indices on the state's grid
    shift: float                 # lower bound of the pencil's spectrum


def _require_converged(state: GroundState):
    """The residual part of `solver.acceptance_failures`, raised."""
    if not state.residual_norm <= state.residual_bound:
        raise UnconvergedState(f"residual {state.residual_norm:.2e} > "
                               f"bound {state.residual_bound:.2e}")


def sector_form(state: GroundState, k: int) -> SectorOperator:
    """Assemble the sector-k quadratic form around a converged state, with
    an O(1) lower bound of its pencil: kinetic and centrifugal parts are
    >= 0, the local diagonal >= its nodal minimum, and, b the coupling,
    -<bf, G_k(bf)> >= -max(b G_0 b) |f|^2 as 0 < G_k <= G_0."""
    if k < 0:
        raise ValueError("k >= 0")
    _require_converged(state)
    grid = state.grid
    S = operators.dirichlet_form(grid, EVEN if k == 0 else ODD)
    act = operators.active_slice(grid)
    Wa = grid.weights_r2dr[act]
    pot, b = linearization(state.u, state.v, state.params, grid.h)
    form = S + sp.diags(Wa * (pot[act] + k * (k + 1) / grid.nodes[act] ** 2))
    if state.params.a != 0.0:
        # y = r g; with W = h r^2 and the sweep's weights h r_j,
        # B T_k^-1 B is W b G_k(b .) less its Euler-Maclaurin term
        B = sp.diags(grid.h * grid.nodes[act] * b[act])
        diag, off = green_bands(k, len(act), grid.h)
        form = sp.bmat([[form, B], [B, sp.diags([off, diag, off], [-1, 0, 1])]])
    shift = (min(0.0, float(np.min(pot[act])))
             - float(np.max(b * coulomb_apply(grid, b))) - 1.0)
    return SectorOperator(k=k, form=form.tocsr(), mass=Wa, act=act,
                          shift=shift)


def translation_mode(state: GroundState) -> np.ndarray:
    """d_r u on the state's grid: the sector-1 zero mode of the
    linearization."""
    _require_converged(state)
    return differentiate(state.grid, state.u)


@dataclass
class SectorEntry:
    """One sector's lowest eigenpairs and what the eigensolve spent on them;
    `nondegeneracy_report` fills in the kernel dimension and, in sector 1,
    the match with the translation mode."""
    k: int
    eigenvalues: list
    below_split: int             # inertia count, confirmed by the eigensolve
    backward_error: float        # largest over the returned pairs
    solves: int                  # shift-invert applications
    factorizations: int          # inertia LDL^T factorizations
    seconds: float               # eigensolve wall time
    eigenvectors: np.ndarray = field(repr=False)
    kernel_dimension: Optional[int] = None
    zero_mode_match: Optional[float] = None


@dataclass
class NondegeneracyReport:
    sectors: list                # sectors 0 and 1
    verdict: str
    zero_tol: float
    higher_sectors: dict         # the k >= 2 certificate: bound, r_act, ordering_gap


def sector_spectrum(op: SectorOperator, above: int) -> SectorEntry:
    """Every eigenpair of the sector pencil below the inertia split -GAP_TOL,
    and the `above` lowest above it."""
    t0 = time.perf_counter()
    eig = operators.smallest_eigenpairs(op.form, op.mass, above,
                                        shift=op.shift, split=-GAP_TOL)
    seconds = time.perf_counter() - t0
    return SectorEntry(
        k=op.k, eigenvalues=eig.values.tolist(), eigenvectors=eig.vectors,
        below_split=int(np.count_nonzero(eig.values < -GAP_TOL)),
        backward_error=float(np.max(eig.backward_errors)),
        solves=eig.solves, factorizations=eig.factorizations, seconds=seconds)


def nondegeneracy_report(state: GroundState) -> NondegeneracyReport:
    """Spectral certificate for nondegeneracy: sectors 0 and 1 solved, every
    sector k >= 2 bounded from sector 1.

    Each solved sector computes only the pairs the verdict reads: all of
    those below the split -GAP_TOL (sector 0's Morse directions), and above it
    the radial gap in sector 0, and the zero mode and sigma_2 in sector 1.

    Sectors k >= 1 share S (odd parity), pot and B, so their Schur complements
    differ by L_k - L_1 = W (k(k+1) - 2) / r^2 + B (T_1^-1 - T_k^-1) B, and
    T_k >= T_1 (`hartree.green_bands`) makes the second term >= 0.  Weyl's
    bound on the pencil with mass W then gives, for every k >= 2 at once,
    sigma_min(L_k) >= sigma_min(L_1) + (k(k+1) - 2) / r_act^2, r_act the last
    active node.  `higher_sectors` records that bound at k = 2, r_act, and
    ordering_gap = lambda_min(T_2 - T_1), the ordering checked in floating
    point.

    nondegenerate: the radial sector has no eigenvalue within GAP_TOL of
    zero, sector 1 carries exactly one zero mode (|sigma| <= zero_tol =
    50 h^2 sigma_2, sigma_2 its next eigenvalue by magnitude) matching the
    translation pair, and the k >= 2 bound and ordering_gap are > 0.
    under-resolved: zero_tol >= sigma_2, a grid so coarse (50 h^2 >= 1) that
    the zero test cannot tell any sector-1 eigenvalue from zero.
    """
    # each form dies with its solve, so one sector is alive at a time
    sectors = [sector_spectrum(sector_form(state, k), 2 if k == 1 else 1)
               for k in (0, 1)]

    h = state.grid.h
    sigma2 = sorted(abs(s) for s in sectors[1].eigenvalues)[1]
    zero_tol = 50.0 * h * h * sigma2

    for entry in sectors:
        entry.kernel_dimension = sum(1 for s in entry.eigenvalues
                                     if abs(s) <= zero_tol)
    k1 = sectors[1]
    x = k1.eigenvectors[:, int(np.argmin(np.abs(k1.eigenvalues)))]
    act = operators.active_slice(state.grid)
    t = translation_mode(state)[act]
    M = state.grid.weights_r2dr[act]   # sector 1's mass
    k1.zero_mode_match = float(
        abs(np.sum(M * x * t)) / math.sqrt(np.sum(M * x * x) * np.sum(M * t * t)))

    r_act = float(state.grid.nodes[act[-1]])
    (d1, o1), (d2, o2) = (green_bands(k, len(act), h) for k in (1, 2))
    higher = {"bound": min(k1.eigenvalues) + 4.0 / r_act ** 2, "r_act": r_act,
              "ordering_gap": float(eigvalsh_tridiagonal(
                  d2 - d1, o2 - o1, select="i", select_range=(0, 0))[0])}

    k0_min_abs = min(abs(s) for s in sectors[0].eigenvalues)
    ok = (k0_min_abs > GAP_TOL
          and k1.kernel_dimension == 1
          and k1.zero_mode_match >= 0.999
          and higher["bound"] > 0.0 and higher["ordering_gap"] > 0.0)
    if zero_tol >= sigma2:   # 50 h^2 >= 1: every sector-1 eigenvalue counts as zero
        verdict = "under-resolved"
    elif ok:
        verdict = "nondegenerate"
    elif k0_min_abs <= zero_tol or k1.kernel_dimension > 1:
        verdict = "degenerate"
    else:
        verdict = "inconclusive"
    return NondegeneracyReport(sectors=sectors, verdict=verdict,
                               zero_tol=zero_tol, higher_sectors=higher)
