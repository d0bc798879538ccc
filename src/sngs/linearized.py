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
The form is one symmetric matrix in (f, y = r g), mass on f alone, held as
its bands (`operators.SymmetricBands`): S's three, the coupling B at offset
N = len(f) and T_k's two; `operators` eliminates its y block, G_k's
tridiagonal inverse `hartree.green_bands` (no boundary condition on g).  The
ordering of T_k over T_1 is checked by LAPACK's bisection (dstebz) for the
lowest eigenvalue of T_2 - T_1.  k=0 uses even parity at the origin, k>=1 odd; f
vanishes on the two-node Dirichlet pad at r_max.  `nondegeneracy_report`
assembles, solves and releases sectors 0 and 1 one at a time, so one sector
form and one LDL^T factorization of it are alive at once; every sector
k >= 2 follows from sector 1 by the ordering L_k > L_1.  Below the split
-GAP_TOL a sector's eigenvalues are counted, not computed: the inertia of
its one LDL^T there is its Morse index, and no verdict reads their values.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import operators
from .errors import FactorizationFailure, UnconvergedState
from .grid import EVEN, ODD, differentiate
from .hartree import green_bands
from .kernels import dstebz
from .solver import GroundState, linearization, residual_failures

# Radial-sector gap below which the verdict is not nondegenerate; also the
# inertia split of every sector eigensolve: eigenvalues below -GAP_TOL are
# clear Morse directions, the zero mode sits above it.
GAP_TOL = 1e-3


@dataclass
class SectorOperator:
    k: int
    form: operators.SymmetricBands   # symmetric weighted form on active nodes
    mass: np.ndarray             # diagonal r^2-weighted mass of f
    act: np.ndarray              # active node indices on the state's grid


def _require_converged(state: GroundState):
    """The first of `solver.residual_failures`, raised."""
    if (failures := residual_failures(state)):
        name, value, bound = failures[0]
        raise UnconvergedState(f"{name} {value:.2e} > bound {bound:.2e}")


def sector_form(state: GroundState, k: int) -> SectorOperator:
    """Assemble the sector-k quadratic form around a converged state."""
    if k < 0:
        raise ValueError("k >= 0")
    _require_converged(state)
    grid = state.grid
    S = operators.dirichlet_form(grid, EVEN if k == 0 else ODD)
    act = operators.active_slice(grid)
    N = len(act)
    Wa = grid.weights_r2dr[act]
    pot, b = linearization(state.u, state.v, state.params, grid.h)
    lead = S.diag + Wa * (pot[act] + k * (k + 1) / grid.nodes[act] ** 2)
    if state.params.a == 0.0:
        form = operators.SymmetricBands(lead, S.upper)
    else:
        # y = r g; with W = h r^2 and the sweep's weights h r_j,
        # B T_k^-1 B is W b G_k(b .) less its Euler-Maclaurin term; B is
        # the band at offset N, and T_k's bands follow S's past node N
        diag, off = green_bands(k, N, grid.h)
        form = operators.SymmetricBands(
            np.concatenate([lead, diag]),
            {1: np.concatenate([S.upper[1], [0.0], off]),
             2: np.concatenate([S.upper[2], np.zeros(N)]),
             N: grid.h * grid.nodes[act] * b[act]})
    return SectorOperator(k=k, form=form, mass=Wa, act=act)


def _lowest_eigenvalue(d: np.ndarray, e: np.ndarray) -> float:
    """The lowest eigenvalue of the symmetric tridiagonal matrix with
    diagonal d and off-diagonal e, by LAPACK's bisection (dstebz)."""
    m, w, _, _, info = dstebz(d, e, 2, 0.0, 1.0, 1, 1, 0.0, "E")
    if info != 0 or m != 1:
        raise FactorizationFailure(f"tridiagonal bisection: dstebz info {info}")
    return float(w[0])


def translation_mode(state: GroundState) -> np.ndarray:
    """d_r u on the state's grid: the sector-1 zero mode of the
    linearization."""
    _require_converged(state)
    return differentiate(state.grid, state.u)


@dataclass
class SectorEntry:
    """One sector's lowest eigenpairs above the split -GAP_TOL, the count of
    eigenvalues below it, and what the eigensolve spent on them;
    `nondegeneracy_report` fills in the kernel dimension and, in sector 1,
    the match with the translation mode."""
    k: int
    eigenvalues: list
    below_split: int             # inertia count: the sector's Morse index
    backward_error: float        # largest over the returned pairs
    solves: int                  # shift-invert applications
    factorizations: int          # inertia LDL^T factorizations
    fill: int                    # nnz(L) + nnz(U) of the LDL^T at the split
    seconds: float               # eigensolve wall time
    eigenvectors: np.ndarray = field(repr=False)
    kernel_dimension: Optional[int] = None
    zero_mode_match: Optional[float] = None


@dataclass
class NondegeneracyReport:
    sectors: list                # sectors 0 and 1
    verdict: str
    zero_tol: float
    higher_sectors: dict         # the k >= 2 certificate: bound (None unless
                                 # sector 1 has nothing below the split),
                                 # r_act, ordering_gap


def sector_spectrum(op: SectorOperator, above: int) -> SectorEntry:
    """The `above` lowest eigenpairs of the sector pencil above the inertia
    split -GAP_TOL, and the number of its eigenvalues below the split."""
    t0 = time.perf_counter()
    eig = operators.smallest_eigenpairs(op.form, op.mass, above, split=-GAP_TOL)
    seconds = time.perf_counter() - t0
    return SectorEntry(
        k=op.k, eigenvalues=eig.values.tolist(), eigenvectors=eig.vectors,
        below_split=eig.below,
        backward_error=float(np.max(eig.backward_errors)),
        solves=eig.solves, factorizations=eig.factorizations, fill=eig.fill,
        seconds=seconds)


def nondegeneracy_report(state: GroundState) -> NondegeneracyReport:
    """Spectral certificate for nondegeneracy: sectors 0 and 1 solved, every
    sector k >= 2 bounded from sector 1.

    Each solved sector counts its eigenvalues below the split -GAP_TOL
    (`below_split`, sector 0's Morse index) and computes above it only the
    pairs the verdict reads: the radial gap in sector 0, and the zero mode
    and sigma_2 in sector 1.

    Sectors k >= 1 share S (odd parity), pot and B, so their Schur complements
    differ by L_k - L_1 = W (k(k+1) - 2) / r^2 + B (T_1^-1 - T_k^-1) B, and
    T_k >= T_1 (`hartree.green_bands`) makes the second term >= 0.  Weyl's
    bound on the pencil with mass W then gives, for every k >= 2 at once,
    sigma_min(L_k) >= sigma_min(L_1) + (k(k+1) - 2) / r_act^2, r_act the last
    active node.  `higher_sectors` records that bound at k = 2, r_act, and
    ordering_gap = lambda_min(T_2 - T_1), the ordering checked in floating
    point.  sigma_min(L_1) is sector 1's lowest returned eigenvalue only when
    nothing lies below the split there; otherwise the bound is None.

    nondegenerate: the radial sector has no eigenvalue within GAP_TOL of
    zero, sector 1 carries exactly one zero mode (|sigma| <= zero_tol =
    50 h^2 sigma_2, sigma_2 its next eigenvalue by magnitude) matching the
    translation pair and nothing below the split, and the k >= 2 bound and
    ordering_gap are > 0.
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
    bound = min(k1.eigenvalues) + 4.0 / r_act ** 2 if k1.below_split == 0 else None
    higher = {"bound": bound, "r_act": r_act,
              "ordering_gap": _lowest_eigenvalue(d2 - d1, o2 - o1)}

    k0_min_abs = min(abs(s) for s in sectors[0].eigenvalues)
    ok = (k0_min_abs > GAP_TOL
          and k1.kernel_dimension == 1
          and k1.zero_mode_match >= 0.999
          and k1.below_split == 0 and bound > 0.0
          and higher["ordering_gap"] > 0.0)
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
