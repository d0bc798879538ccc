"""Spherical-harmonics sector forms of the linearized operator and spectra.

In the harmonic sector k the perturbation f of u feels the quadratic form
(general lam, a and power weight nu)

  L_k(f, f) = int f_r^2 r^2 dr + k(k+1) int f^2 dr + lam int f^2 r^2 dr
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

The form is one symmetric matrix in (f, y = r g), mass on f alone; `operators`
eliminates its y block, G_k's tridiagonal inverse `hartree.green_bands` (no
boundary condition on g).  k=0 uses even parity at the origin, k>=1 odd; f
vanishes on the two-node Dirichlet pad at r_max.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp

from . import operators
from .errors import UnconvergedState
from .grid import EVEN, ODD, differentiate
from .hartree import coulomb_apply, green_bands
from .solver import GroundState, linearization

# Radial-sector gap below which the verdict is not nondegenerate; also the
# inertia split of every sector eigensolve: eigenvalues below -GAP_TOL are
# clear Morse directions, the zero mode sits above it.
GAP_TOL = 1e-3

# eigenpairs computed per sector
NUM_EIGS = 6


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
    lam_k = float(k * (k + 1))
    pot, b = linearization(state.u, state.v, state.params, grid.h)
    form = S + sp.diags(Wa * pot[act] + lam_k * grid.weights_dr[act])
    if state.params.a != 0.0:
        # y = r g; with W = sigma h r^2 and the sweep's weights h r_j,
        # B T_k^-1 B is W b G_k(b .) less its Euler-Maclaurin term
        B = sp.diags(np.sqrt(grid.h * Wa) * b[act])
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
    sectors: list
    verdict: str
    zero_tol: float


def sector_spectrum(op: SectorOperator, m: int) -> SectorEntry:
    """m algebraically lowest eigenpairs of the sector pencil, sliced by
    inertia at -GAP_TOL."""
    if m < 1:
        raise ValueError("m >= 1")
    t0 = time.perf_counter()
    eig = operators.smallest_eigenpairs(op.form, op.mass, m,
                                        shift=op.shift,
                                        split=-GAP_TOL)
    seconds = time.perf_counter() - t0
    return SectorEntry(
        k=op.k, eigenvalues=eig.values.tolist(), eigenvectors=eig.vectors,
        below_split=int(np.count_nonzero(eig.values < -GAP_TOL)),
        backward_error=float(np.max(eig.backward_errors)),
        solves=eig.solves, factorizations=eig.factorizations, seconds=seconds)


def nondegeneracy_report(state: GroundState, k_max: int) -> NondegeneracyReport:
    """Sector-by-sector spectral certificate for nondegeneracy.

    nondegenerate: the radial sector has no eigenvalue within GAP_TOL of
    zero, sector 1 carries exactly one zero mode (|sigma| <= zero_tol =
    50 h^2 sigma_2, sigma_2 its next eigenvalue by magnitude) matching the
    translation pair, and every sector 2..k_max is strictly positive (the
    sector ordering extends the verdict beyond k_max).  under-resolved:
    zero_tol >= sigma_2, a grid so coarse (50 h^2 >= 1) that the zero test
    cannot tell any sector-1 eigenvalue from zero.
    """
    if k_max < 2:
        raise ValueError("k_max >= 2")
    ops = [sector_form(state, k) for k in range(k_max + 1)]
    sectors = [sector_spectrum(op, NUM_EIGS) for op in ops]

    h = state.grid.h
    vals1 = sorted(sectors[1].eigenvalues, key=abs)
    sigma2 = abs(vals1[1]) if len(vals1) > 1 else 1.0
    zero_tol = 50.0 * h * h * sigma2

    for entry in sectors:
        entry.kernel_dimension = sum(1 for s in entry.eigenvalues
                                     if abs(s) <= zero_tol)
    k1 = sectors[1]
    x = k1.eigenvectors[:, int(np.argmin(np.abs(k1.eigenvalues)))]
    t = translation_mode(state)[ops[1].act]
    M = ops[1].mass
    k1.zero_mode_match = float(
        abs(np.sum(M * x * t)) / math.sqrt(np.sum(M * x * x) * np.sum(M * t * t)))

    k0_min_abs = min(abs(s) for s in sectors[0].eigenvalues)
    high_positive = all(min(sectors[k].eigenvalues) > 0.0
                        for k in range(2, k_max + 1))
    ok = (k0_min_abs > GAP_TOL
          and k1.kernel_dimension == 1
          and k1.zero_mode_match >= 0.999
          and high_positive)
    if zero_tol >= sigma2:   # 50 h^2 >= 1: every sector-1 eigenvalue counts as zero
        verdict = "under-resolved"
    elif ok:
        verdict = "nondegenerate"
    elif (k0_min_abs <= zero_tol or k1.kernel_dimension > 1
          or any(min(sectors[k].eigenvalues) < -zero_tol
                 for k in range(2, k_max + 1))):
        verdict = "degenerate"
    else:
        verdict = "inconclusive"
    return NondegeneracyReport(sectors=sectors, verdict=verdict,
                               zero_tol=zero_tol)
